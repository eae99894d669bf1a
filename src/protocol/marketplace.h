// Inference-marketplace simulation (the Fig. 2 task pool with the Sec. 5.5 dual
// supervision channels).
//
// Users submit tasks; proposers execute on randomly drawn fleet hardware and commit
// results, occasionally cheating (cheap cheating c1: an injected perturbation standing
// in for a model swap / quantization downgrade). Each claim is supervised by at most
// one channel: a voluntary challenge with probability phi_ch, else a randomized audit
// with probability phi (mutually exclusive per the paper). Detected fraud runs the
// full dispute game and slashes; missed fraud finalizes. The simulation tracks
// realized detection rates, balances, and gas, so the analytical incentive model
// (economics.h) can be validated against protocol-level outcomes.

#ifndef TAO_SRC_PROTOCOL_MARKETPLACE_H_
#define TAO_SRC_PROTOCOL_MARKETPLACE_H_

#include "src/protocol/dispute.h"
#include "src/protocol/economics.h"
#include "src/registry/model_registry.h"
#include "src/registry/serving_gateway.h"

namespace tao {

struct MarketplaceConfig {
  EconomicParams economics;
  int64_t num_tasks = 60;
  // Probability a proposer cheats on a task (the strategic knob the incentive design
  // is meant to drive to zero; simulated exogenously here to measure detection).
  double cheat_rate = 0.25;
  float cheat_magnitude = 5e-2f;
  DisputeOptions dispute;
  uint64_t seed = 0x3a4ce7;
  // Run() drives the VerificationService (src/service/): tasks are drawn in order
  // on the same RNG stream as the historical per-task loop (execution draws
  // nothing, so statistics are bitwise identical) and submitted through the
  // service's bounded queue; the BatchFormer sizes each execution cohort from live
  // queue depth and its arena-derived memory budget, and the resolve lanes settle
  // claims against the coordinator in task order per shard (one shard by default)
  // — so stats, gas, the ledger, and claim ids match the sequential path for any
  // worker count or batch sizing.
  // `verify_batch_size` is only the BatchFormer's initial hint (the cohort cap
  // until its first memory observation); it no longer pins chunk boundaries.
  int64_t verify_batch_size = 16;
  // Recycle dead intermediates of output-only lanes during batched execution.
  bool reuse_buffers = true;
  // Verify workers and admission-queue capacity for the embedded service. The
  // queue bound (plus the service's reorder window) is also Run()'s
  // resident-tensor bound: a full queue blocks further draws until workers drain
  // it, instead of materializing every task's input up front.
  int service_workers = 1;
  size_t queue_capacity = 64;
  // Coordinator shards = service resolve lanes. 1 (the default) reproduces the
  // sequential path bitwise; >1 resolves claims on per-shard lanes concurrently
  // (stats and per-claim outcomes are unchanged — they are order-independent — but
  // the ledger fold's floating-point summation order differs across shard counts).
  size_t coordinator_shards = 1;
  // Deliver verdicts as lanes complete instead of in global submission order.
  // Run() waits for all tickets either way, so stats are unaffected.
  bool unordered_delivery = false;
  // Coordinator durability root (see ModelCommitConfig::durability): non-empty
  // makes the embedded model's coordinator write-ahead-log every action under
  // `<directory>/model-<id>` and recover it on the next construction. Default off:
  // the simulation stays bitwise the in-memory path.
  DurabilityOptions durability;
  // Embedded HTTP monitoring endpoint for the simulation's gateway (off by
  // default). Enabling it turns span tracing on for the run; instrumentation is
  // outcome-inert, so stats/gas/ledger/claim ids stay bitwise identical either way
  // (held by the observability test's tracing sweep).
  MonitoringOptions monitoring;
};

struct MarketplaceStats {
  int64_t tasks = 0;
  int64_t finalized_clean = 0;
  int64_t cheats_attempted = 0;
  int64_t cheats_caught = 0;
  int64_t cheats_escaped = 0;        // finalized despite cheating (no supervision drawn
                                     // or deviation inside tolerance)
  int64_t voluntary_challenges = 0;
  int64_t audits = 0;
  int64_t spurious_disputes = 0;     // disputes opened against honest proposers
  int64_t honest_slashes = 0;        // must stay 0 (soundness for the honest)
  int64_t total_gas = 0;

  // Fraction of ATTEMPTED cheats that were caught. The denominator is every cheat
  // attempt — supervised or not — matching the analytical d = (phi + phi_ch)(1 - eps1)
  // of Eq. 16, which also conditions only on a cheat being attempted (supervision and
  // the eps1 tolerance residue are what the rate is measuring). It is NOT the
  // caught-given-supervised conditional, which would divide by the supervised-cheat
  // count alone and track 1 - eps1 instead.
  double realized_detection_rate() const {
    return cheats_attempted == 0
               ? 0.0
               : static_cast<double>(cheats_caught) / cheats_attempted;
  }
};

// Marketplace is now a THIN single-model client of the registry + gateway stack
// (src/registry/): the constructor registers and commits the model into a private
// ModelRegistry, Run() serves it through a ServingGateway and drives the same
// draw-and-submit loop as before, tagged with the model's id. With exactly one
// registered model the gateway adds only a routing-table lookup, so stats, gas,
// digests, claim ids, and the ledger stay bitwise identical to the pre-registry
// path (the marketplace seed-sweep test holds this).
class Marketplace {
 public:
  Marketplace(const Model& model, const ModelCommitment& commitment,
              const ThresholdSet& thresholds, MarketplaceConfig config);

  MarketplaceStats Run();

  // Balances after Run(), from the model's coordinator ledger in the registry
  // (Coordinator::balances copies under its locks).
  Balances balances() const { return registry_.coordinator(model_id_).balances(); }

 private:
  MarketplaceConfig config_;
  ModelRegistry registry_;
  ServingGateway gateway_;
  ModelId model_id_ = 0;
};

}  // namespace tao

#endif  // TAO_SRC_PROTOCOL_MARKETPLACE_H_
