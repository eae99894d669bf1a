#include "src/protocol/marketplace.h"

#include <memory>
#include <utility>

#include "src/service/verification_service.h"
#include "src/util/check.h"

namespace tao {
namespace {

// One task's strategy/supervision draws — what the statistics are tallied from once
// the service delivers the claim's verdict.
struct DrawnTask {
  bool cheats = false;
  bool challenged = false;
  bool audited = false;

  bool supervised() const { return challenged || audited; }
};

}  // namespace

Marketplace::Marketplace(const Model& model, const ModelCommitment& commitment,
                         const ThresholdSet& thresholds, MarketplaceConfig config)
    : config_(std::move(config)),
      gateway_(registry_, GatewayOptions{.monitoring = config_.monitoring, .rpc = {}}) {
  // Single-model registry: register + commit up front (the gateway serves in
  // Run()). The coordinator configuration matches the pre-registry member
  // (GasSchedule{}, round_timeout 10, config shards), so the ledger and claim-id
  // machinery are unchanged.
  model_id_ = registry_.Register(model);
  ModelCommitConfig commit_config;
  commit_config.coordinator_shards = config_.coordinator_shards;
  commit_config.durability = config_.durability;
  TAO_CHECK(registry_.Commit(model_id_, commitment, thresholds, commit_config) ==
            CommitStatus::kOk)
      << "thresholds do not match the commitment's threshold root";
}

MarketplaceStats Marketplace::Run() {
  MarketplaceStats stats;
  Rng rng(config_.seed);
  const Model& model = registry_.model(model_id_);
  const Graph& graph = *model.graph;
  const auto& fleet = DeviceRegistry::Fleet();

  ServiceOptions service_options;
  service_options.num_workers = config_.service_workers;
  service_options.queue_capacity = config_.queue_capacity;
  service_options.admission = AdmissionPolicy::kBlock;
  service_options.batching.initial_hint = config_.verify_batch_size;
  service_options.unordered_delivery = config_.unordered_delivery;
  service_options.verifier.dispute = config_.dispute;
  service_options.verifier.reuse_buffers = config_.reuse_buffers;
  // Serve() accepts kCommitted (first Run) and kRetired (repeated Run — the
  // historical contract: each Run gets a fresh service over the persistent
  // coordinator, so ids and the ledger continue where the last Run stopped).
  gateway_.Serve(model_id_, service_options);

  // Draw-and-submit loop. The draw sequence is EXACTLY the historical per-task
  // loop's — input, proposer device, strategy, perturbation site/seed, supervision
  // channel, verifier device, task by task — because execution consumes nothing
  // from this Rng stream. Submission order equals task order (one submitter, a
  // FIFO queue), and the service's resolve lanes settle claims against the
  // coordinator in submission order per shard (with the default single shard,
  // globally), so every statistic, the ledger, and claim ids are bitwise identical
  // to the sequential path no matter how the BatchFormer groups execution or how
  // many workers run. Blocking admission bounds resident tensors to the queue +
  // reorder window rather than the whole run.
  std::vector<DrawnTask> drawn_tasks;
  std::vector<std::shared_ptr<ClaimTicket>> tickets;
  drawn_tasks.reserve(static_cast<size_t>(config_.num_tasks));
  tickets.reserve(static_cast<size_t>(config_.num_tasks));
  for (int64_t task = 0; task < config_.num_tasks; ++task) {
    DrawnTask drawn;
    BatchClaim claim;
    claim.inputs = model.sample_input(rng);
    claim.proposer_device = &fleet[rng.NextBounded(fleet.size())];

    // Proposer strategy draw.
    drawn.cheats = rng.NextDouble() < config_.cheat_rate;
    if (drawn.cheats) {
      const NodeId site =
          graph.op_nodes()[rng.NextBounded(static_cast<uint64_t>(graph.num_ops() - 1))];
      Rng delta_rng(rng.NextU64());
      claim.perturbations.push_back(
          {site, Tensor::Randn(graph.node(site).shape, delta_rng, config_.cheat_magnitude)});
    }

    // Supervision draw: voluntary challenge XOR randomized audit XOR none.
    const double draw = rng.NextDouble();
    drawn.challenged = draw < config_.economics.challenge_prob;
    drawn.audited =
        !drawn.challenged &&
        draw < config_.economics.challenge_prob + config_.economics.audit_prob;
    if (drawn.supervised()) {
      // A verifier (voluntary challenger or sampled auditor) re-executes on its own
      // hardware and runs the dispute pipeline when flagged.
      claim.verifier_device = &fleet[rng.NextBounded(fleet.size())];
    }

    GatewaySubmitResult submitted = gateway_.Submit(model_id_, std::move(claim));
    TAO_CHECK(submitted.accepted())
        << "blocking admission cannot reject (got " << GatewayStatusName(submitted.status)
        << ")";
    drawn_tasks.push_back(drawn);
    tickets.push_back(std::move(submitted.ticket));
  }

  // Drain delivers every verdict, then Retire tears the service down — its worker
  // and lane threads join HERE, not at Marketplace destruction, matching the
  // pre-registry profile where the service was a Run()-local.
  gateway_.Drain(model_id_);
  gateway_.Retire(model_id_);

  for (size_t i = 0; i < drawn_tasks.size(); ++i) {
    const DrawnTask& drawn = drawn_tasks[i];
    const BatchClaimOutcome& outcome = tickets[i]->Wait();
    ++stats.tasks;
    if (drawn.cheats) {
      ++stats.cheats_attempted;
    }

    if (!drawn.supervised()) {
      // Nobody watched this claim: it finalized either way.
      if (drawn.cheats) {
        ++stats.cheats_escaped;
      } else {
        ++stats.finalized_clean;
      }
      continue;
    }

    if (drawn.challenged) {
      ++stats.voluntary_challenges;
    } else {
      ++stats.audits;
    }
    stats.total_gas += outcome.gas_used;

    if (!outcome.flagged) {
      if (drawn.cheats) {
        ++stats.cheats_escaped;  // deviation hid inside the tolerance (the eps1 case)
      } else {
        ++stats.finalized_clean;
      }
      continue;
    }
    if (!drawn.cheats) {
      ++stats.spurious_disputes;
      if (outcome.final_state == ClaimState::kProposerSlashed) {
        ++stats.honest_slashes;
      }
      continue;
    }
    if (outcome.proposer_guilty) {
      ++stats.cheats_caught;
    } else {
      ++stats.cheats_escaped;
    }
  }
  return stats;
}

}  // namespace tao
