// The end-to-end TAO protocol driver: optimistic execution (Phase 1), Merkle-anchored
// threshold-guided dispute localization (Phase 2), and single-operator adjudication
// (Phase 3), orchestrated against the Coordinator.
//
// The driver embodies both parties:
//   * the proposer executes the model on its device — optionally injecting the
//     adversarial perturbations of Sec. 4 — commits C0, and answers dispute rounds by
//     posting canonical partitions with interface commitments and Merkle proofs;
//   * the challenger re-executes, triggers a dispute when the output violates the
//     committed empirical thresholds, verifies the per-round proofs, re-executes
//     children from agreed boundaries, and selects the first offending child (Eq. 15)
//     until a single operator remains.
// It also gathers every statistic the paper's evaluation reports: rounds, Merkle proof
// checks, per-round substep wall-clock, challenger FLOPs (DCR), cost ratio, and gas.

#ifndef TAO_SRC_PROTOCOL_DISPUTE_H_
#define TAO_SRC_PROTOCOL_DISPUTE_H_

#include <map>
#include <optional>
#include <vector>

#include "src/graph/executor.h"
#include "src/graph/subgraph.h"
#include "src/models/model_zoo.h"
#include "src/protocol/adjudication.h"
#include "src/protocol/commitment.h"
#include "src/protocol/coordinator.h"

namespace tao {

struct DisputeOptions {
  int64_t partition_n = 2;         // N-way partition width
  uint64_t challenge_window = 100; // logical ticks
  double proposer_bond = 10.0;
  double challenger_bond = 2.0;
  double challenger_share = 0.5;
  AdjudicationOptions adjudication;
  // Runtime policy (src/runtime/): with num_threads > 1 the phase-1 proposer and
  // challenger executions run concurrently on the shared pool, per-round Merkle proof
  // verification fans out, and every (re-)execution splits the loops of its operators
  // of at least kMinForkFlops.
  // Traces, verdicts, rounds, flops, and gas are identical for any value — the
  // protocol compares exact values and the runtime is bitwise deterministic.
  int num_threads = 1;
  // Re-execute all of a round's children concurrently instead of lazily stopping at
  // the first offender. Boundaries are proposer-posted values, so they are known
  // up-front and verdicts are unchanged; the DCR accounting then honestly includes
  // the speculative work past the offender (cost_ratio can rise; wall-clock drops).
  bool speculative_reexecution = false;
  // Adaptive speculation (the ROADMAP follow-on to the always-on knob above, which
  // stays off by default because it inflates DCR): speculate only on rounds where
  // the expected DCR overhead is small — the partition is wide (partition_n > 2, so
  // lazy selection would serialize many children) AND the round's slice is already
  // small (at most speculative_slice_limit ops, so even fully wasted children cost
  // little). Early rounds re-execute near-full-model slices lazily (DCR-cheap: the
  // offender is usually found after ~n/2 children of a HUGE slice, and speculating
  // there can nearly double challenger FLOPs); late narrow rounds fan out
  // (latency-cheap: the residual slices are tiny). Verdicts are unchanged either
  // way; only DCR accounting and wall-clock move. Ignored when
  // speculative_reexecution is already true.
  bool adaptive_speculation = false;
  // Slice-size ceiling (in ops) below which adaptive speculation engages.
  int64_t speculative_slice_limit = 64;
  // Learn the adaptive-speculation ceiling online instead of trusting the static
  // default: every speculated round observes its waste fraction — prefetched
  // children PAST the selected offender over all prefetched children (0 when no
  // offender was found, since every child then had to be checked anyway) — and
  // folds it into an EWMA w. Later rounds use an effective ceiling of
  // speculative_slice_limit * 2 * (1 - w), clamped to [1, 4 * limit]: low observed
  // waste widens the window (fan out on bigger slices), high waste shrinks it.
  // Verdicts, rounds, and selections never move — the estimate only changes WHICH
  // rounds fan out, i.e. DCR accounting and wall-clock, exactly like the static
  // knob. Off by default; meaningful only with adaptive_speculation.
  bool adaptive_slice_learning = false;
  // EWMA smoothing weight for the waste observations above (0 < rate <= 1; the
  // first observation seeds the estimate directly).
  double slice_learning_rate = 0.25;
  // Advance the coordinator's logical clock by one tick per dispute round. The
  // BatchVerifier's concurrent-dispute mode turns this off so games sharing the
  // coordinator SHARD cannot push each other past round deadlines; the clock is
  // protocol bookkeeping only, so verdicts, rounds, and gas are unchanged. (Games on
  // distinct shards are already clock-isolated: every time advance the game performs
  // is per-claim, so it only moves the owning shard's clock.)
  bool advance_clock_per_round = true;
  // Coordinator shard the claim is homed to at submission (taken mod num_shards; all
  // later actions route by the assigned id). The service's per-shard resolve lanes
  // pass their lane index; standalone drivers leave it 0.
  uint64_t coordinator_shard = 0;
};

struct RoundStats {
  int64_t round = 0;
  int64_t slice_size = 0;
  int64_t children = 0;
  int64_t selected_child = -1;
  int64_t merkle_proofs = 0;
  int64_t children_reexecuted = 0;
  int64_t reexec_flops = 0;
  double proposer_partition_ms = 0.0;
  double challenger_selection_ms = 0.0;
};

struct DisputeResult {
  ClaimId claim_id = 0;
  bool challenge_raised = false;
  bool proposer_guilty = false;
  ClaimState final_state = ClaimState::kCommitted;
  NodeId leaf_op = -1;
  LeafVerdict leaf;
  int64_t rounds = 0;
  int64_t total_merkle_checks = 0;
  // DCR: challenger FLOPs spent inside the dispute game (child re-executions + leaf).
  int64_t challenger_flops = 0;
  double cost_ratio = 0.0;  // DCR / one model forward
  int64_t gas_used = 0;     // gas attributable to this claim's lifecycle
  // Adaptive slice learning (DisputeOptions::adaptive_slice_learning): the waste
  // EWMA after the game's last observation, and the effective ceiling it implies
  // for a hypothetical next round. Zeros when learning is off or never observed.
  double speculative_waste_ewma = 0.0;
  int64_t learned_slice_limit = 0;
  std::vector<RoundStats> round_stats;
};

class DisputeGame {
 public:
  DisputeGame(const Model& model, const ModelCommitment& commitment,
              const ThresholdSet& thresholds, Coordinator& coordinator,
              DisputeOptions options = {});

  // Runs the full lifecycle for one request. `perturbations` is the malicious
  // proposer's injection set (empty = honest). The proposer runs on
  // `proposer_device`, the challenger on `challenger_device`.
  DisputeResult Run(const std::vector<Tensor>& inputs, const DeviceProfile& proposer_device,
                    const DeviceProfile& challenger_device,
                    const std::vector<Executor::Perturbation>& perturbations = {});

  // Everything after phase 1: commitment submission, the output threshold check, and
  // — when the check flags the claim — the full dispute pipeline. `proposer_trace`
  // and `challenger_output` are the phase-1 execution results, computed either by
  // Run() above or externally (the BatchVerifier runs K claims' phase-1 executions as
  // the lanes of one batched run and feeds each result here); `c0` is the proposer's
  // result commitment over that trace's output. Outcomes are identical to Run() because the
  // runtime is bitwise deterministic, so where phase 1 executed cannot matter.
  // `precomputed_flagged`, when set, is the caller's already-evaluated output
  // threshold verdict (the check is deterministic, so passing it skips a duplicate
  // evaluation); when unset, the check runs here. With `precomputed_flagged ==
  // false` the happy path reads nothing from `proposer_trace`, so callers may pass
  // an empty trace — the BatchVerifier drops unflagged lane traces on this basis.
  DisputeResult RunFromPhase1(const std::vector<Tensor>& inputs,
                              const DeviceProfile& challenger_device,
                              const ExecutionTrace& proposer_trace,
                              const Tensor& challenger_output, const Digest& c0,
                              std::optional<bool> precomputed_flagged = std::nullopt);

 private:
  const Model& model_;
  const ModelCommitment& commitment_;
  const ThresholdSet& thresholds_;
  Coordinator& coordinator_;
  DisputeOptions options_;
};

}  // namespace tao

#endif  // TAO_SRC_PROTOCOL_DISPUTE_H_
