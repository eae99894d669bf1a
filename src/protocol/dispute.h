// The end-to-end TAO protocol driver: optimistic execution (Phase 1), Merkle-anchored
// threshold-guided dispute localization (Phase 2), and single-operator adjudication
// (Phase 3).
//
// Phases 2-3 are split the way the paper splits the parties from the contract:
//   * PlanDispute plays both parties off-chain. The proposer answers each round by
//     posting a canonical partition with interface commitments and Merkle proofs; the
//     challenger verifies the proofs, re-executes children from agreed boundaries, and
//     selects the first offending child (Eq. 15) until a single operator remains, which
//     it adjudicates. Every move is a deterministic function of the proposer's posted
//     values, the committed thresholds and the Merkle commitment, so the plan touches
//     no Coordinator and may run on any thread.
//   * ApplyDispute is the contract's side: it posts one claim's moves to the
//     Coordinator in protocol order. It is the only place a claim's coordinator
//     actions are sequenced.
// DisputeGame::Run composes the whole lifecycle: phase 1 (the proposer executes on
// its device, optionally injecting the adversarial perturbations of Sec. 4, and
// commits C0; the challenger re-executes), the output threshold check against the
// committed empirical thresholds, the plan and the apply. The result carries every
// statistic the paper's evaluation reports: rounds, Merkle proof checks, per-round
// substep wall-clock, challenger FLOPs (DCR), cost ratio, and gas.

#ifndef TAO_SRC_PROTOCOL_DISPUTE_H_
#define TAO_SRC_PROTOCOL_DISPUTE_H_

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
  // challenger executions run concurrently on the shared pool, and every
  // (re-)execution splits the loops of its operators of at least kMinForkFlops. A
  // dispute plan itself is one sequential task.
  // Traces, verdicts, rounds, flops, and gas are identical for any value — the
  // protocol compares exact values and the runtime is bitwise deterministic.
  int num_threads = 1;
};

struct RoundStats {
  int64_t round = 0;
  int64_t slice_size = 0;
  int64_t children = 0;
  int64_t selected_child = -1;
  // The proposer's posted interface commitment of each child (what RecordPartition
  // takes).
  std::vector<Digest> child_hashes;
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
  std::vector<RoundStats> round_stats;
};

// Phases 2-3 of one claim the output threshold check flagged, computed without the
// coordinator. `proposer_trace` is the proposer's FULL trace (interior values are
// what the partitions post). Fills everything but claim_id, final_state and gas_used,
// which ApplyDispute adds; challenge_raised is true. Its kDisputeRound spans (one per
// round) carry the claim context the calling thread published, if any.
DisputeResult PlanDispute(const Model& model, const ModelCommitment& commitment,
                          const ThresholdSet& thresholds, const DisputeOptions& options,
                          const std::vector<Tensor>& inputs,
                          const DeviceProfile& challenger_device,
                          const ExecutionTrace& proposer_trace);

// Posts one claim's lifecycle to `coordinator`, homing it on `shard` (taken mod
// num_shards): submit C0; then, when `result` raised no challenge, advance the
// claim's window and finalize; otherwise open the challenge, post each planned round
// (partition, Merkle check, and selection plus a one-tick advance when a child was
// selected) and adjudicate. Fills result.claim_id, final_state and gas_used.
void ApplyDispute(Coordinator& coordinator, const Digest& c0,
                  const DisputeOptions& options, uint64_t shard, DisputeResult& result);

class DisputeGame {
 public:
  DisputeGame(const Model& model, const ModelCommitment& commitment,
              const ThresholdSet& thresholds, Coordinator& coordinator,
              DisputeOptions options = {});

  // Runs the full lifecycle for one request: phase 1, the output threshold check,
  // PlanDispute when it flags, and ApplyDispute on `shard`. `perturbations` is the
  // malicious proposer's injection set (empty = honest). The proposer runs on
  // `proposer_device`, the challenger on `challenger_device`.
  DisputeResult Run(const std::vector<Tensor>& inputs, const DeviceProfile& proposer_device,
                    const DeviceProfile& challenger_device,
                    const std::vector<Executor::Perturbation>& perturbations = {},
                    uint64_t shard = 0);

 private:
  const Model& model_;
  const ModelCommitment& commitment_;
  const ThresholdSet& thresholds_;
  Coordinator& coordinator_;
  DisputeOptions options_;
};

}  // namespace tao

#endif  // TAO_SRC_PROTOCOL_DISPUTE_H_
