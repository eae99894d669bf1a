// Batched multi-claim verification (the ROADMAP "batched multi-proposal
// verification" item; SYSFLOW-style amortization of shared state across
// concurrently scheduled work).
//
// A verifier supervising K independent claims against ONE committed model used to
// re-walk the model once per claim, leaving the runtime pool idle between claims.
// BatchVerifier instead runs the whole cohort's phase-1 work as one batched run
// (Executor::RunBatch): K proposer executions plus one challenger re-execution per
// supervised claim, all sharing the model weights and one TensorArena, each proposer
// lane ending in a commitment-check epilogue that computes C0 while other lanes are
// still executing. Each lane is one pool task, so the batch fills the machine with
// whole claims even though no mini-model operator is large enough to split.
//
// Every lane — proposer lanes included, supervised or not — is output-only, so the
// batch's peak memory no longer scales with supervised-claims-per-batch. The output
// threshold check runs right after the batched phase 1. Each claim it FLAGS then
// becomes one pool task that re-executes the proposer's full trace (bitwise identical
// to the lane execution, per the runtime determinism contract; only a dispute posts
// interface values from interior nodes) and plans the whole dispute game with
// PlanDispute. The trace dies with the task; only the plan is kept.
//
// The claim lifecycle is split into two independently callable halves so the service
// layer (src/service/) can pipeline them:
//   * ExecutePhase1: the batched run, threshold checks, and the flagged claims'
//     re-executions and dispute plans. Touches no coordinator state, so cohorts from
//     different workers can execute concurrently.
//   * ResolveClaim: ApplyDispute — one claim's coordinator actions (submission, then
//     window and finalization, or the planned dispute's moves). Callers choose the
//     resolution order; resolving claims in submission order replays the historical
//     sequential path bitwise.
// VerifyBatch is ExecutePhase1 plus resolution in claim order: verdicts, per-claim
// gas, digests, claim ids, stats, and the ledger are bitwise identical to the
// sequential path (DisputeGame::Run per supervised claim, submit/finalize per
// unsupervised claim) for any thread count.

#ifndef TAO_SRC_PROTOCOL_BATCH_VERIFIER_H_
#define TAO_SRC_PROTOCOL_BATCH_VERIFIER_H_

#include <vector>

#include "src/protocol/dispute.h"

namespace tao {

// One claim of a batch: a request input, the proposer's (possibly perturbed)
// execution, and an optional supervising verifier. All claims of a batch share the
// model, commitment, and thresholds held by the BatchVerifier.
struct BatchClaim {
  std::vector<Tensor> inputs;
  // The malicious proposer's injection set (empty = honest execution).
  std::vector<Executor::Perturbation> perturbations;
  const DeviceProfile* proposer_device = nullptr;
  // Device of the supervising verifier (voluntary challenger or sampled auditor);
  // null means nobody watches this claim and it finalizes after the window.
  const DeviceProfile* verifier_device = nullptr;

  bool supervised() const { return verifier_device != nullptr; }
};

// Protocol outcome of one claim.
struct BatchClaimOutcome {
  ClaimId claim_id = 0;
  // Model the claim settled against (the coordinator's model id; 0 standalone).
  ModelId model = 0;
  Digest c0{};
  bool supervised = false;
  // The verifier's output threshold check flagged the claim (a dispute was run).
  bool flagged = false;
  bool proposer_guilty = false;
  ClaimState final_state = ClaimState::kCommitted;
  int64_t gas_used = 0;  // per-claim gas (Coordinator::claim_gas)
  // The applied DisputeResult (what DisputeGame::Run would have returned for this
  // claim); its dispute statistics are populated for flagged claims only.
  DisputeResult dispute;
};

// Everything phase 1 produced for one claim: the result commitment and, for a claim
// the threshold check flagged, the planned dispute (default, challenge_raised false,
// otherwise). Holding one retains no tensor.
struct ClaimPhase1 {
  Digest c0{};
  bool supervised = false;
  DisputeResult dispute;
};

struct BatchVerifierOptions {
  // Dispute policy for flagged claims. `dispute.num_threads` also sets how many of
  // the batched phase 1's lanes, and of the flagged claims' dispute plans, run at
  // once, and `dispute.challenge_window` / `proposer_bond` govern unsupervised
  // submissions.
  DisputeOptions dispute;
  // Recycle dead intermediates of output-only lanes through one shared TensorArena.
  bool reuse_buffers = false;
};

class BatchVerifier {
 public:
  BatchVerifier(const Model& model, const ModelCommitment& commitment,
                const ThresholdSet& thresholds, Coordinator& coordinator,
                BatchVerifierOptions options = {});

  // Runs the full lifecycle of every claim. Outcomes are indexed like `claims`.
  // `arena_stats`, when non-null, receives the batched phase's shared-arena counters.
  std::vector<BatchClaimOutcome> VerifyBatch(const std::vector<BatchClaim>& claims,
                                             TensorArena::Stats* arena_stats = nullptr);

  // The cohort's phase 1: one batched run of every lane, per-claim C0 epilogues,
  // output threshold checks, and, as one pool task per flagged claim, the full
  // re-execution of its proposer trace and its PlanDispute. Touches no coordinator
  // state — safe to call from concurrent service workers sharing this verifier.
  std::vector<ClaimPhase1> ExecutePhase1(const std::vector<BatchClaim>& claims,
                                         TensorArena::Stats* arena_stats = nullptr);

  // One claim's coordinator actions, posted by ApplyDispute from its phase-1 result.
  // `shard` homes the claim on the (sharded) coordinator — the service's per-shard
  // resolve lanes pass their lane index so each lane's claims live in their own
  // shard. Calls for distinct claims may come from any thread; the
  // bitwise-sequential-ledger guarantee holds per shard when each shard's claims
  // resolve one at a time in that shard's submission order (with one shard that is
  // exactly the historical global guarantee).
  BatchClaimOutcome ResolveClaim(ClaimPhase1 phase1, uint64_t shard = 0);

 private:
  const Model& model_;
  const ModelCommitment& commitment_;
  const ThresholdSet& thresholds_;
  Coordinator& coordinator_;
  BatchVerifierOptions options_;
};

}  // namespace tao

#endif  // TAO_SRC_PROTOCOL_BATCH_VERIFIER_H_
