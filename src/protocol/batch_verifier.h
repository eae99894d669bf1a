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
// threshold check runs right after the batched phase 1; only for the claims it FLAGS
// is the proposer's full trace lazily re-executed (bitwise identical to the lane
// execution, per the runtime determinism contract), because only a dispute needs to
// post partition interface values from interior nodes.
//
// The claim lifecycle is split into two independently callable halves so the service
// layer (src/service/) can pipeline them:
//   * ExecutePhase1: the batched run + threshold checks + lazy re-execution. Touches
//     no coordinator state, so cohorts from different workers can execute
//     concurrently.
//   * ResolveClaim: one claim's coordinator interaction (submission, window,
//     dispute game). Callers choose the resolution order; resolving claims in
//     submission order replays the historical sequential path bitwise.
// VerifyBatch composes the two. By default resolution runs in claim order, one claim
// at a time — exactly the historical sequential path (DisputeGame::Run per
// supervised claim, submit/finalize per unsupervised claim), so verdicts, per-claim
// gas, digests, claim ids, stats, and the ledger are bitwise identical to it. With
// `concurrent_disputes`, flagged claims instead fan their dispute games out across
// the pool: verdicts, digests, and per-claim gas are unchanged (the runtime is
// bitwise deterministic and gas is metered per claim), while ledger *ordering* —
// not its conservation — may differ.

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
  // Full dispute statistics; populated for supervised claims (mirrors what
  // DisputeGame::Run would have returned for this claim).
  DisputeResult dispute;
};

// Everything phase 1 produced for one claim: the result commitment, the threshold
// verdict, and the execution results ResolveClaim later feeds to the dispute
// pipeline. Holding one of these retains the claim's inputs/outputs — and, for
// flagged claims only, the full proposer trace.
struct ClaimPhase1 {
  Digest c0{};
  bool supervised = false;
  // The output threshold check's verdict (meaningful only when supervised). The
  // check is deterministic, so it is evaluated once here and passed through.
  bool flagged = false;
  // The lazily re-executed FULL proposer trace, populated ONLY for flagged claims —
  // the dispute game posts partition interface values from interior nodes. Unflagged
  // claims resolve from c0/challenger_output alone, so their lane traces are dropped
  // rather than parked in the service's reorder buffer.
  ExecutionTrace proposer_trace;
  // The supervising verifier's re-executed output (unset when unsupervised).
  Tensor challenger_output;
};

struct BatchVerifierOptions {
  // Dispute policy for flagged claims. `dispute.num_threads` also sets how many of
  // the batched phase 1's lanes run at once, and `dispute.challenge_window` /
  // `proposer_bond` govern unsupervised submissions.
  DisputeOptions dispute;
  // Recycle dead intermediates of output-only lanes through one shared TensorArena.
  bool reuse_buffers = false;
  // Fan flagged claims' dispute games out across the pool instead of resolving them
  // in claim order. Per-claim outcomes are identical; ledger ordering is not.
  bool concurrent_disputes = false;
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

  // The cohort's batched phase 1 only: one batched run of every lane, per-claim
  // C0 epilogues, output threshold checks, and the lazy full re-execution of flagged
  // claims' proposer traces. Touches no coordinator state — safe to call from
  // concurrent service workers sharing this verifier.
  std::vector<ClaimPhase1> ExecutePhase1(const std::vector<BatchClaim>& claims,
                                         TensorArena::Stats* arena_stats = nullptr);

  // One claim's coordinator interaction, fed by its phase-1 results: the
  // commit-and-finalize path for unsupervised claims, DisputeGame::RunFromPhase1 for
  // supervised ones. `shard` homes the claim on the (sharded) coordinator — the
  // service's per-shard resolve lanes pass their lane index so each lane's claims
  // live in their own shard. Calls for distinct claims may come from any thread; the
  // bitwise-sequential-ledger guarantee holds per shard when each shard's claims
  // resolve one at a time in that shard's submission order (with one shard that is
  // exactly the historical global guarantee).
  BatchClaimOutcome ResolveClaim(const BatchClaim& claim, const ClaimPhase1& phase1,
                                 uint64_t shard = 0);

 private:
  BatchClaimOutcome ResolveClaimWithOptions(const BatchClaim& claim,
                                            const ClaimPhase1& phase1,
                                            const DisputeOptions& dispute_options);

  const Model& model_;
  const ModelCommitment& commitment_;
  const ThresholdSet& thresholds_;
  Coordinator& coordinator_;
  BatchVerifierOptions options_;
};

}  // namespace tao

#endif  // TAO_SRC_PROTOCOL_BATCH_VERIFIER_H_
