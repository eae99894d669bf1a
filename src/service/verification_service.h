// VerificationService: the always-on, in-process front-end that turns the PR-2
// batch machinery into a served system. Any number of client threads submit claims;
// the service owns admission, adaptive batching, dispatch, dispute escalation, and
// verdict delivery.
//
// Pipeline (see docs/service.md and docs/coordinator.md for the full architecture
// and determinism argument):
//
//   clients ──Submit──▶ SubmissionQueue ──PopUpTo──▶ verify workers ──▶ per-shard
//             (bounded,    (FIFO, global     (N threads; BatchFormer    reorder
//              fairness,    sequence)         sizes each cohort;        buffers
//              SLO gate)                      BatchVerifier phase 1)      │
//                                                    resolve lane 0 ──▶ delivery
//                                                    resolve lane 1 ──▶ (ordered or
//                                                    ...     lane S-1 ──▶ unordered)
//
//   * Verify workers run only coordinator-free work: the batched phase-1 run, the
//     threshold checks, and each flagged claim's full re-execution and dispute plan
//     (one pool task per flagged claim). Any number of workers can execute cohorts
//     concurrently.
//   * There is ONE resolve lane per coordinator shard (the service derives the lane
//     count from Coordinator::num_shards()). A submission with global sequence s
//     belongs to lane s % S; lane k posts every coordinator action for its claims —
//     for a flagged claim, the moves of its planned dispute — in ITS claims'
//     submission order, against coordinator shard k. Shards are fully isolated (own
//     lock, clock, gas, ledger), so lanes never contend, and a lane spends
//     O(rounds) coordinator calls on a dispute, not the dispute's work. Per-shard in-order resolution is what makes each
//     shard's verdicts, per-claim gas, C0 digests, claim ids, and ledger a bitwise
//     function of that shard's submission subsequence alone, for ANY worker count
//     and ANY batch sizing. With one shard this is exactly the historical global
//     guarantee: bitwise identity with the sequential PR-1 path.
//   * Verdict delivery: by default tickets are released in GLOBAL submission order
//     (head-of-line: a long dispute on any lane delays later claims' delivery, but
//     not their resolution). `unordered_delivery` opts out: each verdict is
//     delivered the moment its lane resolves it. Coordinator state is untouched by
//     delivery order, so the per-shard determinism invariant holds either way.
//   * The reorder window (`max_unresolved`) bounds executed-but-undelivered claims,
//     so a dispute burst backpressures the workers (and, through the bounded queue,
//     the clients) instead of accumulating unbounded phase-1 results.
//   * Admission can additionally shed on a latency target (`latency_slo_ms`): when
//     the recent-window p99 enqueue→verdict latency exceeds the SLO while work is
//     in flight, Submit() rejects even though the queue has room — queueing more
//     work a client will consider timed out only wastes verification capacity.

#ifndef TAO_SRC_SERVICE_VERIFICATION_SERVICE_H_
#define TAO_SRC_SERVICE_VERIFICATION_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/service/batch_former.h"
#include "src/service/metrics.h"
#include "src/service/submission_queue.h"

namespace tao {

struct ServiceOptions {
  // Verify workers (dedicated threads running batched phase 1). Each cohort runs its
  // lanes as tasks on the shared runtime pool, up to `verifier.dispute.num_threads`
  // at once, so a cohort of one claim runs on one core (its operators fork only at
  // kMinForkFlops). More workers run more cohorts at once and overlap cohort
  // setup/teardown and dispute plans.
  int num_workers = 1;
  size_t queue_capacity = 256;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  // Bounds one submitter's resident queue share (0 = off). See SubmissionQueue.
  size_t per_submitter_cap = 0;
  // Cap on claims popped from the queue whose verdicts have not been delivered yet
  // (the window between workers and the resolve lanes). 0 = 4x max_batch.
  size_t max_unresolved = 0;
  // Deliver each verdict as soon as its lane resolves it, instead of holding
  // delivery to global submission order. Per-shard outcomes, gas, ledgers, and
  // claim ids are identical either way; only the order tickets unblock changes.
  bool unordered_delivery = false;
  // Latency-target admission (0 = off): shed (reject) submissions while the p99
  // enqueue→verdict latency over the recent-verdict window (kSloLatencyWindow)
  // exceeds this many milliseconds AND work is in flight. Applies before the
  // queue-capacity policy and to both admission policies. The busy requirement is
  // what keeps the gate from latching after a burst: an idle service always
  // admits, and the fresh verdicts re-age the window.
  double latency_slo_ms = 0.0;
  // The SLO gate stays open until this many verdicts have been delivered (a p99
  // over a handful of samples is noise, and a cold service must be allowed to warm).
  int64_t slo_min_observations = 32;
  BatchFormerOptions batching;
  BatchVerifierOptions verifier;
};

class VerificationService {
 public:
  // The service starts its threads immediately and serves until Drain()/destruction.
  // `coordinator` outlives the service; verdicts settle against it. The service runs
  // one resolve lane per coordinator shard.
  VerificationService(const Model& model, const ModelCommitment& commitment,
                      const ThresholdSet& thresholds, Coordinator& coordinator,
                      ServiceOptions options = {});
  ~VerificationService();

  VerificationService(const VerificationService&) = delete;
  VerificationService& operator=(const VerificationService&) = delete;

  // Submits one claim. Returns the ticket to wait on, or null when the submission
  // was rejected (queue full under kReject, p99 over the latency SLO, or the
  // service is draining). `submitter` identifies the client for fairness.
  std::shared_ptr<ClaimTicket> Submit(BatchClaim claim, uint64_t submitter = 0);

  // Graceful drain: closes admission, then blocks until every accepted claim has
  // its verdict delivered. Idempotent; the destructor calls it.
  void Drain();

  // Live metrics; callable from any thread while the service runs.
  MetricsSnapshot metrics() const;

  size_t num_lanes() const { return lanes_.size(); }

  // Current admission-queue depth (the gateway's hotness signal; cheap).
  size_t queue_depth() const { return queue_.depth(); }

  // Re-points the BatchFormer's memory ceiling (the serving gateway apportions one
  // global budget across hot models). Batch sizing never affects outcomes, so this
  // is safe at any time while the service runs.
  void SetMemoryBudget(int64_t bytes) { former_.set_memory_budget(bytes); }
  int64_t memory_budget() const { return former_.memory_budget(); }

 private:
  struct PendingResolution {
    SubmissionRecord record;
    ClaimPhase1 phase1;
    int64_t handoff_ns = 0;  // tracing: when the worker parked it for the lane
  };

  // A resolved claim parked until global submission order lets it deliver
  // (ordered-delivery mode only). Carries the enqueue stamp, not a latency:
  // head-of-line park time is client-visible latency and is metered at delivery.
  struct PendingDelivery {
    std::shared_ptr<ClaimTicket> ticket;
    BatchClaimOutcome outcome;
    std::chrono::steady_clock::time_point enqueue_time{};
    int64_t parked_ns = 0;  // tracing: when the lane finished resolving it
  };

  // One resolve lane: the per-shard slice of the reorder buffer plus its thread's
  // wake-up signal. Lane k owns the claims whose global sequence ≡ k (mod lanes).
  struct LaneState {
    std::condition_variable cv;     // lane thread waits for its next sequence
    std::map<uint64_t, PendingResolution> ready;  // keyed by global sequence
    uint64_t resolved = 0;          // claims this lane has resolved so far
  };

  void WorkerLoop(size_t worker);
  void LaneLoop(size_t lane);
  // Delivers every consecutively-deliverable verdict. Caller holds mu_; returns the
  // number delivered so the caller can notify the window/drain waiters.
  size_t FlushOrderedDeliveriesLocked();

  const ServiceOptions options_;
  const size_t max_unresolved_;
  // The model's coordinator (also held by verifier_): metrics() samples its
  // durability counters so the per-model snapshot carries the changelog gauges.
  Coordinator& coordinator_;
  BatchVerifier verifier_;
  SubmissionQueue queue_;
  BatchFormer former_;
  MetricsRegistry metrics_;

  // Guards the lane buffers, the delivery buffer, and the pipeline gauges below.
  // The bookkeeping under it is a few map operations — resolution and execution
  // always happen outside it.
  mutable std::mutex mu_;
  std::condition_variable window_cv_;   // workers wait for reorder-window room
  std::condition_variable drained_cv_;  // Drain() waits for full delivery
  std::vector<std::unique_ptr<LaneState>> lanes_;
  std::map<uint64_t, PendingDelivery> deliverable_;  // ordered mode only
  uint64_t next_deliver_seq_ = 0;  // ordered mode: next global sequence to release
  uint64_t delivered_ = 0;         // verdicts delivered (any mode)
  size_t unresolved_ = 0;  // popped from the queue, verdict not yet delivered
  bool draining_ = false;

  std::vector<std::thread> workers_;
  std::vector<std::thread> lane_threads_;
};

}  // namespace tao

#endif  // TAO_SRC_SERVICE_VERIFICATION_SERVICE_H_
