// BatchFormer: adaptive cohort sizing for the verification service.
//
// The PR-2 marketplace sized every batch from one config knob (`verify_batch_size`).
// That knob is wrong in both directions under open-ended traffic: too small and the
// cohort's lanes cannot fill the machine when the queue is deep; too large and a
// burst of supervised claims blows the working set. The BatchFormer replaces it with
// a policy driven by two live signals:
//
//   * queue depth — a deep queue asks for wide cohorts (throughput), a shallow one
//     for narrow cohorts (latency: don't hold the first claim hostage waiting to
//     fill a bus);
//   * a memory budget — the per-claim working-set estimate is learned online from
//     TensorArena high-water marks (Stats::peak_outstanding_bytes) observed on past
//     cohorts, and the next cohort is capped so that it plus the claims already in
//     flight stay inside `memory_budget_bytes`.
//
// The config knob survives only as `initial_hint`: the cap used before the first
// arena observation exists. Sizing never affects outcomes — per-claim results are
// batch-composition-independent (see docs/batching.md), so this policy is free to be
// as adaptive as it likes.

#ifndef TAO_SRC_SERVICE_BATCH_FORMER_H_
#define TAO_SRC_SERVICE_BATCH_FORMER_H_

#include <cstdint>
#include <mutex>

namespace tao {

struct BatchFormerOptions {
  // Cohort-size cap until the first memory observation arrives (the demoted
  // `verify_batch_size`). <= 0 disables the pre-observation cap.
  int64_t initial_hint = 16;
  int64_t min_batch = 1;
  int64_t max_batch = 64;
  // Target ceiling for the batch-execution working set (this cohort plus claims
  // already in flight), enforced through the learned per-claim estimate. Only the
  // INITIAL budget: the serving gateway (src/registry/) re-apportions one global
  // budget across hot models at runtime via set_memory_budget().
  int64_t memory_budget_bytes = 256ll << 20;
};

class BatchFormer {
 public:
  explicit BatchFormer(BatchFormerOptions options);

  // Size for the next cohort given the current queue depth and the number of claims
  // already popped but not yet resolved. Always in [min_batch, max_batch].
  int64_t NextBatchSize(int64_t queue_depth, int64_t in_flight_claims) const;

  // Feeds back one executed cohort's arena high-water mark. `peak_bytes <= 0` (no
  // arena ran, e.g. reuse_buffers off) leaves the estimate untouched.
  void ObserveBatch(int64_t batch_size, int64_t peak_bytes);

  // Smoothed per-claim working-set estimate; 0 until the first observation.
  int64_t per_claim_bytes_estimate() const;

  // Live memory-budget knob (gateway apportionment). Sizing is outcome-free (see
  // docs/batching.md), so the budget may move at any time without a determinism
  // cost; the next NextBatchSize call sees the new ceiling.
  void set_memory_budget(int64_t bytes);
  int64_t memory_budget() const;

 private:
  const BatchFormerOptions options_;
  mutable std::mutex mu_;
  double per_claim_bytes_ = 0.0;
  int64_t memory_budget_bytes_;  // guarded by mu_
};

}  // namespace tao

#endif  // TAO_SRC_SERVICE_BATCH_FORMER_H_
