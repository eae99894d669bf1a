// TensorArena: a recycling allocator for intermediate tensors.
//
// The executor's liveness pass (per-lane consumer counts over the canonical
// topological order) hands a node's output buffer back to the arena once its last
// consumer has executed and the value is not retained by the caller; the next
// allocation of equal element count adopts that buffer instead of touching the system
// allocator. Buffers are recycled only when uniquely owned, so any tensor still
// aliased by a trace, a cache, or a commitment keeps its storage untouched.
//
// Bitwise determinism: the arena changes *where* a value lives, never the value —
// kernels fully overwrite the adopted buffer before it is published.
//
// Thread safety: all methods are safe to call concurrently; the lanes of one batched
// run share one arena from different pool threads.

#ifndef TAO_SRC_RUNTIME_ARENA_H_
#define TAO_SRC_RUNTIME_ARENA_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/tensor/tensor.h"

namespace tao {

class TensorArena {
 public:
  struct Stats {
    int64_t requests = 0;           // Allocate() calls
    int64_t pool_hits = 0;          // served by recycling a dead intermediate
    int64_t fresh_allocations = 0;  // served by the system allocator
    int64_t recycled = 0;           // buffers returned to the pool
    // Bytes currently handed out and not yet recycled back. Buffers whose Recycle
    // was a no-op (still aliased by a trace or commitment) stay counted — they are
    // still resident — as do retained outputs that are never offered back.
    int64_t outstanding_bytes = 0;
    // High-water mark of outstanding_bytes: the working-set peak of everything this
    // arena served. The service layer's BatchFormer derives its per-claim memory
    // estimate (and hence the adaptive batch-size cap) from this.
    int64_t peak_outstanding_bytes = 0;
  };

  // Returns a tensor of `shape`, reusing a pooled buffer of equal element count when
  // one exists. Reused buffers are NOT zeroed: callers (op kernels) must fully
  // overwrite every element before publishing, which all src/ops kernels do.
  Tensor Allocate(const Shape& shape);

  // Offers a dead intermediate back to the pool. The storage is kept only when the
  // tensor was its sole owner; otherwise this is a no-op (someone still reads it).
  void Recycle(Tensor&& dead);

  // FP64 twin of Allocate/Recycle, backed by a separate double pool. This is what
  // lets TRACE-RETAINING runs still recycle: values and bound results are all
  // retained there, but the per-chunk bound scratch and per-kernel workspaces the
  // kernels draw through BoundContext/OpContext die at chunk end and cycle through
  // these pools. Same non-zeroed contract; same stats counters (bytes count 8x).
  DTensor AllocateD(const Shape& shape);
  void Recycle(DTensor&& dead);

  Stats stats() const;

  // Process-wide fold of outstanding/peak bytes across EVERY arena instance, for
  // the resource tracker (a monitoring endpoint cannot enumerate arenas). The
  // global peak is a high-water mark of the global outstanding sum.
  static int64_t GlobalOutstandingBytes();
  static int64_t GlobalPeakBytes();

  // Drops every pooled buffer (stats are preserved).
  void Trim();

 private:
  mutable std::mutex mu_;
  // numel -> free storage blocks of exactly that many elements.
  std::unordered_multimap<int64_t, std::shared_ptr<std::vector<float>>> pool_;
  std::unordered_multimap<int64_t, std::shared_ptr<std::vector<double>>> dpool_;
  Stats stats_;
};

}  // namespace tao

#endif  // TAO_SRC_RUNTIME_ARENA_H_
