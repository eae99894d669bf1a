// Data parallelism over an index range: splits [0, n) into contiguous chunks executed
// across the shared pool. The executor uses it at two levels: over a cohort's lanes
// (one chunk runs whole claims) and, inside a lane, over the outer loop of an
// operator of at least kMinForkFlops. The calling thread participates: it claims
// chunks from a shared atomic cursor exactly like the pool helpers do, so the loop
// completes even if every pool thread is busy — which is what makes an operator's
// ParallelFor nested inside a lane task (both on the same pool) deadlock-free.
//
// Bitwise determinism: chunk boundaries only partition loop indices across threads;
// each index writes its own disjoint output range, so results are identical for any
// thread count (the paper's trace-commitment invariant relies on this).

#ifndef TAO_SRC_RUNTIME_PARALLEL_FOR_H_
#define TAO_SRC_RUNTIME_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>

namespace tao {

class ThreadPool;

// Smallest graph operator, in FLOPs, whose kernel receives a ParallelFor handle
// (Executor::RunBatch and ExecuteSlice); smaller operators run on their lane's thread.
// An empty-body width-4 ParallelFor on the shared pool costs 11-13 us on a 4-vCPU
// AVX2 host (bench_executor_scaling prints the median): the single-threaded time of
// 0.07-0.22 MFLOP of linear at BERT-mini's shapes (5.6-17 GFLOP/s, bench_micro_ops).
// At 1 MFLOP the fork is a tenth to a fifth of the operator's own time, so splitting
// the rest pays. Every BERT-mini (at most 0.22 MFLOP) and ResNet-mini (at most 0.44
// MFLOP) operator stays on its lane; forking all 99 of BERT-mini's costs 1-1.5 ms per
// forward. WideMlp's 16384-wide first layer (2.1 MFLOP at 64 hidden units) still
// forks.
inline constexpr int64_t kMinForkFlops = 1'000'000;

class ParallelFor {
 public:
  // `pool` may be null (everything runs inline on the caller). `max_parallelism` caps
  // how many threads (caller included) work on one loop; <= 1 means sequential.
  ParallelFor(ThreadPool* pool, int max_parallelism)
      : pool_(pool), max_parallelism_(max_parallelism) {}

  // Sequential fallback handle.
  ParallelFor() : ParallelFor(nullptr, 1) {}

  // Invokes fn(begin, end) over disjoint ranges covering [0, n). Blocks until every
  // range completed. `grain` is the minimum chunk width worth shipping to a thread.
  void operator()(int64_t n, const std::function<void(int64_t, int64_t)>& fn,
                  int64_t grain = 1) const;

  int max_parallelism() const { return max_parallelism_; }

 private:
  ThreadPool* pool_;
  int max_parallelism_;
};

// Fork-join over exactly two independent closures: runs `a` and `b` concurrently on
// the pool (caller executes one lane itself) and returns when both finished. With a
// null pool, runs them sequentially. The protocol layer uses this for proposer-vs-
// challenger lanes (dispute phase 1, decode pairs).
void ParallelInvoke(ThreadPool* pool, const std::function<void()>& a,
                    const std::function<void()>& b);

}  // namespace tao

#endif  // TAO_SRC_RUNTIME_PARALLEL_FOR_H_
