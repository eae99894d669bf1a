// Fixed-size reusable worker pool — the single source of threads for the whole
// runtime layer. Both levels of parallelism share it: the executor runs a cohort's
// lanes as tasks of one ParallelFor, and an operator of at least kMinForkFlops splits
// its outer loop with a ParallelFor nested inside its lane's task. Sharing one pool
// keeps total thread count fixed no matter how the two levels nest.
//
// Deadlock-freedom contract: a pool task MAY block, but only on work that some
// actively running thread is already executing — never on a task that is still
// queued. ParallelFor achieves this by having every waiter first drain chunks
// itself, so it waits only for chunks in flight on other threads. A lane task that
// forks an operator is such a waiter. Every wait chain therefore bottoms out at a
// thread doing pure compute, so no cycle of queued-but-unstarted dependencies can
// form. New runtime primitives must preserve this property: submitting a task and
// then blocking until it STARTS is the one pattern that can deadlock a fixed pool.

#ifndef TAO_SRC_RUNTIME_THREAD_POOL_H_
#define TAO_SRC_RUNTIME_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tao {

class ThreadPool {
 public:
  // Spawns exactly `num_workers` threads (>= 0). Workers live until destruction.
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `fn` for execution by some worker. Never blocks.
  void Submit(std::function<void()> fn);

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Tasks queued but not yet claimed by a worker (monitoring gauge).
  size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

  // Process-wide shared pool, created on first use. Sized so that even a
  // single-core CI box can genuinely exercise `num_threads = 8` execution paths:
  // max(hardware_concurrency, 8) - 1 workers (the caller thread is the +1).
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace tao

#endif  // TAO_SRC_RUNTIME_THREAD_POOL_H_
