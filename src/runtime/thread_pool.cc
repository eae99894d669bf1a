#include "src/runtime/thread_pool.h"

#include <algorithm>
#include <utility>

namespace tao {

ThreadPool::ThreadPool(int num_workers) {
  workers_.reserve(static_cast<size_t>(std::max(num_workers, 0)));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stop requested and queue drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(
      static_cast<int>(std::max(std::thread::hardware_concurrency(), 8u)) - 1);
  return pool;
}

}  // namespace tao
