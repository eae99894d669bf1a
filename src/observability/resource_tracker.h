// Per-worker resource tracker (docs/observability.md).
//
// Pipeline threads (verify workers, resolve lanes, samplers) register themselves
// with RAII `ScopedThread` guards; a background sampler thread — the ytsaurus
// resource_tracker shape — periodically reads each registered thread's CPU clock
// (`pthread_getcpuclockid` + `CLOCK_THREAD_CPUTIME_ID` semantics) so the last
// sample is always fresh even if nobody is polling. `Counters()` folds the live
// per-thread readings, process arena bytes (TensorArena's process-wide gauges),
// and registered external gauges (e.g. the runtime pool's depth) into `worker/<n>/...`,
// `lane/<n>/...`, and `resource/...` NamedCounters for the monitoring endpoint.
//
// Safety: a thread's clock id is only valid while the thread lives, so the guard's
// destructor takes a final self-sample and marks the slot dead under the tracker
// mutex BEFORE the thread exits; the sampler only reads slots marked alive, under
// the same mutex. Slots are recycled per role (a new "worker" takes over the
// lowest dead "worker" ordinal, accumulating its predecessor's CPU), so ordinals
// like worker/0 stay stable across service restarts in one process.

#ifndef TAO_SRC_OBSERVABILITY_RESOURCE_TRACKER_H_
#define TAO_SRC_OBSERVABILITY_RESOURCE_TRACKER_H_

#include <pthread.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/service/metrics.h"

namespace tao {

class ResourceTracker {
 public:
  // One registered thread's latest reading.
  struct ThreadSample {
    std::string name;        // "<role>/<ordinal>", e.g. "worker/0"
    double cpu_seconds = 0;  // accumulated: finished occupants + live occupant
    bool alive = false;
  };

  // Registers the calling thread under `role` for its lifetime. Construct at the
  // top of the thread body, on the thread's own stack.
  class ScopedThread {
   public:
    explicit ScopedThread(const std::string& role);
    ~ScopedThread();

    ScopedThread(const ScopedThread&) = delete;
    ScopedThread& operator=(const ScopedThread&) = delete;

    const std::string& name() const { return name_; }

   private:
    size_t slot_ = 0;
    std::string name_;
  };

  static ResourceTracker& Get();

  // Refreshes live slots from their thread clocks and returns every slot.
  std::vector<ThreadSample> Sample();

  // Named gauge sampled at Counters() time (queue depths, pool depth, ...).
  // Returns a handle for Unregister; the callback must stay valid until then.
  size_t RegisterGauge(std::string name, std::function<double()> gauge);
  void UnregisterGauge(size_t handle);

  // Background sampler thread; idempotent. The sampler registers itself under
  // the "sampler" role, so it appears in its own output.
  void StartSampler(std::chrono::milliseconds period);
  void StopSampler();
  bool sampler_running() const;

  // worker/<n>/cpu_seconds (+ other roles), resource/... fold, and gauges.
  std::vector<NamedCounter> Counters();

  int64_t samples_taken() const;
  size_t threads_alive() const;
  size_t threads_registered() const;

 private:
  struct Slot {
    std::string role;
    size_t ordinal = 0;
    clockid_t clock{};
    bool alive = false;
    double dead_seconds = 0;  // CPU accumulated by finished occupants
    double live_seconds = 0;  // last sample of the current occupant
  };
  struct Gauge {
    size_t handle = 0;
    std::string name;
    std::function<double()> fn;
  };

  ResourceTracker() = default;
  ~ResourceTracker() = delete;  // leaked singleton; threads may outlive statics

  void SampleLocked();
  void SamplerLoop(std::chrono::milliseconds period);

  size_t Register(const std::string& role, std::string* name);
  void Deregister(size_t slot);

  mutable std::mutex mu_;
  std::condition_variable sampler_cv_;
  std::vector<Slot> slots_;
  std::vector<Gauge> gauges_;
  size_t next_gauge_handle_ = 1;
  int64_t samples_taken_ = 0;
  bool sampler_stop_ = false;
  bool sampler_running_ = false;
  std::thread sampler_;
};

}  // namespace tao

#endif  // TAO_SRC_OBSERVABILITY_RESOURCE_TRACKER_H_
