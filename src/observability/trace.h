// Per-claim span tracing for the serving pipeline (docs/observability.md).
//
// Every claim admitted by a VerificationService leaves a chain of timestamped
// spans across its whole lifecycle — submit/admit, queue wait, batch formation,
// batched phase-1 execution, threshold check (holding a flagged claim's dispute
// rounds), resolve-lane wait, resolve, verdict delivery — tagged with the claim's
// model id, global submission sequence, coordinator claim id (once assigned),
// shard, and verify-worker index.
//
// The hot path is built to be invisible to the pipeline it observes:
//
//   * recording is OFF by default; the only cost at every span site is one
//     relaxed atomic load (`Tracer::enabled()`);
//   * when ON, a span costs one steady-clock read plus one slot write into the
//     recording thread's OWN bounded ring buffer, published with a release store
//     — no mutex, no allocation, no syscall, ever, on any recording path;
//   * a full ring DROPS the span (counted) instead of blocking or growing.
//
// Spans are observation-only by construction: no instrumented layer branches on
// tracer state except to skip recording, so verdicts, gas, digests, claim ids,
// and ledgers are bitwise identical with tracing on or off (asserted by
// tests/observability_test.cc).
//
// Ring drain protocol (SPSC): the owning thread is the only producer; a drain —
// serialized by the tracer's registry mutex — is the only consumer. The producer
// writes the slot then advances `head` with a release store; the consumer
// acquires `head`, copies slots `tail..head`, then advances `tail` with a release
// store the producer acquires before reusing a slot. Rings are never deallocated
// while the process lives, so a thread's ring outlives the thread.

#ifndef TAO_SRC_OBSERVABILITY_TRACE_H_
#define TAO_SRC_OBSERVABILITY_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace tao {

// Pipeline stage a span measures. Kinds appear at most once per claim, except
// kDisputeRound (one per round) — the chain order below is the claim lifecycle,
// except that kDisputeRound spans lie inside kThresholdCheck.
enum class SpanKind : uint8_t {
  kSubmit,          // admission: Submit() entry -> sequence assigned
  kQueueWait,       // admission -> popped by a verify worker
  kBatchForm,       // worker: window gate + batch sizing + queue pop
  kPhase1,          // batched phase-1 run, one pool task per lane (cohort interval)
  kThresholdCheck,  // output threshold check; when flagged, through the re-exec
                    // and dispute plan (supervised only)
  kResolveWait,     // handed to the resolve lane -> lane picked it up
  kResolve,         // the lane's coordinator actions (a dispute's planned moves)
  kDisputeRound,    // one planned dispute round, inside kThresholdCheck (detail =
                    // round index; claim_id comes from kResolve)
  kDeliver,         // resolved -> verdict delivered (ordered-mode park included)
};

const char* SpanKindName(SpanKind kind);

inline constexpr uint32_t kNoIndex = 0xffffffffu;

// One recorded span. Timestamps are steady-clock nanoseconds since the process
// tracer's origin (Tracer::NowNs).
struct SpanRecord {
  uint64_t model = 0;     // owning model (0 = standalone coordinator)
  uint64_t sequence = 0;  // service global submission sequence (trace key)
  uint64_t claim_id = 0;  // coordinator claim id; 0 until assigned
  uint32_t shard = kNoIndex;   // resolve lane / coordinator shard
  uint32_t worker = kNoIndex;  // verify-worker index
  SpanKind kind = SpanKind::kSubmit;
  int64_t detail = 0;  // kind-specific: cohort size, flagged, round index
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

// Identity of the claim the current thread is working on, published by the
// service layer so layers below it (batch verifier, dispute plan) can record
// spans without threading ids through every protocol API.
struct TraceContext {
  uint64_t model = 0;
  uint64_t sequence = 0;
  uint32_t shard = kNoIndex;
  uint32_t worker = kNoIndex;
};

// Scoped thread-local publication of the claim context(s) the current thread is
// driving. A verify worker publishes its whole cohort (indexed by claim position)
// around ExecutePhase1; a task planning one flagged claim's dispute publishes
// exactly that claim's context. Nested scopes restore the previous publication on
// destruction.
class ScopedTraceContext {
 public:
  ScopedTraceContext(const TraceContext* contexts, size_t count);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

  // Context of cohort position `index` on this thread; null when nothing is
  // published (standalone protocol drivers) or the index is out of range.
  static const TraceContext* At(size_t index);
  // The single-claim context (At(0)).
  static const TraceContext* Current();

 private:
  const TraceContext* previous_contexts_;
  size_t previous_count_;
};

// Lock-free bounded SPSC ring of spans: the owning thread produces, a drain
// (serialized by the Tracer) consumes. Full ring = drop + count.
class SpanRing {
 public:
  static constexpr size_t kCapacity = 4096;  // power of two

  // Producer side (owning thread only).
  void Push(const SpanRecord& span);
  // Consumer side (one drainer at a time). Appends drained spans to `out`.
  size_t DrainInto(std::vector<SpanRecord>& out);

  int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  std::array<SpanRecord, kCapacity> slots_;
  std::atomic<uint64_t> head_{0};  // next slot to write (producer-owned)
  std::atomic<uint64_t> tail_{0};  // next slot to read (consumer-owned)
  std::atomic<int64_t> dropped_{0};
};

// Process-wide tracer: the registry of per-thread rings plus the global on/off
// switch. Get() never destructs (threads may record during static teardown).
class Tracer {
 public:
  static Tracer& Get();

  // Cheap hot-path check — every span site guards on this.
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  // Records one span into the calling thread's ring (registering the ring on
  // first use). No-op when disabled.
  static void Record(const SpanRecord& span);

  // Steady-clock nanoseconds since the tracer origin.
  static int64_t NowNs();
  static int64_t ToNs(std::chrono::steady_clock::time_point tp);

  // Drains every registered ring (appending to `out`); returns spans drained.
  // Serialized internally; safe from any thread.
  size_t Drain(std::vector<SpanRecord>& out);

  int64_t spans_recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  // Spans dropped on full rings, folded across every ring.
  int64_t spans_dropped() const;

 private:
  Tracer();
  SpanRing* RegisterRing();

  static std::atomic<bool> enabled_;
  const std::chrono::steady_clock::time_point origin_;
  std::atomic<int64_t> recorded_{0};

  std::mutex mu_;  // guards rings_ (registration + drain)
  std::vector<std::unique_ptr<SpanRing>> rings_;
};

// -------------------------------------------------------------------------------------
// TraceCollector: folds drained spans into per-claim chains with a slow-claim
// retention policy, and exports them.

struct TraceCollectorOptions {
  // A completed claim whose submit->deliver latency is at least this keeps its
  // full span chain in the slow store; faster claims ride the small recent ring
  // and age out. 0 retains everything (tests, the demo).
  double slow_claim_ms = 50.0;
  size_t max_slow_claims = 128;    // bounded slow store (oldest evicted)
  size_t max_recent_claims = 32;   // bounded recent-completed ring
  size_t max_open_claims = 1024;   // chains still missing their delivery span
};

// One claim's assembled span chain.
struct ClaimTrace {
  uint64_t model = 0;
  uint64_t sequence = 0;
  uint64_t claim_id = 0;           // 0 if no resolving span arrived
  int64_t begin_ns = 0;            // min span begin
  int64_t end_ns = 0;              // max span end
  bool complete = false;           // delivery span seen
  std::vector<SpanRecord> spans;   // sorted by begin_ns

  double latency_ms() const {
    return static_cast<double>(end_ns - begin_ns) / 1e6;
  }
  bool has(SpanKind kind) const;
};

class TraceCollector {
 public:
  explicit TraceCollector(TraceCollectorOptions options = {});

  // Drains the tracer and folds the new spans into chains. Call at will; the
  // exporters below poll internally.
  void Poll();

  // Retained chains: every slow claim (newest first), then the recent ring.
  std::vector<ClaimTrace> Traces() const;

  // chrome://tracing JSON ("traceEvents" array of complete "X" events; pid =
  // model, tid = shard/worker).
  std::string ChromeTraceJson();
  // Compact per-claim text table (one line per span).
  std::string TextTable();

  int64_t spans_folded() const;
  int64_t claims_completed() const;
  int64_t late_spans() const;  // spans for already-finalized chains (dropped)

 private:
  using Key = std::pair<uint64_t, uint64_t>;  // (model, sequence)

  void FoldLocked(const SpanRecord& span);
  void FinalizeLocked(Key key);
  void MarkClosedLocked(const Key& key);

  const TraceCollectorOptions options_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> scratch_;
  std::map<Key, ClaimTrace> open_;
  // Bounded FIFO memory of finalized/evicted keys, so a straggler span for a
  // closed chain is counted late and dropped instead of re-opening a ghost chain.
  std::set<Key> closed_;
  std::deque<Key> closed_fifo_;
  std::deque<ClaimTrace> slow_;    // newest at front
  std::deque<ClaimTrace> recent_;  // newest at front
  int64_t spans_folded_ = 0;
  int64_t claims_completed_ = 0;
  int64_t late_spans_ = 0;
};

}  // namespace tao

#endif  // TAO_SRC_OBSERVABILITY_TRACE_H_
