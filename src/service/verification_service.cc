#include "src/service/verification_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/device/simd.h"
#include "src/observability/resource_tracker.h"
#include "src/observability/trace.h"
#include "src/util/check.h"

namespace tao {
namespace {

size_t ResolveWindow(const ServiceOptions& options) {
  if (options.max_unresolved > 0) {
    return options.max_unresolved;
  }
  return static_cast<size_t>(4 * std::max<int64_t>(1, options.batching.max_batch));
}

}  // namespace

VerificationService::VerificationService(const Model& model,
                                         const ModelCommitment& commitment,
                                         const ThresholdSet& thresholds,
                                         Coordinator& coordinator, ServiceOptions options)
    : options_(std::move(options)),
      max_unresolved_(ResolveWindow(options_)),
      coordinator_(coordinator),
      verifier_(model, commitment, thresholds, coordinator, options_.verifier),
      queue_(options_.queue_capacity, options_.admission, options_.per_submitter_cap),
      former_(options_.batching) {
  TAO_CHECK(options_.num_workers >= 1) << "service needs at least one verify worker";
  // Record which kernel backend serves this host's commitments (once per process).
  LogSimdBackendOnce();
  // One resolve lane per coordinator shard: lane k is the only thread that ever
  // touches shard k, which is what makes each shard's history single-writer.
  const size_t num_lanes = coordinator.num_shards();
  lanes_.reserve(num_lanes);
  for (size_t lane = 0; lane < num_lanes; ++lane) {
    lanes_.push_back(std::make_unique<LaneState>());
  }
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
  lane_threads_.reserve(num_lanes);
  for (size_t lane = 0; lane < num_lanes; ++lane) {
    lane_threads_.emplace_back([this, lane] { LaneLoop(lane); });
  }
}

VerificationService::~VerificationService() {
  Drain();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  for (std::thread& lane : lane_threads_) {
    lane.join();
  }
}

std::shared_ptr<ClaimTicket> VerificationService::Submit(BatchClaim claim,
                                                         uint64_t submitter) {
  // Latency-target admission: once enough verdicts exist to trust the tail, shed
  // while the p99 over the recent-verdict window is over the SLO. Shedding ahead
  // of the queue turns an overloaded service into fast rejections instead of a
  // queue full of claims whose verdicts will arrive after every client gave up.
  // The busy guard (accepted > completed: work somewhere between admission and
  // delivery) is what makes the gate self-releasing: an idle service cannot be
  // over its SLO, so a past burst can never latch admission shut — the first
  // post-burst submission is admitted and its fresh verdict re-ages the window.
  if (options_.latency_slo_ms > 0.0) {
    const int64_t completed = metrics_.completed_count();
    if (completed >= options_.slo_min_observations &&
        metrics_.accepted_count() > completed &&
        metrics_.RecentLatencyPercentileMillis(0.99) > options_.latency_slo_ms) {
      metrics_.RecordSubmission(false);
      metrics_.RecordSloShed();
      return nullptr;
    }
  }
  const int64_t submit_begin = Tracer::enabled() ? Tracer::NowNs() : 0;
  auto ticket = std::make_shared<ClaimTicket>();
  SubmissionRecord record;
  record.claim = std::move(claim);
  record.submitter = submitter;
  record.enqueue_time = std::chrono::steady_clock::now();
  record.ticket = ticket;
  const SubmitStatus status = queue_.Push(std::move(record));
  metrics_.RecordSubmission(status == SubmitStatus::kAccepted);
  if (status != SubmitStatus::kAccepted) {
    return nullptr;
  }
  if (Tracer::enabled()) {
    SpanRecord span;
    span.model = coordinator_.model_id();
    span.sequence = ticket->sequence();
    span.kind = SpanKind::kSubmit;
    span.begin_ns = submit_begin;
    span.end_ns = Tracer::NowNs();
    Tracer::Record(span);
  }
  return ticket;
}

void VerificationService::WorkerLoop(size_t worker) {
  ResourceTracker::ScopedThread tracked("worker");
  const size_t num_lanes = lanes_.size();
  std::vector<char> lane_touched(num_lanes, 0);
  for (;;) {
    const int64_t form_begin = Tracer::enabled() ? Tracer::NowNs() : 0;
    // Reorder-window gate: don't pull new work while too many executed claims wait
    // for resolution/delivery (a dispute burst would otherwise pile up phase-1
    // results without bound). Room is RESERVED against unresolved_ before popping,
    // so the window bound holds even with several workers racing through the gate.
    // Draining bypasses the gate so shutdown cannot wedge (room 1 keeps progress).
    size_t take;
    {
      std::unique_lock<std::mutex> lock(mu_);
      window_cv_.wait(lock, [&] { return draining_ || unresolved_ < max_unresolved_; });
      const size_t room =
          unresolved_ < max_unresolved_ ? max_unresolved_ - unresolved_ : 1;
      const int64_t batch_size =
          former_.NextBatchSize(static_cast<int64_t>(queue_.depth()),
                                static_cast<int64_t>(unresolved_));
      take = std::min(static_cast<size_t>(batch_size), room);
      unresolved_ += take;
    }
    std::vector<SubmissionRecord> cohort = queue_.PopUpTo(take);
    if (cohort.size() < take) {
      // The queue had less than the reservation (or is closed): release the rest.
      std::lock_guard<std::mutex> lock(mu_);
      unresolved_ -= take - cohort.size();
      window_cv_.notify_all();
    }
    if (cohort.empty()) {
      return;  // queue closed and fully drained
    }
    metrics_.RecordDispatch(static_cast<int64_t>(cohort.size()));

    // Tracing: per-claim queue-wait and batch-formation spans, plus the cohort's
    // contexts published around phase 1 so the batch verifier can tag its
    // threshold-check and dispute-round spans without any API change. Observation
    // only.
    const bool tracing = Tracer::enabled();
    std::vector<TraceContext> contexts;
    if (tracing) {
      const int64_t now_ns = Tracer::NowNs();
      contexts.reserve(cohort.size());
      for (const SubmissionRecord& record : cohort) {
        SpanRecord span;
        span.model = coordinator_.model_id();
        span.sequence = record.sequence;
        span.shard = static_cast<uint32_t>(record.sequence % num_lanes);
        span.worker = static_cast<uint32_t>(worker);
        span.kind = SpanKind::kQueueWait;
        span.begin_ns = Tracer::ToNs(record.enqueue_time);
        span.end_ns = now_ns;
        Tracer::Record(span);
        span.kind = SpanKind::kBatchForm;
        span.detail = static_cast<int64_t>(cohort.size());
        span.begin_ns = form_begin;
        Tracer::Record(span);
        contexts.push_back({span.model, span.sequence, span.shard, span.worker});
      }
    }

    // Tensors share storage, so building the claim view of the cohort is cheap.
    std::vector<BatchClaim> claims;
    claims.reserve(cohort.size());
    for (const SubmissionRecord& record : cohort) {
      claims.push_back(record.claim);
    }
    TensorArena::Stats arena_stats;
    const int64_t phase1_begin = tracing ? Tracer::NowNs() : 0;
    std::vector<ClaimPhase1> phase1;
    {
      ScopedTraceContext scope(contexts.data(), contexts.size());
      phase1 = verifier_.ExecutePhase1(claims, &arena_stats);
    }
    if (tracing) {
      const int64_t now_ns = Tracer::NowNs();
      for (const TraceContext& context : contexts) {
        SpanRecord span;
        span.model = context.model;
        span.sequence = context.sequence;
        span.shard = context.shard;
        span.worker = context.worker;
        span.kind = SpanKind::kPhase1;
        span.detail = static_cast<int64_t>(cohort.size());
        span.begin_ns = phase1_begin;
        span.end_ns = now_ns;
        Tracer::Record(span);
      }
    }
    former_.ObserveBatch(static_cast<int64_t>(cohort.size()),
                         arena_stats.peak_outstanding_bytes);

    // Hand each claim to the lane owning its sequence (lane = sequence mod lanes).
    const int64_t handoff_ns = tracing ? Tracer::NowNs() : 0;
    std::fill(lane_touched.begin(), lane_touched.end(), 0);
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < cohort.size(); ++i) {
        const uint64_t sequence = cohort[i].sequence;
        const size_t lane = static_cast<size_t>(sequence % num_lanes);
        lanes_[lane]->ready.emplace(
            sequence, PendingResolution{std::move(cohort[i]), std::move(phase1[i]),
                                        handoff_ns});
        lane_touched[lane] = 1;
      }
    }
    for (size_t lane = 0; lane < num_lanes; ++lane) {
      if (lane_touched[lane]) {
        lanes_[lane]->cv.notify_one();
      }
    }
  }
}

size_t VerificationService::FlushOrderedDeliveriesLocked() {
  size_t released = 0;
  for (auto it = deliverable_.find(next_deliver_seq_); it != deliverable_.end();
       it = deliverable_.find(next_deliver_seq_)) {
    PendingDelivery& delivery = it->second;
    // Latency is stamped HERE, not at resolution: a verdict parked behind an
    // earlier claim's long dispute is latency the client observes, and the SLO
    // gate must see it. Recording before Deliver keeps completed-count and the
    // histogram ahead of any client that Wait()ed on this ticket. Delivering
    // under mu_ is what makes the release order exactly global submission order.
    const double latency_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      delivery.enqueue_time)
            .count();
    metrics_.RecordVerdict(latency_seconds, delivery.outcome.flagged);
    TAO_CHECK(delivery.ticket != nullptr);
    if (Tracer::enabled()) {
      SpanRecord span;
      span.model = coordinator_.model_id();
      span.sequence = next_deliver_seq_;
      span.claim_id = delivery.outcome.claim_id;
      span.shard = static_cast<uint32_t>(next_deliver_seq_ % lanes_.size());
      span.kind = SpanKind::kDeliver;
      span.begin_ns = delivery.parked_ns > 0 ? delivery.parked_ns : Tracer::NowNs();
      span.end_ns = Tracer::NowNs();
      Tracer::Record(span);
    }
    delivery.ticket->Deliver(std::move(delivery.outcome));
    deliverable_.erase(it);
    ++next_deliver_seq_;
    ++delivered_;
    TAO_CHECK(unresolved_ > 0);
    --unresolved_;
    ++released;
  }
  return released;
}

void VerificationService::LaneLoop(size_t lane) {
  ResourceTracker::ScopedThread tracked("lane");
  LaneState& state = *lanes_[lane];
  const uint64_t num_lanes = static_cast<uint64_t>(lanes_.size());
  for (;;) {
    PendingResolution item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Lane k resolves global sequences k, k+L, k+2L, ... in order; the next one
      // is a pure function of how many it already resolved.
      const auto next_sequence = [&] { return lane + num_lanes * state.resolved; };
      state.cv.wait(lock, [&] {
        return state.ready.count(next_sequence()) > 0 ||
               (queue_.closed() && next_sequence() >= queue_.accepted());
      });
      const auto it = state.ready.find(next_sequence());
      if (it == state.ready.end()) {
        return;  // drained: every claim homed to this lane has been resolved
      }
      item = std::move(it->second);
      state.ready.erase(it);
    }

    // Tracing: the wait between the worker's handoff and this pickup, then the
    // resolve itself. Observation only.
    const bool tracing = Tracer::enabled();
    const int64_t resolve_begin = tracing ? Tracer::NowNs() : 0;
    const TraceContext context{coordinator_.model_id(), item.record.sequence,
                               static_cast<uint32_t>(lane), kNoIndex};
    if (tracing && item.handoff_ns > 0) {
      SpanRecord span;
      span.model = context.model;
      span.sequence = context.sequence;
      span.shard = context.shard;
      span.kind = SpanKind::kResolveWait;
      span.begin_ns = item.handoff_ns;
      span.end_ns = resolve_begin;
      Tracer::Record(span);
    }

    // All coordinator interaction for this claim happens here, on shard `lane`,
    // claim by claim in the lane's submission order. A flagged claim's dispute was
    // planned in phase 1; the lane only posts its moves.
    BatchClaimOutcome outcome = verifier_.ResolveClaim(std::move(item.phase1), lane);
    TAO_CHECK(item.record.ticket != nullptr);
    const int64_t resolve_end = tracing ? Tracer::NowNs() : 0;
    if (tracing) {
      SpanRecord span;
      span.model = context.model;
      span.sequence = context.sequence;
      span.claim_id = outcome.claim_id;
      span.shard = context.shard;
      span.kind = SpanKind::kResolve;
      span.detail = outcome.flagged ? 1 : 0;
      span.begin_ns = resolve_begin;
      span.end_ns = resolve_end;
      Tracer::Record(span);
    }

    if (options_.unordered_delivery) {
      // Deliver the moment the lane is done; only the shard's own order is
      // promised. The ticket unblocks before head-of-line disputes elsewhere.
      const double latency_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        item.record.enqueue_time)
              .count();
      metrics_.RecordVerdict(latency_seconds, outcome.flagged);
      if (tracing) {
        SpanRecord span;
        span.model = context.model;
        span.sequence = context.sequence;
        span.claim_id = outcome.claim_id;
        span.shard = context.shard;
        span.kind = SpanKind::kDeliver;
        span.begin_ns = resolve_end;
        span.end_ns = Tracer::NowNs();
        Tracer::Record(span);
      }
      item.record.ticket->Deliver(std::move(outcome));
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++state.resolved;
        ++delivered_;
        TAO_CHECK(unresolved_ > 0);
        --unresolved_;
      }
      window_cv_.notify_all();
      drained_cv_.notify_all();
      continue;
    }

    // Ordered delivery: park the verdict until every earlier sequence delivered,
    // then release as many consecutive verdicts as are ready.
    size_t released;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++state.resolved;
      deliverable_.emplace(item.record.sequence,
                           PendingDelivery{std::move(item.record.ticket),
                                           std::move(outcome),
                                           item.record.enqueue_time, resolve_end});
      released = FlushOrderedDeliveriesLocked();
    }
    if (released > 0) {
      window_cv_.notify_all();
      drained_cv_.notify_all();
    }
  }
}

void VerificationService::Drain() {
  queue_.Close();  // wakes blocked submitters (kRejectedClosed) and idle workers
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  window_cv_.notify_all();
  for (const auto& lane : lanes_) {
    lane->cv.notify_all();
  }
  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock, [&] { return delivered_ == queue_.accepted(); });
}

MetricsSnapshot VerificationService::metrics() const {
  MetricsSnapshot snapshot = metrics_.Snapshot(
      static_cast<int64_t>(queue_.depth()), static_cast<int64_t>(queue_.peak_depth()));
  // Durability gauges are the coordinator's, sampled here like the queue gauges so
  // one snapshot carries the whole per-model serving picture. All zero in-memory.
  const DurabilityStats durability = coordinator_.durability_stats();
  snapshot.durability_records_appended = durability.records_appended;
  snapshot.durability_bytes_appended = durability.bytes_appended;
  snapshot.durability_flushes = durability.flushes;
  snapshot.durability_fsyncs = durability.fsyncs;
  snapshot.durability_snapshots = durability.snapshots_written;
  snapshot.durability_recovery_replayed = durability.recovery_replayed;
  snapshot.durability_flush_ns = durability.flush_ns_total;
  snapshot.durability_fsync_ns = durability.fsync_ns_total;
  return snapshot;
}

}  // namespace tao
