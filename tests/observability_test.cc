// Observability suite: span tracing, the trace collector, the resource tracker,
// the text exporters, and the embedded HTTP monitoring endpoint.
//
// The load-bearing test is the tracing sweep: the SAME gateway workload runs with
// span recording off and on, and every outcome — verdicts, C0 digests, claim ids,
// per-claim gas, the ledger — must be bitwise identical, proving the
// instrumentation is observation-only (the inertness contract of
// docs/observability.md). The suite must also run TSan-clean (CI runs it in the
// tsan job): the ring tests and the traced gateway run exercise the SPSC
// publish/drain protocol under real concurrency.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/calib/calibrator.h"
#include "src/observability/export.h"
#include "src/observability/http_endpoint.h"
#include "src/observability/resource_tracker.h"
#include "src/observability/trace.h"
#include "src/registry/serving_gateway.h"
#include "tests/test_claims.h"

namespace tao {
namespace {

// Drains and discards whatever earlier tests (or the service threads they spun
// up) left in the global tracer's rings, so each test folds only its own spans.
void FlushTracer() {
  std::vector<SpanRecord> discard;
  Tracer::Get().Drain(discard);
}

SpanRecord MakeSpan(uint64_t model, uint64_t sequence, SpanKind kind,
                    int64_t begin_ns, int64_t end_ns) {
  SpanRecord span;
  span.model = model;
  span.sequence = sequence;
  span.kind = kind;
  span.begin_ns = begin_ns;
  span.end_ns = end_ns;
  return span;
}

// ----------------------------------- SpanRing ----------------------------------------

TEST(SpanRingTest, PushDrainRoundTripPreservesOrder) {
  SpanRing ring;
  for (uint64_t i = 0; i < 5; ++i) {
    ring.Push(MakeSpan(1, i, SpanKind::kPhase1, 10 * static_cast<int64_t>(i),
                       10 * static_cast<int64_t>(i) + 5));
  }
  std::vector<SpanRecord> out;
  EXPECT_EQ(ring.DrainInto(out), 5u);
  ASSERT_EQ(out.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].sequence, i);
  }
  EXPECT_EQ(ring.dropped(), 0);
  // Drained slots are reusable.
  ring.Push(MakeSpan(1, 99, SpanKind::kDeliver, 0, 1));
  out.clear();
  EXPECT_EQ(ring.DrainInto(out), 1u);
  EXPECT_EQ(out[0].sequence, 99u);
}

TEST(SpanRingTest, FullRingDropsAndCountsInsteadOfBlocking) {
  SpanRing ring;
  const size_t overflow = 10;
  for (size_t i = 0; i < SpanRing::kCapacity + overflow; ++i) {
    ring.Push(MakeSpan(1, i, SpanKind::kQueueWait, 0, 1));
  }
  EXPECT_EQ(ring.dropped(), static_cast<int64_t>(overflow));
  std::vector<SpanRecord> out;
  EXPECT_EQ(ring.DrainInto(out), SpanRing::kCapacity);
  // The retained spans are the OLDEST kCapacity (drops happen at the tail of the
  // burst, not by overwriting history).
  EXPECT_EQ(out.front().sequence, 0u);
  EXPECT_EQ(out.back().sequence, SpanRing::kCapacity - 1);
}

TEST(SpanRingTest, ConcurrentProducerAndDrainerLoseNothingBelowCapacity) {
  SpanRing ring;
  constexpr uint64_t kSpans = 20000;
  std::vector<SpanRecord> drained;
  std::thread producer([&ring] {
    for (uint64_t i = 0; i < kSpans; ++i) {
      ring.Push(MakeSpan(1, i, SpanKind::kPhase1, 0, 1));
      if ((i & 1023) == 0) {
        std::this_thread::yield();  // let the drainer keep the ring from filling
      }
    }
  });
  while (drained.size() + static_cast<size_t>(ring.dropped()) < kSpans) {
    ring.DrainInto(drained);
  }
  producer.join();
  ring.DrainInto(drained);
  // Everything that was not dropped arrives exactly once, in order.
  ASSERT_EQ(drained.size() + static_cast<size_t>(ring.dropped()), kSpans);
  uint64_t previous = 0;
  for (const SpanRecord& span : drained) {
    EXPECT_GE(span.sequence, previous);
    previous = span.sequence;
  }
}

// ------------------------------ ScopedTraceContext -----------------------------------

TEST(ScopedTraceContextTest, PublishesCohortAndRestoresOnExit) {
  EXPECT_EQ(ScopedTraceContext::Current(), nullptr);
  TraceContext cohort[2] = {{7, 100, 0, 3}, {7, 101, 1, 3}};
  {
    ScopedTraceContext scope(cohort, 2);
    ASSERT_NE(ScopedTraceContext::At(0), nullptr);
    EXPECT_EQ(ScopedTraceContext::At(0)->sequence, 100u);
    EXPECT_EQ(ScopedTraceContext::At(1)->sequence, 101u);
    EXPECT_EQ(ScopedTraceContext::At(2), nullptr);  // out of range
    EXPECT_EQ(ScopedTraceContext::Current(), ScopedTraceContext::At(0));
    // Nested publication (the lane's single-claim scope inside nothing else)
    // shadows and then restores.
    TraceContext single{9, 555, 2, kNoIndex};
    {
      ScopedTraceContext inner(&single, 1);
      EXPECT_EQ(ScopedTraceContext::Current()->sequence, 555u);
      EXPECT_EQ(ScopedTraceContext::At(1), nullptr);
    }
    EXPECT_EQ(ScopedTraceContext::At(1)->sequence, 101u);
  }
  EXPECT_EQ(ScopedTraceContext::Current(), nullptr);
}

// ------------------------------------ Tracer -----------------------------------------

TEST(TracerTest, RecordIsInertWhileDisabledAndRoundTripsWhileEnabled) {
  Tracer& tracer = Tracer::Get();
  tracer.Disable();
  FlushTracer();

  Tracer::Record(MakeSpan(3, 1, SpanKind::kSubmit, 0, 1));
  std::vector<SpanRecord> out;
  EXPECT_EQ(tracer.Drain(out), 0u) << "a disabled tracer must record nothing";

  tracer.Enable();
  Tracer::Record(MakeSpan(3, 1, SpanKind::kSubmit, 0, 1));
  Tracer::Record(MakeSpan(3, 2, SpanKind::kDeliver, 5, 9));
  tracer.Disable();
  EXPECT_EQ(tracer.Drain(out), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].sequence, 1u);
  EXPECT_EQ(out[1].kind, SpanKind::kDeliver);
}

TEST(TracerTest, NowNsIsMonotonic) {
  const int64_t a = Tracer::NowNs();
  const int64_t b = Tracer::NowNs();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0);
}

// -------------------------------- TraceCollector -------------------------------------

// Records a full chain for (model, sequence) with the given submit->deliver
// latency; the kResolve span carries the claim id.
void RecordChain(uint64_t model, uint64_t sequence, uint64_t claim_id,
                 int64_t begin_ns, int64_t latency_ns) {
  const int64_t end = begin_ns + latency_ns;
  Tracer::Record(MakeSpan(model, sequence, SpanKind::kSubmit, begin_ns, begin_ns + 1));
  Tracer::Record(MakeSpan(model, sequence, SpanKind::kQueueWait, begin_ns + 1, begin_ns + 2));
  Tracer::Record(MakeSpan(model, sequence, SpanKind::kPhase1, begin_ns + 2, begin_ns + 3));
  SpanRecord resolve = MakeSpan(model, sequence, SpanKind::kResolve, begin_ns + 3, end - 1);
  resolve.claim_id = claim_id;
  Tracer::Record(resolve);
  Tracer::Record(MakeSpan(model, sequence, SpanKind::kDeliver, end - 1, end));
}

TEST(TraceCollectorTest, FoldsSpansIntoCompleteChains) {
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  FlushTracer();

  TraceCollectorOptions options;
  options.slow_claim_ms = 0.0;  // retain everything in the slow store
  TraceCollector collector(options);

  RecordChain(/*model=*/7, /*sequence=*/11, /*claim_id=*/42, /*begin_ns=*/1000,
              /*latency_ns=*/500);
  tracer.Disable();
  collector.Poll();

  const std::vector<ClaimTrace> traces = collector.Traces();
  ASSERT_EQ(traces.size(), 1u);
  const ClaimTrace& trace = traces[0];
  EXPECT_TRUE(trace.complete);
  EXPECT_EQ(trace.model, 7u);
  EXPECT_EQ(trace.sequence, 11u);
  EXPECT_EQ(trace.claim_id, 42u) << "claim id must be adopted from the resolve span";
  EXPECT_EQ(trace.spans.size(), 5u);
  EXPECT_TRUE(trace.has(SpanKind::kSubmit));
  EXPECT_TRUE(trace.has(SpanKind::kDeliver));
  EXPECT_FALSE(trace.has(SpanKind::kDisputeRound));
  EXPECT_TRUE(std::is_sorted(trace.spans.begin(), trace.spans.end(),
                             [](const SpanRecord& a, const SpanRecord& b) {
                               return a.begin_ns < b.begin_ns;
                             }));
  EXPECT_EQ(trace.begin_ns, 1000);
  EXPECT_EQ(trace.end_ns, 1500);
  EXPECT_EQ(collector.claims_completed(), 1);
  EXPECT_EQ(collector.spans_folded(), 5);
}

TEST(TraceCollectorTest, DeliveryEarlierInDrainBatchStillClosesTheChain) {
  // All five spans land in ONE Poll, with the delivery span drained FIRST (a
  // different ring). Fold-all-then-finalize must still assemble the whole chain.
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  FlushTracer();
  TraceCollectorOptions options;
  options.slow_claim_ms = 0.0;
  TraceCollector collector(options);

  Tracer::Record(MakeSpan(7, 21, SpanKind::kDeliver, 90, 100));
  std::thread other([] {
    Tracer::Record(MakeSpan(7, 21, SpanKind::kSubmit, 10, 12));
    Tracer::Record(MakeSpan(7, 21, SpanKind::kPhase1, 20, 60));
  });
  other.join();
  tracer.Disable();
  collector.Poll();

  const std::vector<ClaimTrace> traces = collector.Traces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_TRUE(traces[0].complete);
  EXPECT_EQ(traces[0].spans.size(), 3u);
  EXPECT_EQ(traces[0].begin_ns, 10);
  EXPECT_EQ(traces[0].end_ns, 100);
  EXPECT_EQ(collector.late_spans(), 0);
}

TEST(TraceCollectorTest, SlowClaimsAreRetainedAndFastOnesRideTheRecentRing) {
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  FlushTracer();
  TraceCollectorOptions options;
  options.slow_claim_ms = 1.0;
  options.max_recent_claims = 2;
  TraceCollector collector(options);

  RecordChain(5, 1, 101, 0, 2'000'000);      // 2 ms -> slow store
  RecordChain(5, 2, 102, 0, 100'000);        // 0.1 ms -> recent ring
  RecordChain(5, 3, 103, 0, 100'000);        // recent
  RecordChain(5, 4, 104, 0, 100'000);        // recent: evicts sequence 2
  tracer.Disable();
  collector.Poll();

  const std::vector<ClaimTrace> traces = collector.Traces();
  ASSERT_EQ(traces.size(), 3u);  // 1 slow + 2 recent (ring bound evicted one)
  EXPECT_EQ(traces[0].sequence, 1u) << "slow claims list first";
  EXPECT_GE(traces[0].latency_ms(), 1.0);
  for (size_t i = 1; i < traces.size(); ++i) {
    EXPECT_NE(traces[i].sequence, 2u) << "the oldest fast claim must age out";
  }
  EXPECT_EQ(collector.claims_completed(), 4);
}

TEST(TraceCollectorTest, LateSpansAfterFinalizationAreCountedAndDropped) {
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  FlushTracer();
  TraceCollectorOptions options;
  options.slow_claim_ms = 0.0;
  TraceCollector collector(options);

  RecordChain(6, 1, 7, 0, 1000);
  collector.Poll();  // finalizes (6, 1)
  Tracer::Record(MakeSpan(6, 1, SpanKind::kThresholdCheck, 2000, 2100));
  tracer.Disable();
  collector.Poll();

  EXPECT_EQ(collector.late_spans(), 1);
  const std::vector<ClaimTrace> traces = collector.Traces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].spans.size(), 5u) << "the late span must not mutate the chain";
}

TEST(TraceCollectorTest, OpenChainCapEvictsOldestIncompleteChain) {
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  FlushTracer();
  TraceCollectorOptions options;
  options.slow_claim_ms = 0.0;
  options.max_open_claims = 2;
  TraceCollector collector(options);

  // Three incomplete chains; the cap keeps the two with the LATEST begins.
  Tracer::Record(MakeSpan(8, 1, SpanKind::kSubmit, 100, 110));
  Tracer::Record(MakeSpan(8, 2, SpanKind::kSubmit, 200, 210));
  Tracer::Record(MakeSpan(8, 3, SpanKind::kSubmit, 300, 310));
  collector.Poll();
  // Completing the evicted chain now arrives late (its chain is gone).
  Tracer::Record(MakeSpan(8, 1, SpanKind::kDeliver, 400, 410));
  // Completing a survivor works.
  Tracer::Record(MakeSpan(8, 2, SpanKind::kDeliver, 400, 410));
  tracer.Disable();
  collector.Poll();

  const std::vector<ClaimTrace> traces = collector.Traces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].sequence, 2u);
  EXPECT_TRUE(traces[0].complete);
}

TEST(TraceCollectorTest, ExportersRenderChainsAndSpanNames) {
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  FlushTracer();
  TraceCollectorOptions options;
  options.slow_claim_ms = 0.0;
  TraceCollector collector(options);
  RecordChain(4, 9, 77, 1'000'000, 3'000'000);
  tracer.Disable();

  const std::string json = collector.ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"submit\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":4"), std::string::npos);

  const std::string table = collector.TextTable();
  EXPECT_NE(table.find("seq"), std::string::npos);
  EXPECT_NE(table.find("submit"), std::string::npos);
  EXPECT_NE(table.find("deliver"), std::string::npos);
}

TEST(SpanKindNameTest, EveryKindHasAStableName) {
  EXPECT_STREQ(SpanKindName(SpanKind::kSubmit), "submit");
  EXPECT_STREQ(SpanKindName(SpanKind::kQueueWait), "queue_wait");
  EXPECT_STREQ(SpanKindName(SpanKind::kBatchForm), "batch_form");
  EXPECT_STREQ(SpanKindName(SpanKind::kPhase1), "phase1");
  EXPECT_STREQ(SpanKindName(SpanKind::kThresholdCheck), "threshold_check");
  EXPECT_STREQ(SpanKindName(SpanKind::kResolveWait), "resolve_wait");
  EXPECT_STREQ(SpanKindName(SpanKind::kResolve), "resolve");
  EXPECT_STREQ(SpanKindName(SpanKind::kDisputeRound), "dispute_round");
  EXPECT_STREQ(SpanKindName(SpanKind::kDeliver), "deliver");
}

// -------------------------------- ResourceTracker ------------------------------------

// Burns a little CPU so thread clocks visibly advance.
void SpinFor(std::chrono::milliseconds duration) {
  volatile uint64_t sink = 0;
  const auto deadline = std::chrono::steady_clock::now() + duration;
  while (std::chrono::steady_clock::now() < deadline) {
    sink = sink + 1;
  }
  (void)sink;
}

TEST(ResourceTrackerTest, ScopedThreadRegistersSamplesAndRecyclesOrdinals) {
  ResourceTracker& tracker = ResourceTracker::Get();
  double first_cpu = 0.0;
  std::thread worker([&first_cpu] {
    ResourceTracker::ScopedThread self("rt_test");
    EXPECT_EQ(self.name(), "rt_test/0");
    SpinFor(std::chrono::milliseconds(20));
    first_cpu = 1.0;  // made it through a registered body
  });
  worker.join();
  EXPECT_EQ(first_cpu, 1.0);

  // The slot survives the thread (dead, CPU retained).
  bool found_dead = false;
  double dead_cpu = 0.0;
  for (const ResourceTracker::ThreadSample& sample : tracker.Sample()) {
    if (sample.name == "rt_test/0") {
      found_dead = true;
      EXPECT_FALSE(sample.alive);
      dead_cpu = sample.cpu_seconds;
      EXPECT_GT(dead_cpu, 0.0) << "the guard's final self-sample must persist";
    }
  }
  ASSERT_TRUE(found_dead);

  // A new occupant of the same role recycles ordinal 0 and accumulates on top of
  // its predecessor's CPU (stable worker/0 identity across restarts).
  std::thread successor([] {
    ResourceTracker::ScopedThread self("rt_test");
    EXPECT_EQ(self.name(), "rt_test/0");
    SpinFor(std::chrono::milliseconds(20));
  });
  successor.join();
  for (const ResourceTracker::ThreadSample& sample : tracker.Sample()) {
    if (sample.name == "rt_test/0") {
      EXPECT_GE(sample.cpu_seconds, dead_cpu);
    }
  }

  // Two live occupants of one role get distinct ordinals: b registers only once a
  // has, and a stays registered until b has, so a holds ordinal 0 and b ordinal 1.
  std::atomic<bool> a_registered{false};
  std::atomic<bool> b_registered{false};
  std::thread a([&] {
    ResourceTracker::ScopedThread self("rt_pair");
    EXPECT_EQ(self.name(), "rt_pair/0");
    a_registered.store(true);
    while (!b_registered.load()) {
      std::this_thread::yield();
    }
  });
  std::thread b([&] {
    while (!a_registered.load()) {
      std::this_thread::yield();
    }
    ResourceTracker::ScopedThread self("rt_pair");
    EXPECT_EQ(self.name(), "rt_pair/1");
    b_registered.store(true);
  });
  a.join();
  b.join();
}

TEST(ResourceTrackerTest, CountersIncludeRolesArenaFoldAndGauges) {
  ResourceTracker& tracker = ResourceTracker::Get();
  const size_t handle = tracker.RegisterGauge("resource/test_gauge", [] { return 12.5; });

  ResourceTracker::ScopedThread self("rt_counters");
  SpinFor(std::chrono::milliseconds(10));
  tracker.Sample();

  const std::vector<NamedCounter> counters = tracker.Counters();
  const auto value_of = [&counters](const std::string& name) -> const NamedCounter* {
    for (const NamedCounter& counter : counters) {
      if (counter.name == name) {
        return &counter;
      }
    }
    return nullptr;
  };
  const NamedCounter* own = value_of("rt_counters/0/cpu_seconds");
  ASSERT_NE(own, nullptr);
  EXPECT_GT(own->value, 0.0);
  ASSERT_NE(value_of("resource/cpu_seconds_total"), nullptr);
  EXPECT_GE(value_of("resource/cpu_seconds_total")->value, own->value);
  EXPECT_NE(value_of("resource/threads_alive"), nullptr);
  EXPECT_NE(value_of("resource/threads_registered"), nullptr);
  EXPECT_NE(value_of("resource/arena_outstanding_bytes"), nullptr);
  EXPECT_NE(value_of("resource/arena_peak_bytes"), nullptr);
  const NamedCounter* gauge = value_of("resource/test_gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, 12.5);

  tracker.UnregisterGauge(handle);
  for (const NamedCounter& counter : tracker.Counters()) {
    EXPECT_NE(counter.name, "resource/test_gauge") << "unregistered gauge leaked";
  }
}

TEST(ResourceTrackerTest, SamplerThreadRunsAndStopsIdempotently) {
  ResourceTracker& tracker = ResourceTracker::Get();
  EXPECT_FALSE(tracker.sampler_running());
  const int64_t before = tracker.samples_taken();
  tracker.StartSampler(std::chrono::milliseconds(2));
  tracker.StartSampler(std::chrono::milliseconds(2));  // idempotent
  EXPECT_TRUE(tracker.sampler_running());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (tracker.samples_taken() < before + 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(tracker.samples_taken(), before + 3);
  tracker.StopSampler();
  tracker.StopSampler();  // idempotent
  EXPECT_FALSE(tracker.sampler_running());
  // The sampler registered (and released) its own slot.
  bool saw_sampler = false;
  for (const ResourceTracker::ThreadSample& sample : tracker.Sample()) {
    saw_sampler |= sample.name == "sampler/0";
  }
  EXPECT_TRUE(saw_sampler);
}

// ---------------------------------- exporters ----------------------------------------

TEST(ExportTest, PrometheusNamesAreSanitizedUnderTheTaoPrefix) {
  EXPECT_EQ(PrometheusMetricName("model/1/claims/accepted"),
            "tao_model_1_claims_accepted");
  EXPECT_EQ(PrometheusMetricName("latency/p99_ms"), "tao_latency_p99_ms");
  EXPECT_EQ(PrometheusMetricName("weird-name.x"), "tao_weird_name_x");
}

TEST(ExportTest, PrometheusTextCarriesOriginalNamesOnHelpLines) {
  const std::vector<NamedCounter> counters = {{"model/1/claims/accepted", 128.0},
                                              {"latency/p99_ms", 2.5}};
  const std::string text = PrometheusText(counters);
  EXPECT_NE(text.find("# HELP tao_model_1_claims_accepted model/1/claims/accepted"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tao_model_1_claims_accepted untyped"), std::string::npos);
  EXPECT_NE(text.find("tao_model_1_claims_accepted 128"), std::string::npos);
  EXPECT_NE(text.find("tao_latency_p99_ms 2.5"), std::string::npos);
}

TEST(ExportTest, CountersJsonIsAFlatObjectKeyedByOriginalNames) {
  const std::vector<NamedCounter> counters = {{"a/b", 3.0}, {"c", 0.5}};
  const std::string json = CountersJson(counters);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"a/b\":3"), std::string::npos);
  EXPECT_NE(json.find("\"c\":0.5"), std::string::npos);
}

// ------------------------------- MonitoringServer ------------------------------------

// Minimal blocking HTTP GET against 127.0.0.1:port; returns the whole response.
std::string HttpGet(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    ADD_FAILURE() << "connect failed for " << target;
    return {};
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      break;
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MonitoringServerTest, ServesAllRoutesOverARealSocket) {
  MonitoringOptions options;
  options.enabled = true;
  options.port = 0;  // ephemeral
  options.enable_tracing = false;
  options.sampler_period_ms = 5;
  MonitoringServer server(options, [] {
    return std::vector<NamedCounter>{{"model/1/claims/accepted", 4.0},
                                     {"latency/p99_ms", 1.5}};
  });
  ASSERT_GT(server.port(), 0);

  EXPECT_NE(HttpGet(server.port(), "/healthz").find("ok"), std::string::npos);

  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(metrics.find("tao_model_1_claims_accepted 4"), std::string::npos);
  EXPECT_NE(metrics.find("latency/p99_ms"), std::string::npos);
  // The resource tracker's fold rides along on the same page.
  EXPECT_NE(metrics.find("tao_resource_cpu_seconds_total"), std::string::npos);
  EXPECT_NE(metrics.find("monitoring/0/cpu_seconds"), std::string::npos);

  const std::string snapshot = HttpGet(server.port(), "/snapshot");
  EXPECT_NE(snapshot.find("application/json"), std::string::npos);
  EXPECT_NE(snapshot.find("\"model/1/claims/accepted\":4"), std::string::npos);

  EXPECT_NE(HttpGet(server.port(), "/traces").find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(HttpGet(server.port(), "/traces.json").find("traceEvents"),
            std::string::npos);
  EXPECT_NE(HttpGet(server.port(), "/nope").find("HTTP/1.1 404"), std::string::npos);
  EXPECT_GE(server.requests_served(), 6);

  // Route dispatch is also reachable without a socket (the demo's self-check).
  EXPECT_EQ(server.HandleForTest("/healthz"), "ok\n");
}

TEST(MonitoringServerTest, TracingOwnershipRestoresDisabledState) {
  ASSERT_FALSE(Tracer::enabled());
  {
    MonitoringOptions options;
    options.enabled = true;
    options.sampler_period_ms = 50;
    MonitoringServer server(options, [] { return std::vector<NamedCounter>{}; });
    EXPECT_TRUE(Tracer::enabled()) << "the server owns tracing for its lifetime";
  }
  EXPECT_FALSE(Tracer::enabled()) << "teardown must restore the disabled state";
  FlushTracer();
}

// --------------------------- the tracing inertness sweep -----------------------------

struct SweepOutcome {
  ClaimId claim_id = 0;
  Digest c0{};
  bool flagged = false;
  bool proposer_guilty = false;
  ClaimState final_state = ClaimState::kCommitted;
  int64_t gas_used = 0;
  size_t dispute_rounds = 0;  // the dispute's round_stats.size()
};

struct SweepResult {
  std::vector<SweepOutcome> outcomes;
  Balances balances;
  int64_t gas_total = 0;
};

class ObservabilityIntegrationTest : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    BertConfig config;
    config.seq_len = 12;
    config.dim = 32;
    config.ffn_dim = 64;
    config.layers = 2;
    model_ = new Model(BuildBertMini(config));
    CalibrateOptions calibrate;
    calibrate.num_samples = 3;
    thresholds_ = new ThresholdSet(
        Calibrate(*model_, DeviceRegistry::Fleet(), calibrate).MakeThresholds(3.0));
    commitment_ = new ModelCommitment(*model_->graph, *thresholds_);
  }

  static void TearDownTestSuite() {
    delete commitment_;
    delete thresholds_;
    delete model_;
  }

  static SweepResult RunWorkload(const std::vector<BatchClaim>& claims,
                                 int dispute_threads = 1) {
    ModelRegistry registry;
    ServingGateway gateway(registry);
    const ModelId id = registry.Register(*model_);
    registry.Commit(id, *commitment_, *thresholds_);
    ServiceOptions options;
    options.num_workers = 2;
    options.queue_capacity = 4;
    options.batching.initial_hint = 3;
    options.verifier.reuse_buffers = true;
    options.verifier.dispute.num_threads = dispute_threads;
    gateway.Serve(id, options);

    std::vector<std::shared_ptr<ClaimTicket>> tickets;
    for (const BatchClaim& claim : claims) {
      GatewaySubmitResult result = gateway.Submit(id, claim);
      EXPECT_TRUE(result.accepted());
      tickets.push_back(std::move(result.ticket));
    }
    gateway.DrainAll();

    SweepResult result;
    for (const std::shared_ptr<ClaimTicket>& ticket : tickets) {
      const BatchClaimOutcome& outcome = ticket->Wait();
      result.outcomes.push_back({outcome.claim_id, outcome.c0, outcome.flagged,
                                 outcome.proposer_guilty, outcome.final_state,
                                 outcome.gas_used, outcome.dispute.round_stats.size()});
    }
    result.balances = registry.coordinator(id).balances();
    result.gas_total = registry.coordinator(id).gas().total();
    return result;
  }

  static Model* model_;
  static ThresholdSet* thresholds_;
  static ModelCommitment* commitment_;
};

Model* ObservabilityIntegrationTest::model_ = nullptr;
ThresholdSet* ObservabilityIntegrationTest::thresholds_ = nullptr;
ModelCommitment* ObservabilityIntegrationTest::commitment_ = nullptr;

TEST_F(ObservabilityIntegrationTest, TracingSweepIsBitwiseInert) {
  const std::vector<BatchClaim> claims =
      MakeTestClaims(*model_, 8, 0x0b5e7, /*cheat_rate=*/0.4, /*supervised_rate=*/0.6);

  Tracer::Get().Disable();
  FlushTracer();
  const SweepResult off = RunWorkload(claims);

  Tracer::Get().Enable();
  const SweepResult on = RunWorkload(claims);
  Tracer::Get().Disable();

  // The instrumented run actually recorded spans — the sweep is vacuous otherwise.
  std::vector<SpanRecord> spans;
  Tracer::Get().Drain(spans);
  ASSERT_GT(spans.size(), 0u);

  int64_t flagged = 0;
  ASSERT_EQ(on.outcomes.size(), off.outcomes.size());
  for (size_t i = 0; i < off.outcomes.size(); ++i) {
    EXPECT_EQ(on.outcomes[i].claim_id, off.outcomes[i].claim_id) << "claim " << i;
    EXPECT_EQ(on.outcomes[i].c0, off.outcomes[i].c0) << "claim " << i << " C0 diverged";
    EXPECT_EQ(on.outcomes[i].flagged, off.outcomes[i].flagged) << "claim " << i;
    EXPECT_EQ(on.outcomes[i].proposer_guilty, off.outcomes[i].proposer_guilty)
        << "claim " << i;
    EXPECT_EQ(on.outcomes[i].final_state, off.outcomes[i].final_state) << "claim " << i;
    EXPECT_EQ(on.outcomes[i].gas_used, off.outcomes[i].gas_used) << "claim " << i;
    flagged += off.outcomes[i].flagged ? 1 : 0;
  }
  ASSERT_GT(flagged, 0) << "the sweep must exercise the dispute path";
  EXPECT_EQ(on.balances.proposer, off.balances.proposer);
  EXPECT_EQ(on.balances.challenger, off.balances.challenger);
  EXPECT_EQ(on.balances.treasury, off.balances.treasury);
  EXPECT_EQ(on.gas_total, off.gas_total);
}

TEST_F(ObservabilityIntegrationTest, TracedWorkloadYieldsCompleteSpanChains) {
  const std::vector<BatchClaim> claims =
      MakeTestClaims(*model_, 6, 0x7ace, /*cheat_rate=*/0.5, /*supervised_rate=*/0.7);

  // Width 1 plans every flagged claim on the verify worker itself, width 4 on pool
  // threads; either way the plan must run under its own claim's context.
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("dispute threads " + std::to_string(threads));
    Tracer::Get().Enable();
    FlushTracer();
    const SweepResult result = RunWorkload(claims, threads);
    Tracer::Get().Disable();

    TraceCollectorOptions options;
    options.slow_claim_ms = 0.0;  // retain every chain
    options.max_slow_claims = 64;
    TraceCollector collector(options);
    collector.Poll();

    const std::vector<ClaimTrace> traces = collector.Traces();
    ASSERT_EQ(traces.size(), claims.size());
    // Each flagged claim's chain carries exactly one span per planned round, every
    // other chain none.
    std::map<uint64_t, size_t> rounds_by_claim;
    for (const SweepOutcome& outcome : result.outcomes) {
      rounds_by_claim[outcome.claim_id] = outcome.flagged ? outcome.dispute_rounds : 0;
    }
    bool saw_threshold_check = false;
    for (const ClaimTrace& trace : traces) {
      EXPECT_TRUE(trace.complete);
      EXPECT_NE(trace.claim_id, 0u) << "the resolve span must stamp the claim id";
      EXPECT_TRUE(trace.has(SpanKind::kSubmit));
      EXPECT_TRUE(trace.has(SpanKind::kQueueWait));
      EXPECT_TRUE(trace.has(SpanKind::kBatchForm));
      EXPECT_TRUE(trace.has(SpanKind::kPhase1));
      EXPECT_TRUE(trace.has(SpanKind::kResolveWait));
      EXPECT_TRUE(trace.has(SpanKind::kResolve));
      EXPECT_TRUE(trace.has(SpanKind::kDeliver));
      EXPECT_GE(trace.end_ns, trace.begin_ns);
      saw_threshold_check |= trace.has(SpanKind::kThresholdCheck);
      const auto is_round = [](const SpanRecord& span) {
        return span.kind == SpanKind::kDisputeRound;
      };
      const size_t round_spans = static_cast<size_t>(
          std::count_if(trace.spans.begin(), trace.spans.end(), is_round));
      EXPECT_EQ(round_spans, rounds_by_claim[trace.claim_id])
          << "claim " << trace.claim_id << " has the wrong number of dispute-round spans";
    }
    EXPECT_TRUE(saw_threshold_check) << "supervised claims must record threshold checks";
    size_t flagged = 0;
    for (const SweepOutcome& outcome : result.outcomes) {
      flagged += outcome.flagged ? 1 : 0;
    }
    EXPECT_GT(flagged, 0u) << "the workload must exercise the dispute path";
    // Claim ids on the chains match the delivered outcomes one-to-one.
    std::vector<uint64_t> chain_ids;
    std::vector<uint64_t> outcome_ids;
    for (const ClaimTrace& trace : traces) {
      chain_ids.push_back(trace.claim_id);
    }
    for (const SweepOutcome& outcome : result.outcomes) {
      outcome_ids.push_back(outcome.claim_id);
    }
    std::sort(chain_ids.begin(), chain_ids.end());
    std::sort(outcome_ids.begin(), outcome_ids.end());
    EXPECT_EQ(chain_ids, outcome_ids);
  }
}

TEST_F(ObservabilityIntegrationTest, GatewayMonitoringServesLiveCountersAndTraces) {
  const std::vector<BatchClaim> claims =
      MakeTestClaims(*model_, 4, 0x51ee7, /*cheat_rate=*/0.25, /*supervised_rate=*/0.5);

  FlushTracer();
  ModelRegistry registry;
  GatewayOptions gateway_options;
  gateway_options.monitoring.enabled = true;
  gateway_options.monitoring.port = 0;
  gateway_options.monitoring.sampler_period_ms = 10;
  gateway_options.monitoring.trace.slow_claim_ms = 0.0;
  ServingGateway gateway(registry, gateway_options);
  ASSERT_NE(gateway.monitoring(), nullptr);
  const int port = gateway.monitoring()->port();
  ASSERT_GT(port, 0);

  const ModelId id = registry.Register(*model_);
  registry.Commit(id, *commitment_, *thresholds_);
  gateway.Serve(id);
  for (const BatchClaim& claim : claims) {
    ASSERT_TRUE(gateway.Submit(id, claim).accepted());
  }
  gateway.Drain(id);

  const std::string metrics = HttpGet(port, "/metrics");
  EXPECT_NE(metrics.find("model/" + std::to_string(id) + "/claims/completed"),
            std::string::npos);
  EXPECT_NE(metrics.find("aggregate/claims/completed"), std::string::npos);
  EXPECT_NE(metrics.find("latency/p99_ms"), std::string::npos);
  EXPECT_NE(metrics.find("worker/0/cpu_seconds"), std::string::npos);
  EXPECT_NE(metrics.find("lane/0/cpu_seconds"), std::string::npos);
  EXPECT_NE(metrics.find("resource/pool_queue_depth"), std::string::npos);

  const std::string traces = HttpGet(port, "/traces");
  EXPECT_NE(traces.find("deliver"), std::string::npos)
      << "/traces must show at least one complete chain";
  EXPECT_TRUE(Tracer::enabled()) << "monitoring keeps tracing on while the gateway lives";
}

}  // namespace
}  // namespace tao
