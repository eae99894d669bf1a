// Pure arithmetic of the pipeline benchmark: exact order statistics, the
// open-loop send schedule and its lag accounting, and span self times. Nothing
// here touches the tao library or a clock, so stats_test.cc checks every rule on
// synthetic data.

#ifndef TAO_PERFBENCH_STATS_H_
#define TAO_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// 1-based nearest rank of percentile `p` among `n` samples: ceil(p * n), at
// least 1. The epsilon keeps 0.99 * 1000 at rank 990 despite rounding.
inline size_t PercentileRank(size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(rank < 1.0 ? 1 : static_cast<size_t>(rank), 1, n);
}

// Exact nearest-rank percentile of raw samples (no interpolation, no buckets).
// 0 for an empty sample.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  const size_t rank = PercentileRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

// The highest percentile, capped at `cap`, whose nearest rank leaves at least
// `beyond` samples above it. A tail read any higher rests on fewer than `beyond`
// observations. Returns 0 when n <= beyond: no tail percentile is supported, and
// callers report the median instead.
inline double SupportedTailPercentile(size_t n, double cap = 0.99, size_t beyond = 10) {
  if (n <= beyond) {
    return 0.0;
  }
  if (PercentileRank(n, cap) <= n - beyond) {
    return cap;
  }
  return static_cast<double>(n - beyond) / static_cast<double>(n);
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double value : samples) {
    sum += value;
  }
  return sum / static_cast<double>(samples.size());
}

// splitmix64: the schedule's own seeded stream, independent of the claim pool's.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Due times (ns after the phase start) of `count` open-loop sends at `rate` per
// second: slot i is centred at (i + 0.5) / rate and jittered uniformly by up to
// +-`jitter` of the gap, so due times never reorder and the mean rate is exact.
// A pure function of its arguments: the same seed gives the same schedule.
inline std::vector<int64_t> OpenLoopSchedule(uint64_t seed, double rate, size_t count,
                                             double jitter = 0.25) {
  std::vector<int64_t> due(count);
  const double gap_ns = 1e9 / rate;
  uint64_t state = seed;
  for (size_t i = 0; i < count; ++i) {
    const double u =
        static_cast<double>(SplitMix64(state) >> 11) * (1.0 / 9007199254740992.0);
    const double offset = (static_cast<double>(i) + 0.5 + jitter * (2.0 * u - 1.0)) * gap_ns;
    due[i] = static_cast<int64_t>(offset);
  }
  return due;
}

// Closed-loop throughput per block of `block` consecutive completions: block k
// spans completions k*block .. (k+1)*block (sorted by time) and its rate is
// block / (its last minus its first completion time), in claims per second.
// A block of one pool pass holds every claim of the pool once, so each rate is
// taken over the same cost mix. A trailing partial block is dropped.
inline std::vector<double> BlockRates(std::vector<int64_t> done_ns, size_t block) {
  std::vector<double> rates;
  if (block == 0) {
    return rates;
  }
  std::sort(done_ns.begin(), done_ns.end());
  for (size_t first = 0; first + block < done_ns.size(); first += block) {
    const int64_t span_ns = done_ns[first + block] - done_ns[first];
    if (span_ns > 0) {
      rates.push_back(static_cast<double>(block) * 1e9 / static_cast<double>(span_ns));
    }
  }
  return rates;
}

// How late the generator ran: per send, max(0, sent - due).
struct LagStats {
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

inline LagStats SummarizeLag(const std::vector<int64_t>& due_ns,
                             const std::vector<int64_t>& sent_ns) {
  std::vector<double> lag_ms;
  lag_ms.reserve(due_ns.size());
  for (size_t i = 0; i < due_ns.size() && i < sent_ns.size(); ++i) {
    lag_ms.push_back(static_cast<double>(std::max<int64_t>(0, sent_ns[i] - due_ns[i])) / 1e6);
  }
  LagStats stats;
  stats.p99_ms = Percentile(lag_ms, 0.99);
  for (const double lag : lag_ms) {
    stats.max_ms = std::max(stats.max_ms, lag);
  }
  return stats;
}

// A generator whose p99 lag exceeds the latency limit did not deliver the
// schedule it claims; such a run is rejected rather than reported.
inline bool GeneratorFellBehind(const LagStats& lag, double latency_limit_ms) {
  return lag.p99_ms > latency_limit_ms;
}

// One span of a claim's tree. `parent` indexes the same vector and precedes the
// span (-1 = root).
struct Span {
  int parent = -1;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

// Self time of every span: its duration minus the part of its interval covered
// by the union of its children. Each span is first clipped to its (clipped)
// parent: time a child spends outside its parent, such as a worker idling
// before the claim existed, is not on that claim's path.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::pair<int64_t, int64_t>> clipped(spans.size());
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    int64_t begin = spans[i].begin_ns;
    int64_t end = spans[i].end_ns;
    if (spans[i].parent >= 0) {
      const auto& parent = clipped[static_cast<size_t>(spans[i].parent)];
      begin = std::max(begin, parent.first);
      end = std::min(end, parent.second);
    }
    clipped[i] = {begin, std::max(begin, end)};
    if (spans[i].parent >= 0 && end > begin) {
      covered[static_cast<size_t>(spans[i].parent)].push_back(clipped[i]);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t union_ns = 0;
    int64_t cursor = INT64_MIN;
    for (const auto& [begin, end] : intervals) {
      const int64_t from = std::max(begin, cursor);
      if (end > from) {
        union_ns += end - from;
      }
      cursor = std::max(cursor, end);
    }
    self[i] = clipped[i].second - clipped[i].first - union_ns;
  }
  return self;
}

}  // namespace perfbench

#endif  // TAO_PERFBENCH_STATS_H_
