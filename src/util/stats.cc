#include "src/util/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include "src/util/check.h"

namespace tao {
namespace {

// Where percentile p of n sorted values lies: numpy's "linear" method reads
// sorted[lo] + frac * (sorted[hi] - sorted[lo]).
struct Rank {
  size_t lo = 0;
  size_t hi = 0;
  double frac = 0.0;
};

Rank RankOf(size_t n, double p) {
  TAO_CHECK_GT(n, 0u);
  TAO_CHECK(p >= 0.0 && p <= 100.0) << "p=" << p;
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(rank);
  return {lo, std::min(lo + 1, n - 1), rank - static_cast<double>(lo)};
}

double Interpolate(size_t n, const Rank& r, double at_lo, double at_hi) {
  return n == 1 ? at_lo : at_lo + r.frac * (at_hi - at_lo);
}

double PercentileOfSorted(std::span<const double> sorted, double p) {
  const Rank r = RankOf(sorted.size(), p);
  return Interpolate(sorted.size(), r, sorted[r.lo], sorted[r.hi]);
}

// Ranges of at most this many keys are sorted outright, and so is a whole input this
// small (a 16-logit output check never reaches the selection below).
constexpr size_t kMaxSortedRange = 48;
// A range is split into at most 2^kMaxBucketBits buckets per pass.
constexpr int kMaxBucketBits = 10;
// The rank list (two per probe) lives on the stack; longer probe lists are split.
constexpr size_t kStackRanks = 64;

// Order-preserving map from a NaN-free double to an unsigned key: a negative value has
// every bit flipped, a non-negative one only its sign bit. -0.0 lands just below +0.0;
// the interpolation returns the same bits for either order of the two zeros.
uint64_t ToKey(double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  return bits ^ ((uint64_t{0} - (bits >> 63)) | (uint64_t{1} << 63));
}

double FromKey(uint64_t key) {
  return std::bit_cast<double>(key ^ (((key >> 63) - 1) | (uint64_t{1} << 63)));
}

struct KeyRange {
  uint64_t lo = ~uint64_t{0};
  uint64_t hi = 0;
  void Add(uint64_t key) {
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  }
};

// Exact selection by most-significant-digit radix partitioning. keys[0, n) holds the
// sorted positions [base, base + n) of the whole input, and `range` their smallest and
// largest key; out[i] receives the key at position ranks[i] (ascending, distinct, all
// in that window). `spare` is n words of scratch: every key is scattered into its
// bucket's sorted slot there, and only buckets holding a needed rank are refined
// further, with the roles of the two buffers swapped. Each pass narrows a range's key
// span by up to kMaxBucketBits bits, so the recursion ends after a few passes in a
// sorted small range or an all-equal one.
void SelectKeys(uint64_t* keys, uint64_t* spare, size_t n, size_t base, KeyRange range,
                std::span<const size_t> ranks, uint64_t* out) {
  if (n <= kMaxSortedRange) {
    std::sort(keys, keys + n);
    for (size_t i = 0; i < ranks.size(); ++i) {
      out[i] = keys[ranks[i] - base];
    }
    return;
  }
  const uint64_t lo = range.lo;
  const uint64_t hi = range.hi;
  if (lo == hi) {
    std::fill_n(out, ranks.size(), lo);
    return;
  }
  const int bucket_bits = std::min(kMaxBucketBits, static_cast<int>(std::bit_width(n)));
  const int shift = std::max(0, static_cast<int>(std::bit_width(hi - lo)) - bucket_bits);
  const size_t num_buckets = static_cast<size_t>((hi - lo) >> shift) + 1;
  // cursor[b] counts bucket b, then becomes its next write slot, and ends as its end.
  // Only the first num_buckets entries are used, and they are zeroed here.
  uint32_t cursor[size_t{1} << kMaxBucketBits];
  std::fill_n(cursor, num_buckets, 0u);
  for (size_t i = 0; i < n; ++i) {
    ++cursor[(keys[i] - lo) >> shift];
  }
  uint32_t start = 0;
  for (size_t b = 0; b < num_buckets; ++b) {
    const uint32_t count = cursor[b];
    cursor[b] = start;
    start += count;
  }
  for (size_t i = 0; i < n; ++i) {
    spare[cursor[(keys[i] - lo) >> shift]++] = keys[i];
  }
  size_t begin = 0;
  size_t r = 0;
  for (size_t b = 0; b < num_buckets && r < ranks.size(); ++b) {
    const size_t end = cursor[b];
    size_t r_end = r;
    while (r_end < ranks.size() && ranks[r_end] - base < end) {
      ++r_end;
    }
    if (r_end > r) {
      KeyRange bucket;
      if (end - begin > kMaxSortedRange) {
        for (size_t i = begin; i < end; ++i) {
          bucket.Add(spare[i]);
        }
      }
      SelectKeys(spare + begin, keys + begin, end - begin, base + begin, bucket,
                 ranks.subspan(r, r_end - r), out + r);
    }
    r = r_end;
    begin = end;
  }
}

}  // namespace

double Percentile(std::span<const double> values, double p) {
  return Percentiles(values, std::span<const double>(&p, 1)).front();
}

std::vector<double> Percentiles(std::span<const double> values, std::span<const double> ps) {
  const size_t n = values.size();
  TAO_CHECK_GT(n, 0u);
  TAO_CHECK_LE(n, size_t{UINT32_MAX});
  std::vector<double> out;
  out.reserve(ps.size());
  if (n <= kMaxSortedRange) {
    double sorted[kMaxSortedRange] = {};
    for (size_t i = 0; i < n; ++i) {
      TAO_CHECK(!std::isnan(values[i])) << "NaN percentile input";
      sorted[i] = values[i];
    }
    std::sort(sorted, sorted + n);
    for (const double p : ps) {
      out.push_back(PercentileOfSorted({sorted, n}, p));
    }
    return out;
  }
  if (2 * ps.size() > kStackRanks) {
    std::vector<double> head = Percentiles(values, ps.first(kStackRanks / 2));
    const std::vector<double> tail = Percentiles(values, ps.subspan(kStackRanks / 2));
    head.insert(head.end(), tail.begin(), tail.end());
    return head;
  }
  // Every probe reads the order statistics at its lo and hi ranks.
  size_t ranks[kStackRanks] = {};
  uint64_t rank_keys[kStackRanks] = {};
  size_t num_ranks = 0;
  for (const double p : ps) {
    const Rank r = RankOf(n, p);
    ranks[num_ranks++] = r.lo;
    ranks[num_ranks++] = r.hi;
  }
  std::sort(ranks, ranks + num_ranks);
  num_ranks = static_cast<size_t>(std::unique(ranks, ranks + num_ranks) - ranks);

  const auto scratch = std::make_unique_for_overwrite<uint64_t[]>(2 * n);
  bool has_nan = false;
  KeyRange range;
  for (size_t i = 0; i < n; ++i) {
    has_nan |= std::isnan(values[i]);
    scratch[i] = ToKey(values[i]);
    range.Add(scratch[i]);
  }
  TAO_CHECK(!has_nan) << "NaN percentile input";
  SelectKeys(scratch.get(), scratch.get() + n, n, 0, range, {ranks, num_ranks}, rank_keys);

  const auto at = [&](size_t rank) {
    return FromKey(rank_keys[std::lower_bound(ranks, ranks + num_ranks, rank) - ranks]);
  };
  for (const double p : ps) {
    const Rank r = RankOf(n, p);
    out.push_back(Interpolate(n, r, at(r.lo), at(r.hi)));
  }
  return out;
}

double Mean(std::span<const double> values) {
  TAO_CHECK(!values.empty());
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double Median(std::span<const double> values) { return Percentile(values, 50.0); }

double StdDev(std::span<const double> values) {
  if (values.size() < 2) {
    return 0.0;
  }
  const double mu = Mean(values);
  double acc = 0.0;
  for (const double v : values) {
    acc += (v - mu) * (v - mu);
  }
  return std::sqrt(acc / static_cast<double>(values.size() - 1));
}

double MinValue(std::span<const double> values) {
  TAO_CHECK(!values.empty());
  return *std::min_element(values.begin(), values.end());
}

double MaxValue(std::span<const double> values) {
  TAO_CHECK(!values.empty());
  return *std::max_element(values.begin(), values.end());
}

BoxStats ComputeBoxStats(std::span<const double> values) {
  BoxStats stats;
  if (values.empty()) {
    return stats;
  }
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  stats.min = sorted.front();
  stats.max = sorted.back();
  stats.q1 = PercentileOfSorted(sorted, 25.0);
  stats.median = PercentileOfSorted(sorted, 50.0);
  stats.q3 = PercentileOfSorted(sorted, 75.0);
  stats.mean = Mean(values);
  stats.n = values.size();
  return stats;
}

std::vector<double> RunningMedians(std::span<const double> values) {
  std::vector<double> medians;
  medians.reserve(values.size());
  std::vector<double> sorted;
  sorted.reserve(values.size());
  for (const double v : values) {
    sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), v), v);
    const size_t n = sorted.size();
    if (n % 2 == 1) {
      medians.push_back(sorted[n / 2]);
    } else {
      medians.push_back(0.5 * (sorted[n / 2 - 1] + sorted[n / 2]));
    }
  }
  return medians;
}

std::vector<double> RollingMedians(std::span<const double> values, size_t window) {
  TAO_CHECK_GT(window, 0u);
  std::vector<double> out;
  if (values.size() < window) {
    return out;
  }
  out.reserve(values.size() - window + 1);
  std::vector<double> buf(window);
  for (size_t end = window; end <= values.size(); ++end) {
    std::copy(values.begin() + (end - window), values.begin() + end, buf.begin());
    std::sort(buf.begin(), buf.end());
    if (window % 2 == 1) {
      out.push_back(buf[window / 2]);
    } else {
      out.push_back(0.5 * (buf[window / 2 - 1] + buf[window / 2]));
    }
  }
  return out;
}

double SymmetricRelChange(double a, double b, double eps) {
  return 2.0 * std::abs(a - b) / (std::abs(a) + std::abs(b) + eps);
}

}  // namespace tao
