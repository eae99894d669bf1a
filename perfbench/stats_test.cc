// Unit tests of the benchmark's own arithmetic (perfbench/stats.h).

#include "stats.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> values;
  for (size_t i = n; i >= 1; --i) {  // unsorted on purpose
    values.push_back(static_cast<double>(i));
  }
  return values;
}

TEST(PercentileTest, NearestRankOnSyntheticSamples) {
  const std::vector<double> hundred = OneTo(100);
  EXPECT_EQ(Percentile(hundred, 0.50), 50.0);
  EXPECT_EQ(Percentile(hundred, 0.99), 99.0);
  EXPECT_EQ(Percentile(hundred, 1.00), 100.0);
  EXPECT_EQ(Percentile(hundred, 0.0), 1.0);
  EXPECT_EQ(Percentile(OneTo(1000), 0.99), 990.0);
  EXPECT_EQ(Percentile(OneTo(7), 0.5), 4.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
}

TEST(PercentileTest, TailKeepsTenSamplesBeyondIt) {
  EXPECT_DOUBLE_EQ(SupportedTailPercentile(1000), 0.99);
  EXPECT_DOUBLE_EQ(SupportedTailPercentile(5000), 0.99);
  EXPECT_DOUBLE_EQ(SupportedTailPercentile(500), 0.98);
  EXPECT_DOUBLE_EQ(SupportedTailPercentile(100), 0.90);
  EXPECT_DOUBLE_EQ(SupportedTailPercentile(11), 1.0 / 11.0);
  EXPECT_EQ(SupportedTailPercentile(10), 0.0);
  for (const size_t n : {11u, 57u, 333u, 999u, 1000u, 1001u, 4321u}) {
    const double q = SupportedTailPercentile(n);
    const size_t rank = PercentileRank(n, q);
    EXPECT_GE(n - rank, 10u) << n;
    EXPECT_LE(q, 0.99 + 1e-12) << n;
    // One rank higher would leave fewer than ten beyond it, unless q hit the cap.
    if (q < 0.99) {
      EXPECT_LT(n - (rank + 1), 10u) << n;
    }
  }
}

TEST(ScheduleTest, DeterministicOrderedAndAtTheRate) {
  const std::vector<int64_t> a = OpenLoopSchedule(7, 200.0, 1000);
  EXPECT_EQ(a, OpenLoopSchedule(7, 200.0, 1000));
  EXPECT_NE(a, OpenLoopSchedule(8, 200.0, 1000));
  ASSERT_EQ(a.size(), 1000u);
  const int64_t gap_ns = 5'000'000;
  for (size_t i = 0; i < a.size(); ++i) {
    const int64_t centre = static_cast<int64_t>(i) * gap_ns + gap_ns / 2;
    EXPECT_LE(std::abs(a[i] - centre), gap_ns / 4 + 1) << i;
    if (i > 0) {
      EXPECT_LE(a[i - 1], a[i]);
    }
  }
  // The whole schedule spans count / rate seconds.
  EXPECT_LE(a.back(), 5'000'000'000);
  EXPECT_GE(a.back(), 5'000'000'000 - gap_ns);
}

TEST(ScheduleTest, LagCountsOnlyLateSends) {
  std::vector<int64_t> due;
  std::vector<int64_t> sent;
  for (int64_t i = 0; i < 100; ++i) {
    due.push_back(i * 1'000'000);
    // Early sends count as zero lag; sends 90..99 run 1..10 ms late.
    sent.push_back(i < 90 ? due.back() - 500'000 : due.back() + (i - 89) * 1'000'000);
  }
  const LagStats lag = SummarizeLag(due, sent);
  EXPECT_DOUBLE_EQ(lag.max_ms, 10.0);
  EXPECT_DOUBLE_EQ(lag.p99_ms, 9.0);
  EXPECT_FALSE(GeneratorFellBehind(lag, 9.0));
  EXPECT_TRUE(GeneratorFellBehind(lag, 8.5));
}

TEST(BlockRatesTest, OneRatePerWholeBlock) {
  // Completions at 0 10 20 30 50 60 70 ms, given unsorted. Blocks of three
  // span 0->30 ms (100/s) and 30->70 ms (75/s).
  const std::vector<int64_t> done = {60'000'000, 0, 10'000'000, 20'000'000,
                                     30'000'000, 50'000'000, 70'000'000};
  const std::vector<double> rates = BlockRates(done, 3);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 100.0);
  EXPECT_DOUBLE_EQ(rates[1], 75.0);
  // A trailing partial block is dropped; too few completions give no rate.
  EXPECT_EQ(BlockRates(done, 4).size(), 1u);
  EXPECT_TRUE(BlockRates(done, 7).empty());
  EXPECT_TRUE(BlockRates(done, 0).empty());
}

TEST(SelfTimeTest, ParentMinusCoveredChildInterval) {
  // root [0,100] with overlapping children [10,30] and [20,50] (union 40) and a
  // child running past the root's end [90,130] (clipped to [90,100]), whose own
  // child [95,140] is clipped to the clipped parent.
  const std::vector<Span> spans = {{-1, 0, 100}, {0, 10, 30}, {0, 20, 50},
                                   {0, 90, 130}, {2, 25, 45}, {3, 95, 140}};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30 - 20);
  EXPECT_EQ(self[3], 10 - 5);
  EXPECT_EQ(self[4], 20);
  EXPECT_EQ(self[5], 5);
}

TEST(SelfTimeTest, ChildBeforeItsParentCountsNothing) {
  // A worker span that began long before the claim was queued: only its overlap
  // with the parent is on the claim's path.
  const std::vector<Span> spans = {{-1, 1000, 2000}, {0, 1200, 1500}, {1, 0, 1300}};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 700);
  EXPECT_EQ(self[1], 200);
  EXPECT_EQ(self[2], 100);
}

TEST(SelfTimeTest, DisjointChainSumsToRoot) {
  // A claim's chain of disjoint stages: self times partition the root exactly.
  const std::vector<Span> spans = {{-1, 0, 1000}, {0, 0, 100},  {0, 100, 400},
                                   {2, 150, 300}, {0, 400, 950}};
  const std::vector<int64_t> self = SelfTimes(spans);
  int64_t sum = 0;
  for (const int64_t value : self) {
    sum += value;
  }
  EXPECT_EQ(sum, 1000);
  EXPECT_EQ(self[0], 50);
}

}  // namespace
}  // namespace perfbench
