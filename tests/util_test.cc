// Unit tests for src/util: RNG determinism and distributions, statistics, tables.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "src/calib/threshold.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace tao {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBoundedWithinBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(11);
  const int n = 50000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, PermutationIsValid) {
  Rng rng(5);
  const auto perm = rng.Permutation(100);
  std::vector<bool> seen(100, false);
  for (const size_t p : perm) {
    ASSERT_LT(p, 100u);
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(9);
  Rng child = parent.Fork();
  // Child stream should not equal a fresh parent-seeded stream element-for-element.
  Rng parent_again(9);
  (void)parent_again.NextU64();  // consume the value that seeded the fork
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (child.NextU64() == parent_again.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 5);
}

TEST(StatsTest, PercentileMatchesLinearInterpolation) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 25.0), 1.75);
}

TEST(StatsTest, PercentileSingleElement) {
  const std::vector<double> v = {3.5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 3.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 57.0), 3.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 3.5);
}

TEST(StatsTest, PercentilesBatchedMatchesSingle) {
  std::vector<double> v;
  Rng rng(13);
  for (int i = 0; i < 257; ++i) {
    v.push_back(rng.NextGaussian());
  }
  const std::vector<double> ps = {0, 1, 5, 25, 50, 75, 95, 99, 100};
  const auto batched = Percentiles(v, ps);
  for (size_t i = 0; i < ps.size(); ++i) {
    EXPECT_DOUBLE_EQ(batched[i], Percentile(v, ps[i]));
  }
}

TEST(StatsTest, PercentileIsMonotoneInP) {
  std::vector<double> v;
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    v.push_back(rng.NextDouble());
  }
  double prev = Percentile(v, 0.0);
  for (double p = 1.0; p <= 100.0; p += 1.0) {
    const double cur = Percentile(v, p);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

// numpy's "linear" percentile by a full sort: the reference the selection kernel in
// Percentiles must reproduce bit for bit.
std::vector<double> SortedPercentiles(std::vector<double> values, std::span<const double> ps) {
  std::sort(values.begin(), values.end());
  std::vector<double> out;
  for (const double p : ps) {
    if (values.size() == 1) {
      out.push_back(values[0]);
      continue;
    }
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    out.push_back(values[lo] + frac * (values[hi] - values[lo]));
  }
  return out;
}

// Compares Percentiles over the calibration grid, and Percentile at each grid point,
// with the sorted reference by memcmp.
void ExpectSelectionMatchesSort(const std::vector<double>& values, const std::string& what) {
  const std::vector<double>& grid = PercentileGrid();
  const std::vector<double> want = SortedPercentiles(values, grid);
  const std::vector<double> got = Percentiles(values, grid);
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t k = 0; k < grid.size(); ++k) {
    const double single = Percentile(values, grid[k]);
    EXPECT_EQ(std::memcmp(&got[k], &want[k], sizeof(double)), 0)
        << what << " n=" << values.size() << " p=" << grid[k] << ": " << got[k] << " vs "
        << want[k];
    EXPECT_EQ(std::memcmp(&single, &want[k], sizeof(double)), 0)
        << what << " n=" << values.size() << " p=" << grid[k] << " (single probe)";
  }
}

TEST(StatsTest, SelectionMatchesSortAcrossSizes) {
  Rng rng(23);
  for (const size_t n : {1, 2, 3, 47, 48, 49, 50, 1000, 5904, 100000}) {
    std::vector<double> v(n);
    for (double& x : v) {
      x = std::abs(rng.NextGaussian()) * 1e-3;
    }
    ExpectSelectionMatchesSort(v, "abs gaussian");
    for (double& x : v) {
      x = rng.NextGaussian();
    }
    ExpectSelectionMatchesSort(v, "signed gaussian");
  }
}

TEST(StatsTest, SelectionMatchesSortOnTiesAndZeros) {
  for (const size_t n : {49, 1000, 5904}) {
    ExpectSelectionMatchesSort(std::vector<double>(n, 0.25), "all equal");
    ExpectSelectionMatchesSort(std::vector<double>(n, 0.0), "all zero");
  }
  Rng rng(29);
  // 1001 values, so p50 is rank 500 exactly. 200 copies of 0.5 among 801 uniform
  // values sit near ranks 400-600 (p45 to p55); 200 copies of 0.01 sit near ranks
  // 8-208 (p1 to p20).
  std::vector<double> ties(1001);
  for (size_t i = 0; i < ties.size(); ++i) {
    ties[i] = i < 200 ? 0.5 : rng.NextDouble();
  }
  ExpectSelectionMatchesSort(ties, "ties at p50");
  for (size_t i = 0; i < 200; ++i) {
    ties[i] = 0.01;
  }
  ExpectSelectionMatchesSort(ties, "ties at low ranks");
  // 40% zeros: about a third of ResNet-mini's calibration errors are exactly zero.
  for (const size_t n : {50, 1000, 100000}) {
    std::vector<double> v(n);
    for (double& x : v) {
      x = rng.NextDouble() < 0.4 ? 0.0 : rng.NextDouble() * 1e-6;
    }
    ExpectSelectionMatchesSort(v, "40% zeros");
  }
}

TEST(StatsTest, SelectionMatchesSortOnSpecialValues) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0, -0.0, denorm, 37 * denorm, -denorm,
                             inf, -1.5, -1e300, 1e-310, 2.0};
  Rng rng(31);
  for (const size_t n : {2, 3, 48, 49, 1000, 5904}) {
    std::vector<double> v(n);
    for (double& x : v) {
      x = rng.NextDouble() < 0.5 ? specials[rng.NextBounded(std::size(specials))]
                                 : rng.NextGaussian();
    }
    ExpectSelectionMatchesSort(v, "specials");
  }
  // Signed zeros alone: the kernel orders -0.0 below +0.0, a sort in either order;
  // the interpolation gives the same bits.
  std::vector<double> zeros(1000);
  for (double& x : zeros) {
    x = rng.NextDouble() < 0.5 ? 0.0 : -0.0;
  }
  ExpectSelectionMatchesSort(zeros, "signed zeros");
  ExpectSelectionMatchesSort(std::vector<double>(100, inf), "all +inf");
}

TEST(StatsTest, SelectionMatchesSortAcrossBinades) {
  Rng rng(37);
  for (const size_t n : {49, 1000, 100000}) {
    std::vector<double> wide(n);
    std::vector<double> narrow(n);
    for (size_t i = 0; i < n; ++i) {
      wide[i] = std::ldexp(1.0 + rng.NextDouble(), -static_cast<int>(rng.NextBounded(30)));
      narrow[i] = 1.0 + rng.NextDouble();  // one binade, [1, 2)
    }
    ExpectSelectionMatchesSort(wide, "30 binades");
    ExpectSelectionMatchesSort(narrow, "one binade");
    for (size_t i = 0; i < n; ++i) {
      narrow[i] = 1.0 + std::ldexp(static_cast<double>(rng.NextBounded(64)), -52);
    }
    ExpectSelectionMatchesSort(narrow, "64 adjacent doubles");
  }
}

TEST(StatsTest, SelectionMatchesSortForManyProbes) {
  // 101 probes need more order statistics than one selection tracks at a time.
  Rng rng(41);
  std::vector<double> v(1000);
  for (double& x : v) {
    x = rng.NextGaussian();
  }
  std::vector<double> ps;
  for (int p = 0; p <= 100; ++p) {
    ps.push_back(p);
  }
  const std::vector<double> want = SortedPercentiles(v, ps);
  const std::vector<double> got = Percentiles(v, ps);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0);
}

TEST(StatsTest, PercentileRejectsNaN) {
  std::vector<double> v(100, 1.0);
  v[37] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(Percentiles(v, PercentileGrid()), "NaN");
  EXPECT_DEATH(Percentile(std::span<const double>(v).first(40), 50.0), "NaN");
}

TEST(StatsTest, MeanMedianStdDev) {
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_DOUBLE_EQ(Median(v), 4.5);
  EXPECT_NEAR(StdDev(v), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(StatsTest, BoxStatsFiveNumberSummary) {
  const std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const BoxStats box = ComputeBoxStats(v);
  EXPECT_DOUBLE_EQ(box.min, 1.0);
  EXPECT_DOUBLE_EQ(box.median, 5.0);
  EXPECT_DOUBLE_EQ(box.max, 9.0);
  EXPECT_DOUBLE_EQ(box.q1, 3.0);
  EXPECT_DOUBLE_EQ(box.q3, 7.0);
  EXPECT_EQ(box.n, 9u);
}

TEST(StatsTest, RunningMediansIncremental) {
  const std::vector<double> v = {5.0, 1.0, 3.0, 2.0};
  const auto medians = RunningMedians(v);
  ASSERT_EQ(medians.size(), 4u);
  EXPECT_DOUBLE_EQ(medians[0], 5.0);
  EXPECT_DOUBLE_EQ(medians[1], 3.0);
  EXPECT_DOUBLE_EQ(medians[2], 3.0);
  EXPECT_DOUBLE_EQ(medians[3], 2.5);
}

TEST(StatsTest, RollingMediansWindow) {
  const std::vector<double> v = {1, 9, 2, 8, 3};
  const auto rolled = RollingMedians(v, 3);
  ASSERT_EQ(rolled.size(), 3u);
  EXPECT_DOUBLE_EQ(rolled[0], 2.0);  // {1,9,2}
  EXPECT_DOUBLE_EQ(rolled[1], 8.0);  // {9,2,8}
  EXPECT_DOUBLE_EQ(rolled[2], 3.0);  // {2,8,3}
}

TEST(StatsTest, RollingMediansTooShortReturnsEmpty) {
  const std::vector<double> v = {1.0, 2.0};
  EXPECT_TRUE(RollingMedians(v, 3).empty());
}

TEST(StatsTest, SymmetricRelChangeProperties) {
  EXPECT_DOUBLE_EQ(SymmetricRelChange(1.0, 1.0), 0.0);
  EXPECT_NEAR(SymmetricRelChange(1.0, 3.0), 2.0 * 2.0 / 4.0, 1e-9);
  // Symmetry.
  EXPECT_DOUBLE_EQ(SymmetricRelChange(2.0, 5.0), SymmetricRelChange(5.0, 2.0));
}

TEST(TableTest, RendersHeaderAndRows) {
  TablePrinter table({"model", "ASR"});
  table.AddRow({"BERT", "0.0%"});
  table.AddRow({"Qwen-mini", "2.4%"});
  const std::string rendered = table.Render();
  EXPECT_NE(rendered.find("model"), std::string::npos);
  EXPECT_NE(rendered.find("Qwen-mini"), std::string::npos);
  EXPECT_NE(rendered.find("2.4%"), std::string::npos);
  // Header + rule + 2 rows = 4 lines.
  EXPECT_EQ(std::count(rendered.begin(), rendered.end(), '\n'), 4);
}

TEST(TableTest, NumericFormatters) {
  EXPECT_EQ(TablePrinter::Fixed(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Scientific(0.000123, 2), "1.23e-04");
  EXPECT_EQ(TablePrinter::Pct(0.024, 1), "2.4%");
}

}  // namespace
}  // namespace tao
