// Descriptive statistics used by calibration, the stability diagnostics of Appendix B,
// and the bench harnesses (percentiles, boxplot five-number summaries, running medians).

#ifndef TAO_SRC_UTIL_STATS_H_
#define TAO_SRC_UTIL_STATS_H_

#include <cstddef>
#include <span>
#include <vector>

namespace tao {

// Linear-interpolated percentile of `values` at p in [0, 100], matching numpy's default
// ("linear") method, which is what the paper's calibration pipeline uses. `values` need
// not be sorted and are not modified. Empty input and NaN values are programming errors
// (threshold checks never pass a NaN error; see AbsErrors).
double Percentile(std::span<const double> values, double p);

// Percentiles at many probes from one exact selection: only the (at most 2 * |ps|)
// order statistics the probes interpolate between are located, by radix partitioning
// of the values' order-preserving bit patterns, with no full sort. Every result is
// bitwise the value a full sort would give. Keeps no state between calls.
std::vector<double> Percentiles(std::span<const double> values, std::span<const double> ps);

double Mean(std::span<const double> values);
double Median(std::span<const double> values);
// Sample standard deviation (n-1 denominator); returns 0 for n < 2.
double StdDev(std::span<const double> values);
double MinValue(std::span<const double> values);
double MaxValue(std::span<const double> values);

// Five-number summary for boxplots (Fig. 5): min, q1, median, q3, max plus mean.
struct BoxStats {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  double mean = 0.0;
  size_t n = 0;
};

BoxStats ComputeBoxStats(std::span<const double> values);

// Running median sequence: element k is median of values[0..k] (Appendix B, Eq. 37).
std::vector<double> RunningMedians(std::span<const double> values);

// Median of each length-`window` sliding window ending at k = window-1 .. n-1 (Eq. 42).
std::vector<double> RollingMedians(std::span<const double> values, size_t window);

// Symmetric relative change delta(a, b) = 2|a-b| / (|a|+|b|+eps)  (Appendix B, Eq. 38).
double SymmetricRelChange(double a, double b, double eps = 1e-12);

}  // namespace tao

#endif  // TAO_SRC_UTIL_STATS_H_
