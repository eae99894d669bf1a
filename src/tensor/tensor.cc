#include "src/tensor/tensor.h"

#include <cmath>

namespace tao {

double MaxAbsDiff(const Tensor& a, const Tensor& b) {
  TAO_CHECK(a.shape() == b.shape())
      << "shape mismatch " << a.shape().ToString() << " vs " << b.shape().ToString();
  double max_diff = 0.0;
  const auto av = a.values();
  const auto bv = b.values();
  for (size_t i = 0; i < av.size(); ++i) {
    const double d = std::abs(static_cast<double>(av[i]) - static_cast<double>(bv[i]));
    if (d > max_diff) {
      max_diff = d;
    }
  }
  return max_diff;
}

std::vector<double> AbsErrors(const Tensor& a, const Tensor& b) {
  TAO_CHECK(a.shape() == b.shape());
  const auto av = a.values();
  const auto bv = b.values();
  std::vector<double> errors(av.size());
  for (size_t i = 0; i < av.size(); ++i) {
    errors[i] = AbsError(av[i], bv[i]);
  }
  return errors;
}

std::vector<double> RelErrors(const Tensor& a, const Tensor& b, double eps) {
  TAO_CHECK(a.shape() == b.shape());
  const auto av = a.values();
  const auto bv = b.values();
  std::vector<double> errors(av.size());
  for (size_t i = 0; i < av.size(); ++i) {
    const double diff = AbsError(av[i], bv[i]);
    const double rel = diff / (std::abs(static_cast<double>(av[i])) + eps);
    errors[i] = std::isnan(rel) ? (diff == 0.0 ? 0.0 : std::numeric_limits<double>::infinity())
                                : rel;
  }
  return errors;
}

}  // namespace tao
