#include "src/calib/threshold.h"
#include <limits>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/crypto/merkle.h"
#include "src/util/check.h"
#include "src/util/stats.h"

namespace tao {

const std::vector<double>& PercentileGrid() {
  static const std::vector<double> kGrid = [] {
    std::vector<double> grid = {0.0, 1.0};
    for (double p = 5.0; p <= 90.0; p += 5.0) {
      grid.push_back(p);
    }
    grid.push_back(95.0);
    grid.push_back(99.0);
    grid.push_back(100.0);
    return grid;
  }();
  return kGrid;
}

std::vector<double> ComputeProfile(std::span<const double> errors) {
  return Percentiles(errors, PercentileGrid());
}

void ThresholdSet::SetNode(NodeId id, OpThreshold threshold) {
  TAO_CHECK_EQ(threshold.abs.size(), grid_.size());
  TAO_CHECK_EQ(threshold.rel.size(), grid_.size());
  ops_[id] = std::move(threshold);
}

const OpThreshold& ThresholdSet::node(NodeId id) const {
  const auto it = ops_.find(id);
  TAO_CHECK(it != ops_.end()) << "no thresholds for node " << id;
  return it->second;
}

std::vector<NodeId> ThresholdSet::NodeIds() const {
  std::vector<NodeId> ids;
  ids.reserve(ops_.size());
  for (const auto& [id, tau] : ops_) {
    ids.push_back(id);
  }
  return ids;
}

ThresholdSet ThresholdSet::Scaled(double factor) const {
  ThresholdSet scaled(grid_, alpha_ * factor);
  for (const auto& [id, threshold] : ops_) {
    OpThreshold t = threshold;
    for (double& v : t.abs) {
      v *= factor;
    }
    for (double& v : t.rel) {
      v *= factor;
    }
    scaled.ops_[id] = std::move(t);
  }
  return scaled;
}

double ThresholdSet::MaxRatio(NodeId id, const Tensor& proposed, const Tensor& reference,
                              double eps) const {
  const OpThreshold& tau = node(id);
  const std::vector<double> abs_profile = ComputeProfile(AbsErrors(proposed, reference));
  const std::vector<double> rel_profile = ComputeProfile(RelErrors(proposed, reference, eps));
  // An infinite error (a NaN or infinite element against a different value; see
  // AbsErrors) offends whatever the taus, however few such elements there are. The
  // profile's p100 reads it as NaN (inf + 0 * (inf - inf)), or +inf for one element.
  if (!std::isfinite(abs_profile.back())) {
    return std::numeric_limits<double>::infinity();
  }
  // Zero tau entries at low percentiles only record that the calibration error
  // distribution's lower tail touched zero; they impose no constraint (honest fresh
  // runs can have strictly positive minima). The exception is an operator whose
  // *entire* profile is zero — calibrated as bitwise-reproducible — which must
  // reproduce exactly.
  bool all_zero = true;
  for (size_t k = 0; k < grid_.size(); ++k) {
    if (tau.abs[k] > 0.0 || tau.rel[k] > 0.0) {
      all_zero = false;
      break;
    }
  }
  if (all_zero) {
    return (abs_profile.back() == 0.0) ? 0.0 : std::numeric_limits<double>::infinity();
  }
  // allclose-style combination: a deviation is admissible at a percentile when it fits
  // EITHER the absolute or the relative envelope (near-zero elements make max relative
  // error unstable; large-magnitude elements make absolute error the wrong yardstick).
  // An offending deviation must exceed both caps wherever both exist.
  double max_ratio = 0.0;
  for (size_t k = 0; k < grid_.size(); ++k) {
    const bool has_abs = tau.abs[k] > 0.0;
    const bool has_rel = tau.rel[k] > 0.0;
    double ratio = 0.0;
    if (has_abs && has_rel) {
      ratio = std::min(abs_profile[k] / tau.abs[k], rel_profile[k] / tau.rel[k]);
    } else if (has_abs) {
      ratio = abs_profile[k] / tau.abs[k];
    } else if (has_rel) {
      ratio = rel_profile[k] / tau.rel[k];
    }
    max_ratio = std::max(max_ratio, ratio);
  }
  return max_ratio;
}

double ThresholdSet::AbsCap(NodeId id, double rank) const {
  TAO_CHECK(rank >= 0.0 && rank <= 1.0);
  const OpThreshold& tau = node(id);
  // Knots: (0, 0), (grid[k]/100, tau.abs[k]) ..., (1, tau.abs.back()).
  double prev_rank = 0.0;
  double prev_value = 0.0;
  for (size_t k = 0; k < grid_.size(); ++k) {
    const double knot_rank = grid_[k] / 100.0;
    // Enforce monotonicity of the cap values.
    const double knot_value = std::max(tau.abs[k], prev_value);
    if (rank <= knot_rank) {
      if (knot_rank == prev_rank) {
        return knot_value;
      }
      const double frac = (rank - prev_rank) / (knot_rank - prev_rank);
      return prev_value + frac * (knot_value - prev_value);
    }
    prev_rank = knot_rank;
    prev_value = knot_value;
  }
  return prev_value;
}

std::string ThresholdSet::CanonicalNode(NodeId id) const {
  const OpThreshold& tau = node(id);
  std::ostringstream out;
  out << "node=" << id << ";alpha=" << alpha_ << ";abs=[";
  for (size_t k = 0; k < tau.abs.size(); ++k) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", tau.abs[k]);
    out << (k ? "," : "") << buf;
  }
  out << "];rel=[";
  for (size_t k = 0; k < tau.rel.size(); ++k) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", tau.rel[k]);
    out << (k ? "," : "") << buf;
  }
  out << "]";
  return out.str();
}

Digest ThresholdSet::CommitRoot() const {
  std::vector<Digest> leaves;
  leaves.reserve(ops_.size());
  for (const auto& [id, tau] : ops_) {
    leaves.push_back(Sha256::Hash(CanonicalNode(id)));
  }
  return MerkleTree(std::move(leaves)).root();
}

}  // namespace tao
