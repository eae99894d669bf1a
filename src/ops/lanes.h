// Operands of simd::DotLanes (src/device/simd.h) for the dense kernels. matmul, bmm,
// linear and conv2d compute their outputs eight at a time, one output per vector lane,
// each lane in the profile's own reduction order, on every profile.

#ifndef TAO_SRC_OPS_LANES_H_
#define TAO_SRC_OPS_LANES_H_

#include <algorithm>
#include <cstdint>
#include <optional>

#include "src/device/simd.h"
#include "src/ops/op_kernel.h"

namespace tao {

// Number of DotLanes calls covering `outputs` outputs.
inline int64_t LaneGroups(int64_t outputs) {
  return (outputs + simd::kLanes - 1) / simd::kLanes;
}

// `rows` weight rows of length k (linear output features, conv2d output channels),
// eight rows per DotLanes call. When two or more input rows or positions reuse the
// weights, they are packed once per call into arena scratch (simd::PackLanes) so each
// index is one contiguous vector. Otherwise they are read in place: the lane kernels
// gather one lane per row, and a vector-eligible profile takes each row as one
// contiguous operand.
class LaneWeights {
 public:
  LaneWeights(const OpContext& ctx, const float* w, int64_t rows, int64_t k, bool reused)
      : ctx_(ctx), w_(w), rows_(rows), k_(k) {
    if (reused) {
      packed_ = ctx.AllocateScratch(Shape{LaneGroups(rows), k, simd::kLanes});
      simd::PackLanes(w, rows, k, packed_->mutable_values().data());
      w_ = packed_->values().data();
    }
  }
  ~LaneWeights() {
    if (packed_.has_value()) {
      ctx_.Recycle(std::move(*packed_));
    }
  }
  LaneWeights(const LaneWeights&) = delete;
  LaneWeights& operator=(const LaneWeights&) = delete;

  // Outputs of rows [8 * group, 8 * group + lanes(group)) against `a` (contiguous).
  void Dot(const float* a, int64_t group, float* out) const {
    const int64_t row0 = group * simd::kLanes;
    simd::DotLanes(ctx_.device, a, 1, w_ + row0 * k_, packed_.has_value() ? 1 : k_,
                   packed_.has_value() ? simd::kLanes : 1, k_, lanes(group), out);
  }
  int64_t lanes(int64_t group) const {
    return std::min(simd::kLanes, rows_ - group * simd::kLanes);
  }

 private:
  const OpContext& ctx_;
  const float* w_;
  int64_t rows_;
  int64_t k_;
  std::optional<Tensor> packed_;
};

}  // namespace tao

#endif  // TAO_SRC_OPS_LANES_H_
