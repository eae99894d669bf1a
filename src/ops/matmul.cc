// Dense linear algebra: matmul (2-D), bmm (batched 3-D), linear (x·Wᵀ + b).
//
// Inner products route through simd::DotLanes, eight outputs at a time, each bit for
// bit DeviceProfile::DotStrided, so that accumulation order and FMA policy — the real
// nondeterminism surface of GPU GEMM kernels — vary across the fleet. Every profile
// takes the same path: matmul and bmm read eight consecutive columns straight from
// B's rows, and linear reads (or packs, see LaneWeights) eight weight rows. Bounds use
// the classic inner-product result
//   |fl(xᵀy) − xᵀy| ≤ γ_k · Σ|x_i||y_i|
// with γ_k or γ̃_k(λ) per BoundContext::mode; linear adds one bias-add rounding.

#include <algorithm>
#include <cmath>

#include "src/device/simd.h"
#include "src/ops/lanes.h"
#include "src/ops/op_kernel.h"
#include "src/util/check.h"

namespace tao {
namespace {

// Task q of an [m, k] x [k, n] product is one DotLanes call for row q % m and the eight
// output columns of group q / m, every lane reading its column straight from B's rows.
// Consecutive tasks reuse one k x 8 strip of B, and tasks write disjoint outputs, so
// splitting them is bitwise safe.
void MatmulLaneTask(const OpContext& ctx, const float* av, const float* bv, float* ov,
                    int64_t m, int64_t n, int64_t k, int64_t q) {
  const int64_t j = q / m * simd::kLanes;
  const int64_t i = q % m;
  simd::DotLanes(ctx.device, av + i * k, 1, bv + j, 1, n, k, std::min(simd::kLanes, n - j),
                 ov + i * n + j);
}

class MatmulKernel : public OpKernel {
 public:
  std::string name() const override { return "matmul"; }

  Shape InferShape(const std::vector<Shape>& input_shapes, const Attrs& attrs) const override {
    TAO_CHECK_EQ(input_shapes.size(), 2u);
    const Shape& a = input_shapes[0];
    const Shape& b = input_shapes[1];
    TAO_CHECK_EQ(a.rank(), 2);
    TAO_CHECK_EQ(b.rank(), 2);
    TAO_CHECK_EQ(a.dim(1), b.dim(0));
    return Shape{a.dim(0), b.dim(1)};
  }

  Tensor Forward(const OpContext& ctx) const override {
    const Tensor& a = ctx.inputs[0];
    const Tensor& b = ctx.inputs[1];
    const int64_t m = a.shape().dim(0);
    const int64_t k = a.shape().dim(1);
    const int64_t n = b.shape().dim(1);
    Tensor out = ctx.AllocateOutput(Shape{m, n});
    const float* av = a.values().data();
    const float* bv = b.values().data();
    auto ov = out.mutable_values();
    ctx.For(LaneGroups(n) * m, [&](int64_t begin, int64_t end) {
      for (int64_t q = begin; q < end; ++q) {
        MatmulLaneTask(ctx, av, bv, ov.data(), m, n, k, q);
      }
    });
    return out;
  }

  DTensor Bound(const BoundContext& ctx) const override {
    const Tensor& a = ctx.inputs[0];
    const Tensor& b = ctx.inputs[1];
    const int64_t m = a.shape().dim(0);
    const int64_t k = a.shape().dim(1);
    const int64_t n = b.shape().dim(1);
    const double gamma = AccumulationGamma(k, ctx.mode, ctx.lambda);
    DTensor bound(ctx.output.shape());
    const float* av = a.values().data();
    const float* bv = b.values().data();
    auto out = bound.mutable_values();
    ctx.For(m, [&](int64_t row_begin, int64_t row_end) {
      for (int64_t i = row_begin; i < row_end; ++i) {
        for (int64_t j = 0; j < n; ++j) {
          double abs_dot = 0.0;
          for (int64_t p = 0; p < k; ++p) {
            abs_dot += std::abs(static_cast<double>(av[i * k + p])) *
                       std::abs(static_cast<double>(bv[p * n + j]));
          }
          out[static_cast<size_t>(i * n + j)] = gamma * abs_dot;
        }
      }
    });
    return bound;
  }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    const Tensor& a = ctx.inputs[0];
    const Tensor& b = ctx.inputs[1];
    const int64_t m = a.shape().dim(0);
    const int64_t k = a.shape().dim(1);
    const int64_t n = b.shape().dim(1);
    Tensor ga(a.shape());
    Tensor gb(b.shape());
    const auto av = a.values();
    const auto bv = b.values();
    const auto gv = ctx.grad_output.values();
    auto gav = ga.mutable_values();
    auto gbv = gb.mutable_values();
    // gA = g · Bᵀ
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t p = 0; p < k; ++p) {
        double acc = 0.0;
        for (int64_t j = 0; j < n; ++j) {
          acc += static_cast<double>(gv[static_cast<size_t>(i * n + j)]) *
                 static_cast<double>(bv[static_cast<size_t>(p * n + j)]);
        }
        gav[static_cast<size_t>(i * k + p)] = static_cast<float>(acc);
      }
    }
    // gB = Aᵀ · g
    for (int64_t p = 0; p < k; ++p) {
      for (int64_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (int64_t i = 0; i < m; ++i) {
          acc += static_cast<double>(av[static_cast<size_t>(i * k + p)]) *
                 static_cast<double>(gv[static_cast<size_t>(i * n + j)]);
        }
        gbv[static_cast<size_t>(p * n + j)] = static_cast<float>(acc);
      }
    }
    return {ga, gb};
  }

  int64_t Flops(const std::vector<Shape>& input_shapes, const Shape& output_shape,
                const Attrs& attrs) const override {
    return 2 * output_shape.numel() * input_shapes[0].dim(1);
  }
};

class BmmKernel : public OpKernel {
 public:
  std::string name() const override { return "bmm"; }

  Shape InferShape(const std::vector<Shape>& input_shapes, const Attrs& attrs) const override {
    TAO_CHECK_EQ(input_shapes.size(), 2u);
    const Shape& a = input_shapes[0];
    const Shape& b = input_shapes[1];
    TAO_CHECK_EQ(a.rank(), 3);
    TAO_CHECK_EQ(b.rank(), 3);
    TAO_CHECK_EQ(a.dim(0), b.dim(0));
    TAO_CHECK_EQ(a.dim(2), b.dim(1));
    return Shape{a.dim(0), a.dim(1), b.dim(2)};
  }

  Tensor Forward(const OpContext& ctx) const override {
    const Tensor& a = ctx.inputs[0];
    const Tensor& b = ctx.inputs[1];
    const int64_t batch = a.shape().dim(0);
    const int64_t m = a.shape().dim(1);
    const int64_t k = a.shape().dim(2);
    const int64_t n = b.shape().dim(2);
    Tensor out = ctx.AllocateOutput(Shape{batch, m, n});
    const float* av = a.values().data();
    const float* bv = b.values().data();
    auto ov = out.mutable_values();
    // Split over flattened (batch, lane task) pairs so small-batch bmm still
    // parallelizes.
    const int64_t tasks = LaneGroups(n) * m;  // per batch entry
    ctx.For(batch * tasks, [&](int64_t begin, int64_t end) {
      for (int64_t q = begin; q < end; ++q) {
        const int64_t t = q / tasks;
        MatmulLaneTask(ctx, av + t * m * k, bv + t * k * n, ov.data() + t * m * n, m, n, k,
                       q % tasks);
      }
    });
    return out;
  }

  DTensor Bound(const BoundContext& ctx) const override {
    const Tensor& a = ctx.inputs[0];
    const Tensor& b = ctx.inputs[1];
    const int64_t batch = a.shape().dim(0);
    const int64_t m = a.shape().dim(1);
    const int64_t k = a.shape().dim(2);
    const int64_t n = b.shape().dim(2);
    const double gamma = AccumulationGamma(k, ctx.mode, ctx.lambda);
    DTensor bound(ctx.output.shape());
    const float* av = a.values().data();
    const float* bv = b.values().data();
    auto out = bound.mutable_values();
    ctx.For(batch * m, [&](int64_t begin, int64_t end) {
      for (int64_t r = begin; r < end; ++r) {
        const int64_t t = r / m;
        const int64_t i = r % m;
        const float* at = av + t * m * k;
        const float* bt = bv + t * k * n;
        for (int64_t j = 0; j < n; ++j) {
          double abs_dot = 0.0;
          for (int64_t p = 0; p < k; ++p) {
            abs_dot += std::abs(static_cast<double>(at[i * k + p])) *
                       std::abs(static_cast<double>(bt[p * n + j]));
          }
          out[static_cast<size_t>((t * m + i) * n + j)] = gamma * abs_dot;
        }
      }
    });
    return bound;
  }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    const Tensor& a = ctx.inputs[0];
    const Tensor& b = ctx.inputs[1];
    const int64_t batch = a.shape().dim(0);
    const int64_t m = a.shape().dim(1);
    const int64_t k = a.shape().dim(2);
    const int64_t n = b.shape().dim(2);
    Tensor ga(a.shape());
    Tensor gb(b.shape());
    const auto av = a.values();
    const auto bv = b.values();
    const auto gv = ctx.grad_output.values();
    auto gav = ga.mutable_values();
    auto gbv = gb.mutable_values();
    for (int64_t t = 0; t < batch; ++t) {
      const int64_t ab = t * m * k;
      const int64_t bb = t * k * n;
      const int64_t gbase = t * m * n;
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t p = 0; p < k; ++p) {
          double acc = 0.0;
          for (int64_t j = 0; j < n; ++j) {
            acc += static_cast<double>(gv[static_cast<size_t>(gbase + i * n + j)]) *
                   static_cast<double>(bv[static_cast<size_t>(bb + p * n + j)]);
          }
          gav[static_cast<size_t>(ab + i * k + p)] = static_cast<float>(acc);
        }
      }
      for (int64_t p = 0; p < k; ++p) {
        for (int64_t j = 0; j < n; ++j) {
          double acc = 0.0;
          for (int64_t i = 0; i < m; ++i) {
            acc += static_cast<double>(av[static_cast<size_t>(ab + i * k + p)]) *
                   static_cast<double>(gv[static_cast<size_t>(gbase + i * n + j)]);
          }
          gbv[static_cast<size_t>(bb + p * n + j)] = static_cast<float>(acc);
        }
      }
    }
    return {ga, gb};
  }

  int64_t Flops(const std::vector<Shape>& input_shapes, const Shape& output_shape,
                const Attrs& attrs) const override {
    return 2 * output_shape.numel() * input_shapes[0].dim(2);
  }
};

// linear(x, W, b): y[..., o] = <x[..., :], W[o, :]> + b[o]; x may have any batch rank.
class LinearKernel : public OpKernel {
 public:
  std::string name() const override { return "linear"; }

  Shape InferShape(const std::vector<Shape>& input_shapes, const Attrs& attrs) const override {
    TAO_CHECK_EQ(input_shapes.size(), 3u);
    const Shape& x = input_shapes[0];
    const Shape& w = input_shapes[1];
    TAO_CHECK_EQ(w.rank(), 2);
    TAO_CHECK_EQ(x.dim(-1), w.dim(1));
    TAO_CHECK_EQ(input_shapes[2].numel(), w.dim(0));
    std::vector<int64_t> dims = x.dims();
    dims.back() = w.dim(0);
    return Shape(dims);
  }

  Tensor Forward(const OpContext& ctx) const override {
    const Tensor& x = ctx.inputs[0];
    const Tensor& w = ctx.inputs[1];
    const Tensor& b = ctx.inputs[2];
    const int64_t in = w.shape().dim(1);
    const int64_t out_features = w.shape().dim(0);
    const int64_t rows = x.numel() / in;
    Shape out_shape = InferShape({x.shape(), w.shape(), b.shape()}, ctx.attrs);
    Tensor out = ctx.AllocateOutput(std::move(out_shape));
    const float* xv = x.values().data();
    const float* wv = w.values().data();
    const auto bv = b.values();
    auto ov = out.mutable_values();
    // Task q is (feature group q / rows, row q % rows), so consecutive tasks reuse one
    // group of weight rows.
    const LaneWeights weights(ctx, wv, out_features, in, /*reused=*/rows >= 2);
    ctx.For(LaneGroups(out_features) * rows, [&](int64_t begin, int64_t end) {
      for (int64_t q = begin; q < end; ++q) {
        const int64_t g = q / rows;
        const int64_t r = q % rows;
        float dots[simd::kLanes];
        weights.Dot(xv + r * in, g, dots);
        for (int64_t l = 0; l < weights.lanes(g); ++l) {
          const int64_t o = g * simd::kLanes + l;
          ov[static_cast<size_t>(r * out_features + o)] = dots[l] + bv[static_cast<size_t>(o)];
        }
      }
    });
    return out;
  }

  DTensor Bound(const BoundContext& ctx) const override {
    const Tensor& x = ctx.inputs[0];
    const Tensor& w = ctx.inputs[1];
    const int64_t in = w.shape().dim(1);
    const int64_t out_features = w.shape().dim(0);
    const int64_t rows = x.numel() / in;
    const double gamma = AccumulationGamma(in, ctx.mode, ctx.lambda);
    DTensor bound(ctx.output.shape());
    const float* xv = x.values().data();
    const float* wv = w.values().data();
    const auto yv = ctx.output.values();
    auto out = bound.mutable_values();
    ctx.For(rows, [&](int64_t row_begin, int64_t row_end) {
      for (int64_t r = row_begin; r < row_end; ++r) {
        for (int64_t o = 0; o < out_features; ++o) {
          double abs_dot = 0.0;
          for (int64_t p = 0; p < in; ++p) {
            abs_dot += std::abs(static_cast<double>(xv[r * in + p])) *
                       std::abs(static_cast<double>(wv[o * in + p]));
          }
          const size_t k = static_cast<size_t>(r * out_features + o);
          // Dot-product error plus one rounding of the bias add.
          out[k] = gamma * abs_dot + kUnitRoundoff * std::abs(static_cast<double>(yv[k]));
        }
      }
    });
    return bound;
  }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    const Tensor& x = ctx.inputs[0];
    const Tensor& w = ctx.inputs[1];
    const int64_t in = w.shape().dim(1);
    const int64_t out_features = w.shape().dim(0);
    const int64_t rows = x.numel() / in;
    Tensor gx(x.shape());
    Tensor gw(w.shape());
    Tensor gb(ctx.inputs[2].shape());
    const auto xv = x.values();
    const auto wv = w.values();
    const auto gv = ctx.grad_output.values();
    auto gxv = gx.mutable_values();
    auto gwv = gw.mutable_values();
    auto gbv = gb.mutable_values();
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t p = 0; p < in; ++p) {
        double acc = 0.0;
        for (int64_t o = 0; o < out_features; ++o) {
          acc += static_cast<double>(gv[static_cast<size_t>(r * out_features + o)]) *
                 static_cast<double>(wv[static_cast<size_t>(o * in + p)]);
        }
        gxv[static_cast<size_t>(r * in + p)] = static_cast<float>(acc);
      }
      for (int64_t o = 0; o < out_features; ++o) {
        const float g = gv[static_cast<size_t>(r * out_features + o)];
        gbv[static_cast<size_t>(o)] += g;
        for (int64_t p = 0; p < in; ++p) {
          gwv[static_cast<size_t>(o * in + p)] += g * xv[static_cast<size_t>(r * in + p)];
        }
      }
    }
    return {gx, gw, gb};
  }

  int64_t Flops(const std::vector<Shape>& input_shapes, const Shape& output_shape,
                const Attrs& attrs) const override {
    return 2 * output_shape.numel() * input_shapes[1].dim(1) + output_shape.numel();
  }
};

}  // namespace

void RegisterMatmulOps(OpRegistry& registry) {
  registry.Register(std::make_unique<MatmulKernel>());
  registry.Register(std::make_unique<BmmKernel>());
  registry.Register(std::make_unique<LinearKernel>());
}

}  // namespace tao
