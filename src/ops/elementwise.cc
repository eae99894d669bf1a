// Elementwise binary (Add, Sub, Mul, Div) and unary (Neg, Exp, Log, Sqrt, Rsqrt, Tanh,
// Sin, Cos, Pow) operators.
//
// Forward paths route transcendental intrinsics through the DeviceProfile so different
// devices produce last-ulp-different results. Bound templates follow Sec. 3.1: basic
// arithmetic contributes one fresh rounding u·|out|; library intrinsics contribute
// their vendor-stated maximum-ULP error. Neg is exact (sign-bit flip).

#include <algorithm>
#include <cmath>
#include <functional>

#include "src/device/simd.h"
#include "src/device/vmath.h"
#include "src/ops/broadcast.h"
#include "src/ops/op_kernel.h"
#include "src/util/check.h"

namespace tao {
namespace {

// ------------------------------- binary operators ---------------------------------

class BinaryKernel : public OpKernel {
 public:
  Shape InferShape(const std::vector<Shape>& input_shapes, const Attrs& attrs) const override {
    TAO_CHECK_EQ(input_shapes.size(), 2u);
    return BroadcastShape(input_shapes[0], input_shapes[1]);
  }

  Tensor Forward(const OpContext& ctx) const override {
    TAO_CHECK_EQ(ctx.inputs.size(), 2u);
    const Tensor& a = ctx.inputs[0];
    const Tensor& b = ctx.inputs[1];
    const Shape out_shape = BroadcastShape(a.shape(), b.shape());
    Tensor out = ctx.AllocateOutput(out_shape);
    const auto av = a.values();
    const auto bv = b.values();
    auto ov = out.mutable_values();
    // No broadcasting: both indexers are identities, so chunks apply straight through
    // ApplyVec (vectorized for the four arithmetic kernels, a plain loop otherwise).
    if (a.shape() == out_shape && b.shape() == out_shape) {
      ctx.For(out.numel(), [&](int64_t begin, int64_t end) {
        ApplyVec(av.data() + begin, bv.data() + begin, ov.data() + begin, end - begin);
      });
      return out;
    }
    // One operand is a single element (e.g. attention's scale): splat it into a small
    // buffer and stream the other operand through ApplyVec, without per-element
    // broadcast index arithmetic.
    if ((a.shape() == out_shape && b.numel() == 1) ||
        (b.shape() == out_shape && a.numel() == 1)) {
      const bool scalar_b = b.numel() == 1 && a.shape() == out_shape;
      constexpr int64_t kSplat = 64;
      float splat[kSplat];
      std::fill(splat, splat + kSplat, scalar_b ? bv[0] : av[0]);
      ctx.For(out.numel(), [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; i += kSplat) {
          const int64_t len = std::min(kSplat, end - i);
          ApplyVec(scalar_b ? av.data() + i : splat, scalar_b ? splat : bv.data() + i,
                   ov.data() + i, len);
        }
      });
      return out;
    }
    const BroadcastIndexer ia(out_shape, a.shape());
    const BroadcastIndexer ib(out_shape, b.shape());
    for (int64_t i = 0; i < out.numel(); ++i) {
      ov[static_cast<size_t>(i)] =
          Apply(av[static_cast<size_t>(ia.MapOffset(i))], bv[static_cast<size_t>(ib.MapOffset(i))]);
    }
    return out;
  }

  DTensor Bound(const BoundContext& ctx) const override {
    // One rounding of the exact result: |fl(x∘y) - (x∘y)| <= u * |fl(x∘y)|.
    DTensor bound(ctx.output.shape());
    const auto ov = ctx.output.values();
    auto bv = bound.mutable_values();
    for (size_t i = 0; i < bv.size(); ++i) {
      bv[i] = kUnitRoundoff * std::abs(static_cast<double>(ov[i]));
    }
    return bound;
  }

  int64_t Flops(const std::vector<Shape>& input_shapes, const Shape& output_shape,
                const Attrs& attrs) const override {
    return output_shape.numel();
  }

 protected:
  virtual float Apply(float a, float b) const = 0;

  // Contiguous same-shape batch of Apply; arithmetic kernels override with the SIMD
  // helpers (bitwise-identical: one IEEE rounding per element either way).
  virtual void ApplyVec(const float* a, const float* b, float* out, int64_t n) const {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = Apply(a[i], b[i]);
    }
  }
};

class AddKernel : public BinaryKernel {
 public:
  std::string name() const override { return "add"; }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    return {ReduceGradToShape(ctx.grad_output, ctx.inputs[0].shape()),
            ReduceGradToShape(ctx.grad_output, ctx.inputs[1].shape())};
  }

 protected:
  float Apply(float a, float b) const override { return a + b; }
  void ApplyVec(const float* a, const float* b, float* out, int64_t n) const override {
    simd::AddVec(a, b, out, n);
  }
};

class SubKernel : public BinaryKernel {
 public:
  std::string name() const override { return "sub"; }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    Tensor neg_grad = ctx.grad_output.Clone();
    for (float& g : neg_grad.mutable_values()) {
      g = -g;
    }
    return {ReduceGradToShape(ctx.grad_output, ctx.inputs[0].shape()),
            ReduceGradToShape(neg_grad, ctx.inputs[1].shape())};
  }

 protected:
  float Apply(float a, float b) const override { return a - b; }
  void ApplyVec(const float* a, const float* b, float* out, int64_t n) const override {
    simd::SubVec(a, b, out, n);
  }
};

class MulKernel : public BinaryKernel {
 public:
  std::string name() const override { return "mul"; }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    const Tensor& a = ctx.inputs[0];
    const Tensor& b = ctx.inputs[1];
    const Shape& out_shape = ctx.grad_output.shape();
    Tensor ga(out_shape);
    Tensor gb(out_shape);
    const BroadcastIndexer ia(out_shape, a.shape());
    const BroadcastIndexer ib(out_shape, b.shape());
    const auto av = a.values();
    const auto bv = b.values();
    const auto gv = ctx.grad_output.values();
    auto gav = ga.mutable_values();
    auto gbv = gb.mutable_values();
    for (int64_t i = 0; i < ctx.grad_output.numel(); ++i) {
      const size_t k = static_cast<size_t>(i);
      gav[k] = gv[k] * bv[static_cast<size_t>(ib.MapOffset(i))];
      gbv[k] = gv[k] * av[static_cast<size_t>(ia.MapOffset(i))];
    }
    return {ReduceGradToShape(ga, a.shape()), ReduceGradToShape(gb, b.shape())};
  }

 protected:
  float Apply(float a, float b) const override { return a * b; }
  void ApplyVec(const float* a, const float* b, float* out, int64_t n) const override {
    simd::MulVec(a, b, out, n);
  }
};

class DivKernel : public BinaryKernel {
 public:
  std::string name() const override { return "div"; }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    const Tensor& a = ctx.inputs[0];
    const Tensor& b = ctx.inputs[1];
    const Shape& out_shape = ctx.grad_output.shape();
    Tensor ga(out_shape);
    Tensor gb(out_shape);
    const BroadcastIndexer ia(out_shape, a.shape());
    const BroadcastIndexer ib(out_shape, b.shape());
    const auto av = a.values();
    const auto bv = b.values();
    const auto gv = ctx.grad_output.values();
    auto gav = ga.mutable_values();
    auto gbv = gb.mutable_values();
    for (int64_t i = 0; i < ctx.grad_output.numel(); ++i) {
      const size_t k = static_cast<size_t>(i);
      const float bi = bv[static_cast<size_t>(ib.MapOffset(i))];
      const float ai = av[static_cast<size_t>(ia.MapOffset(i))];
      gav[k] = gv[k] / bi;
      gbv[k] = -gv[k] * ai / (bi * bi);
    }
    return {ReduceGradToShape(ga, a.shape()), ReduceGradToShape(gb, b.shape())};
  }

 protected:
  float Apply(float a, float b) const override { return a / b; }
  void ApplyVec(const float* a, const float* b, float* out, int64_t n) const override {
    simd::DivVec(a, b, out, n);
  }
};

// ------------------------------- unary operators ----------------------------------

class UnaryKernel : public OpKernel {
 public:
  Shape InferShape(const std::vector<Shape>& input_shapes, const Attrs& attrs) const override {
    TAO_CHECK_EQ(input_shapes.size(), 1u);
    return input_shapes[0];
  }

  Tensor Forward(const OpContext& ctx) const override {
    TAO_CHECK_EQ(ctx.inputs.size(), 1u);
    const Tensor& x = ctx.inputs[0];
    Tensor out(x.shape());
    const auto xv = x.values();
    auto ov = out.mutable_values();
    for (size_t i = 0; i < ov.size(); ++i) {
      ov[i] = Apply(ctx.device, xv[i], ctx.attrs);
    }
    return out;
  }

  int64_t Flops(const std::vector<Shape>& input_shapes, const Shape& output_shape,
                const Attrs& attrs) const override {
    return output_shape.numel();
  }

 protected:
  virtual float Apply(const DeviceProfile& device, float x, const Attrs& attrs) const = 0;
};

// Intrinsic bound: n_ulp units in the last place of the output.
DTensor UlpBound(const Tensor& output, double n_ulp) {
  DTensor bound(output.shape());
  const auto ov = output.values();
  auto bv = bound.mutable_values();
  for (size_t i = 0; i < bv.size(); ++i) {
    bv[i] = UlpError(static_cast<double>(ov[i]), n_ulp);
  }
  return bound;
}

Tensor ElementwiseGrad(const VjpContext& ctx, const std::function<float(size_t)>& dfdx) {
  Tensor grad(ctx.inputs[0].shape());
  const auto gv = ctx.grad_output.values();
  auto out = grad.mutable_values();
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = gv[i] * dfdx(i);
  }
  return grad;
}

class NegKernel : public UnaryKernel {
 public:
  std::string name() const override { return "neg"; }

  // Sign-bit flip is exact: zero bound (the base-class default).

  Tensor Forward(const OpContext& ctx) const override {
    const Tensor& x = ctx.inputs[0];
    Tensor out = ctx.AllocateOutput(x.shape());
    const auto xv = x.values();
    auto ov = out.mutable_values();
    ctx.For(out.numel(), [&](int64_t begin, int64_t end) {
      simd::Neg(xv.data() + begin, ov.data() + begin, end - begin);
    });
    return out;
  }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    return {ElementwiseGrad(ctx, [](size_t) { return -1.0f; })};
  }

 protected:
  float Apply(const DeviceProfile&, float x, const Attrs&) const override { return -x; }
};

class ExpKernel : public UnaryKernel {
 public:
  std::string name() const override { return "exp"; }

  // Vectorized override: device.Exp is the pinned vmath polynomial on every profile,
  // so the 8-wide ExpVec commits the same bits as the per-element Apply fallback.
  Tensor Forward(const OpContext& ctx) const override {
    const Tensor& x = ctx.inputs[0];
    Tensor out = ctx.AllocateOutput(x.shape());
    const auto xv = x.values();
    auto ov = out.mutable_values();
    ctx.For(out.numel(), [&](int64_t begin, int64_t end) {
      vmath::ExpVec(xv.data() + begin, ov.data() + begin, end - begin);
    });
    return out;
  }

  DTensor Bound(const BoundContext& ctx) const override {
    return UlpBound(ctx.output, ctx.device.ExpUlp());
  }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    const auto ov = ctx.output.values();
    return {ElementwiseGrad(ctx, [&](size_t i) { return ov[i]; })};
  }

 protected:
  float Apply(const DeviceProfile& device, float x, const Attrs&) const override {
    return device.Exp(x);
  }
};

class LogKernel : public UnaryKernel {
 public:
  std::string name() const override { return "log"; }

  DTensor Bound(const BoundContext& ctx) const override {
    return UlpBound(ctx.output, ctx.device.LogUlp());
  }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    const auto xv = ctx.inputs[0].values();
    return {ElementwiseGrad(ctx, [&](size_t i) { return 1.0f / xv[i]; })};
  }

 protected:
  float Apply(const DeviceProfile& device, float x, const Attrs&) const override {
    return device.Log(x);
  }
};

class SqrtKernel : public UnaryKernel {
 public:
  std::string name() const override { return "sqrt"; }

  DTensor Bound(const BoundContext& ctx) const override {
    return UlpBound(ctx.output, ctx.device.SqrtUlp());
  }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    const auto ov = ctx.output.values();
    return {ElementwiseGrad(ctx, [&](size_t i) { return 0.5f / ov[i]; })};
  }

 protected:
  float Apply(const DeviceProfile& device, float x, const Attrs&) const override {
    return device.Sqrt(x);
  }
};

class RsqrtKernel : public UnaryKernel {
 public:
  std::string name() const override { return "rsqrt"; }

  DTensor Bound(const BoundContext& ctx) const override {
    return UlpBound(ctx.output, ctx.device.RsqrtUlp());
  }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    const auto xv = ctx.inputs[0].values();
    const auto ov = ctx.output.values();
    return {ElementwiseGrad(ctx, [&](size_t i) { return -0.5f * ov[i] / xv[i]; })};
  }

 protected:
  float Apply(const DeviceProfile& device, float x, const Attrs&) const override {
    return device.Rsqrt(x);
  }
};

class TanhKernel : public UnaryKernel {
 public:
  std::string name() const override { return "tanh"; }

  // Vectorized override, same argument as ExpKernel::Forward.
  Tensor Forward(const OpContext& ctx) const override {
    const Tensor& x = ctx.inputs[0];
    Tensor out = ctx.AllocateOutput(x.shape());
    const auto xv = x.values();
    auto ov = out.mutable_values();
    ctx.For(out.numel(), [&](int64_t begin, int64_t end) {
      vmath::TanhVec(xv.data() + begin, ov.data() + begin, end - begin);
    });
    return out;
  }

  DTensor Bound(const BoundContext& ctx) const override {
    return UlpBound(ctx.output, ctx.device.TanhUlp());
  }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    const auto ov = ctx.output.values();
    return {ElementwiseGrad(ctx, [&](size_t i) { return 1.0f - ov[i] * ov[i]; })};
  }

 protected:
  float Apply(const DeviceProfile& device, float x, const Attrs&) const override {
    return device.Tanh(x);
  }
};

class SinKernel : public UnaryKernel {
 public:
  std::string name() const override { return "sin"; }

  DTensor Bound(const BoundContext& ctx) const override {
    return UlpBound(ctx.output, ctx.device.SinCosUlp());
  }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    const auto xv = ctx.inputs[0].values();
    return {ElementwiseGrad(ctx, [&](size_t i) { return std::cos(xv[i]); })};
  }

 protected:
  float Apply(const DeviceProfile& device, float x, const Attrs&) const override {
    return device.Sin(x);
  }
};

class CosKernel : public UnaryKernel {
 public:
  std::string name() const override { return "cos"; }

  DTensor Bound(const BoundContext& ctx) const override {
    return UlpBound(ctx.output, ctx.device.SinCosUlp());
  }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    const auto xv = ctx.inputs[0].values();
    return {ElementwiseGrad(ctx, [&](size_t i) { return -std::sin(xv[i]); })};
  }

 protected:
  float Apply(const DeviceProfile& device, float x, const Attrs&) const override {
    return device.Cos(x);
  }
};

// pow with a compile-time scalar exponent attribute ("exponent").
class PowKernel : public UnaryKernel {
 public:
  std::string name() const override { return "pow"; }

  DTensor Bound(const BoundContext& ctx) const override {
    return UlpBound(ctx.output, ctx.device.PowUlp());
  }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    const double p = ctx.attrs.GetDouble("exponent");
    const auto xv = ctx.inputs[0].values();
    return {ElementwiseGrad(ctx, [&](size_t i) {
      return static_cast<float>(p * std::pow(static_cast<double>(xv[i]), p - 1.0));
    })};
  }

 protected:
  float Apply(const DeviceProfile& device, float x, const Attrs& attrs) const override {
    return device.Pow(x, static_cast<float>(attrs.GetDouble("exponent")));
  }
};

}  // namespace

void RegisterElementwiseOps(OpRegistry& registry) {
  registry.Register(std::make_unique<AddKernel>());
  registry.Register(std::make_unique<SubKernel>());
  registry.Register(std::make_unique<MulKernel>());
  registry.Register(std::make_unique<DivKernel>());
  registry.Register(std::make_unique<NegKernel>());
  registry.Register(std::make_unique<ExpKernel>());
  registry.Register(std::make_unique<LogKernel>());
  registry.Register(std::make_unique<SqrtKernel>());
  registry.Register(std::make_unique<RsqrtKernel>());
  registry.Register(std::make_unique<TanhKernel>());
  registry.Register(std::make_unique<SinKernel>());
  registry.Register(std::make_unique<CosKernel>());
  registry.Register(std::make_unique<PowKernel>());
}

}  // namespace tao
