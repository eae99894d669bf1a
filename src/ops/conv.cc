// conv2d(x, w, b) over NCHW inputs with attrs "stride" and "padding" (symmetric).
// Each output element is an inner product of length k = C_in·kh·kw routed through the
// device profile; the bound is the inner-product gamma_k envelope plus one bias-add
// rounding, exactly as for linear.

#include <cmath>

#include "src/ops/lanes.h"
#include "src/ops/op_kernel.h"
#include "src/util/check.h"

namespace tao {
namespace {

struct ConvDims {
  int64_t batch, cin, h, w;
  int64_t cout, kh, kw;
  int64_t stride, padding;
  int64_t oh, ow;
  int64_t patch;  // cin * kh * kw

  static ConvDims Make(const Shape& x, const Shape& weight, const Attrs& attrs) {
    ConvDims d;
    TAO_CHECK_EQ(x.rank(), 4);
    TAO_CHECK_EQ(weight.rank(), 4);
    d.batch = x.dim(0);
    d.cin = x.dim(1);
    d.h = x.dim(2);
    d.w = x.dim(3);
    d.cout = weight.dim(0);
    TAO_CHECK_EQ(weight.dim(1), d.cin);
    d.kh = weight.dim(2);
    d.kw = weight.dim(3);
    d.stride = attrs.GetInt("stride", 1);
    d.padding = attrs.GetInt("padding", 0);
    d.oh = (d.h + 2 * d.padding - d.kh) / d.stride + 1;
    d.ow = (d.w + 2 * d.padding - d.kw) / d.stride + 1;
    d.patch = d.cin * d.kh * d.kw;
    return d;
  }
};

class Conv2dKernel : public OpKernel {
 public:
  std::string name() const override { return "conv2d"; }

  Shape InferShape(const std::vector<Shape>& input_shapes, const Attrs& attrs) const override {
    TAO_CHECK_EQ(input_shapes.size(), 3u);
    const ConvDims d = ConvDims::Make(input_shapes[0], input_shapes[1], attrs);
    TAO_CHECK_EQ(input_shapes[2].numel(), d.cout);
    return Shape{d.batch, d.cout, d.oh, d.ow};
  }

  Tensor Forward(const OpContext& ctx) const override {
    const Tensor& x = ctx.inputs[0];
    const Tensor& weight = ctx.inputs[1];
    const Tensor& bias = ctx.inputs[2];
    const ConvDims d = ConvDims::Make(x.shape(), weight.shape(), ctx.attrs);
    Tensor out = ctx.AllocateOutput(Shape{d.batch, d.cout, d.oh, d.ow});
    const float* xv = x.values().data();
    const float* wv = weight.values().data();
    const auto bv = bias.values();
    auto ov = out.mutable_values();
    // Eight output channels per DotLanes call; every spatial position reuses the weights.
    const LaneWeights weights(ctx, wv, d.cout, d.patch, /*reused=*/d.batch * d.oh * d.ow >= 2);
    // Split over flattened (image, output row) pairs; each chunk gathers receptive
    // fields into its own scratch buffer, drawn from (and returned to) the arena so
    // chunks recycle each other's gather buffers instead of re-allocating.
    ctx.For(d.batch * d.oh, [&](int64_t begin, int64_t end) {
      Tensor patch_scratch = ctx.AllocateScratch(Shape{d.patch});
      float* patch = patch_scratch.mutable_values().data();
      for (int64_t r = begin; r < end; ++r) {
        const int64_t n = r / d.oh;
        const int64_t oy = r % d.oh;
        for (int64_t ox = 0; ox < d.ow; ++ox) {
          // Gather the receptive field (zero padding) once per spatial position.
          size_t p = 0;
          for (int64_t c = 0; c < d.cin; ++c) {
            for (int64_t ky = 0; ky < d.kh; ++ky) {
              const int64_t iy = oy * d.stride + ky - d.padding;
              for (int64_t kx = 0; kx < d.kw; ++kx) {
                const int64_t ix = ox * d.stride + kx - d.padding;
                patch[p++] = (iy >= 0 && iy < d.h && ix >= 0 && ix < d.w)
                                 ? xv[((n * d.cin + c) * d.h + iy) * d.w + ix]
                                 : 0.0f;
              }
            }
          }
          for (int64_t g = 0; g < LaneGroups(d.cout); ++g) {
            float dots[simd::kLanes];
            weights.Dot(patch, g, dots);
            for (int64_t l = 0; l < weights.lanes(g); ++l) {
              const int64_t co = g * simd::kLanes + l;
              ov[static_cast<size_t>(((n * d.cout + co) * d.oh + oy) * d.ow + ox)] =
                  dots[l] + bv[static_cast<size_t>(co)];
            }
          }
        }
      }
      ctx.Recycle(std::move(patch_scratch));
    });
    return out;
  }

  DTensor Bound(const BoundContext& ctx) const override {
    const Tensor& x = ctx.inputs[0];
    const Tensor& weight = ctx.inputs[1];
    const ConvDims d = ConvDims::Make(x.shape(), weight.shape(), ctx.attrs);
    const double gamma = AccumulationGamma(d.patch, ctx.mode, ctx.lambda);
    DTensor bound(ctx.output.shape());
    const float* xv = x.values().data();
    const float* wv = weight.values().data();
    const auto yv = ctx.output.values();
    auto bnd = bound.mutable_values();
    ctx.For(d.batch * d.oh, [&](int64_t begin, int64_t end) {
      // Abs-gather scratch from the arena's FP64 pool: bound runs retain every
      // value/bound tensor, so this per-chunk recycling is the only reuse they get.
      DTensor patch_scratch = ctx.AllocateScratch(Shape{d.patch});
      double* patch = patch_scratch.mutable_values().data();
      for (int64_t r = begin; r < end; ++r) {
        const int64_t n = r / d.oh;
        const int64_t oy = r % d.oh;
        for (int64_t ox = 0; ox < d.ow; ++ox) {
          size_t p = 0;
          for (int64_t c = 0; c < d.cin; ++c) {
            for (int64_t ky = 0; ky < d.kh; ++ky) {
              const int64_t iy = oy * d.stride + ky - d.padding;
              for (int64_t kx = 0; kx < d.kw; ++kx) {
                const int64_t ix = ox * d.stride + kx - d.padding;
                patch[p++] = (iy >= 0 && iy < d.h && ix >= 0 && ix < d.w)
                                 ? std::abs(static_cast<double>(
                                       xv[((n * d.cin + c) * d.h + iy) * d.w + ix]))
                                 : 0.0;
              }
            }
          }
          for (int64_t co = 0; co < d.cout; ++co) {
            double abs_dot = 0.0;
            for (int64_t q = 0; q < d.patch; ++q) {
              abs_dot += patch[static_cast<size_t>(q)] *
                         std::abs(static_cast<double>(wv[co * d.patch + q]));
            }
            const size_t k =
                static_cast<size_t>(((n * d.cout + co) * d.oh + oy) * d.ow + ox);
            bnd[k] = gamma * abs_dot + kUnitRoundoff * std::abs(static_cast<double>(yv[k]));
          }
        }
      }
      ctx.Recycle(std::move(patch_scratch));
    });
    return bound;
  }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    const Tensor& x = ctx.inputs[0];
    const Tensor& weight = ctx.inputs[1];
    const ConvDims d = ConvDims::Make(x.shape(), weight.shape(), ctx.attrs);
    Tensor gx(x.shape());
    Tensor gw(weight.shape());
    Tensor gb(ctx.inputs[2].shape());
    const auto xv = x.values();
    const auto wv = weight.values();
    const auto gv = ctx.grad_output.values();
    auto gxv = gx.mutable_values();
    auto gwv = gw.mutable_values();
    auto gbv = gb.mutable_values();
    for (int64_t n = 0; n < d.batch; ++n) {
      for (int64_t co = 0; co < d.cout; ++co) {
        for (int64_t oy = 0; oy < d.oh; ++oy) {
          for (int64_t ox = 0; ox < d.ow; ++ox) {
            const float g =
                gv[static_cast<size_t>(((n * d.cout + co) * d.oh + oy) * d.ow + ox)];
            gbv[static_cast<size_t>(co)] += g;
            for (int64_t c = 0; c < d.cin; ++c) {
              for (int64_t ky = 0; ky < d.kh; ++ky) {
                const int64_t iy = oy * d.stride + ky - d.padding;
                if (iy < 0 || iy >= d.h) {
                  continue;
                }
                for (int64_t kx = 0; kx < d.kw; ++kx) {
                  const int64_t ix = ox * d.stride + kx - d.padding;
                  if (ix < 0 || ix >= d.w) {
                    continue;
                  }
                  const size_t xi = static_cast<size_t>(((n * d.cin + c) * d.h + iy) * d.w + ix);
                  const size_t wi =
                      static_cast<size_t>(((co * d.cin + c) * d.kh + ky) * d.kw + kx);
                  gxv[xi] += g * wv[wi];
                  gwv[wi] += g * xv[xi];
                }
              }
            }
          }
        }
      }
    }
    return {gx, gw, gb};
  }

  int64_t Flops(const std::vector<Shape>& input_shapes, const Shape& output_shape,
                const Attrs& attrs) const override {
    const Shape& w = input_shapes[1];
    return 2 * output_shape.numel() * w.dim(1) * w.dim(2) * w.dim(3);
  }
};

}  // namespace

void RegisterConvOps(OpRegistry& registry) {
  registry.Register(std::make_unique<Conv2dKernel>());
}

}  // namespace tao
