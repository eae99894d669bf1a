// Structural / data-movement operators: reshape, flatten, transpose, concat, slice,
// embedding, masked_fill, dropout (inference = identity), identity.
//
// None of these perform floating-point arithmetic, so all inherit the zero bound
// (Sec. 3.1: "pure data movement contributes no FP error"). masked_fill writes an exact
// constant. Embedding is a gather from the committed weight table.

#include <cmath>

#include "src/ops/op_kernel.h"
#include "src/util/check.h"

namespace tao {
namespace {

class ReshapeKernel : public OpKernel {
 public:
  std::string name() const override { return "reshape"; }

  Shape InferShape(const std::vector<Shape>& input_shapes, const Attrs& attrs) const override {
    TAO_CHECK_EQ(input_shapes.size(), 1u);
    const Shape out(attrs.GetInts("shape"));
    TAO_CHECK_EQ(out.numel(), input_shapes[0].numel());
    return out;
  }

  Tensor Forward(const OpContext& ctx) const override {
    return ctx.inputs[0].Clone().WithShape(Shape(ctx.attrs.GetInts("shape")));
  }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    return {ctx.grad_output.Clone().WithShape(ctx.inputs[0].shape())};
  }
};

class FlattenKernel : public OpKernel {
 public:
  std::string name() const override { return "flatten"; }

  Shape InferShape(const std::vector<Shape>& input_shapes, const Attrs& attrs) const override {
    TAO_CHECK_EQ(input_shapes.size(), 1u);
    const Shape& x = input_shapes[0];
    const int64_t start = attrs.GetInt("start_dim", 1);
    std::vector<int64_t> dims;
    int64_t tail = 1;
    for (int64_t i = 0; i < x.rank(); ++i) {
      if (i < start) {
        dims.push_back(x.dim(i));
      } else {
        tail *= x.dim(i);
      }
    }
    dims.push_back(tail);
    return Shape(dims);
  }

  Tensor Forward(const OpContext& ctx) const override {
    return ctx.inputs[0].Clone().WithShape(
        InferShape({ctx.inputs[0].shape()}, ctx.attrs));
  }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    return {ctx.grad_output.Clone().WithShape(ctx.inputs[0].shape())};
  }
};

class TransposeKernel : public OpKernel {
 public:
  std::string name() const override { return "transpose"; }

  Shape InferShape(const std::vector<Shape>& input_shapes, const Attrs& attrs) const override {
    TAO_CHECK_EQ(input_shapes.size(), 1u);
    const Shape& x = input_shapes[0];
    const std::vector<int64_t> perm = attrs.GetInts("perm");
    TAO_CHECK_EQ(static_cast<int64_t>(perm.size()), x.rank());
    std::vector<bool> seen(perm.size(), false);
    for (const int64_t axis : perm) {
      TAO_CHECK(axis >= 0 && axis < x.rank() && !seen[static_cast<size_t>(axis)])
          << "transpose perm is not a permutation of [0, " << x.rank() << ")";
      seen[static_cast<size_t>(axis)] = true;
    }
    std::vector<int64_t> dims(perm.size());
    for (size_t i = 0; i < perm.size(); ++i) {
      dims[i] = x.dim(perm[i]);
    }
    return Shape(dims);
  }

  Tensor Forward(const OpContext& ctx) const override {
    const Tensor& x = ctx.inputs[0];
    const std::vector<int64_t> perm = ctx.attrs.GetInts("perm");
    const Shape out_shape = InferShape({x.shape()}, ctx.attrs);
    Tensor out = ctx.AllocateOutput(out_shape);
    const auto xv = x.values();
    auto ov = out.mutable_values();
    if (out.numel() == 0) {
      return out;
    }
    // Walk the output in order with an odometer over its coordinates; `strides[a]` is
    // the input step of output axis a, so the input offset follows incrementally.
    const std::vector<int64_t> in_strides = x.shape().Strides();
    const int64_t rank = out_shape.rank();
    std::vector<int64_t> strides(static_cast<size_t>(rank));
    for (size_t a = 0; a < strides.size(); ++a) {
      strides[a] = in_strides[static_cast<size_t>(perm[a])];
    }
    const int64_t inner = rank == 0 ? 1 : out_shape.dim(rank - 1);
    const int64_t inner_stride = rank == 0 ? 0 : strides.back();
    std::vector<int64_t> idx(static_cast<size_t>(rank), 0);
    int64_t in_off = 0;
    for (int64_t o = 0; o < out.numel(); o += inner) {
      for (int64_t t = 0; t < inner; ++t) {
        ov[static_cast<size_t>(o + t)] = xv[static_cast<size_t>(in_off + t * inner_stride)];
      }
      for (int64_t a = rank - 2; a >= 0; --a) {
        const size_t s = static_cast<size_t>(a);
        if (++idx[s] < out_shape.dim(a)) {
          in_off += strides[s];
          break;
        }
        in_off -= (idx[s] - 1) * strides[s];
        idx[s] = 0;
      }
    }
    return out;
  }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    // Transpose by the inverse permutation.
    const std::vector<int64_t> perm = ctx.attrs.GetInts("perm");
    std::vector<int64_t> inverse(perm.size());
    for (size_t i = 0; i < perm.size(); ++i) {
      inverse[static_cast<size_t>(perm[i])] = static_cast<int64_t>(i);
    }
    Attrs inv_attrs;
    inv_attrs.Set("perm", inverse);
    const OpContext fwd{DeviceRegistry::Reference(), {ctx.grad_output}, inv_attrs};
    return {Forward(fwd)};
  }
};

class ConcatKernel : public OpKernel {
 public:
  std::string name() const override { return "concat"; }

  Shape InferShape(const std::vector<Shape>& input_shapes, const Attrs& attrs) const override {
    TAO_CHECK_GE(input_shapes.size(), 1u);
    const int64_t axis = input_shapes[0].NormalizeAxis(attrs.GetInt("axis", 0));
    std::vector<int64_t> dims = input_shapes[0].dims();
    for (size_t i = 1; i < input_shapes.size(); ++i) {
      TAO_CHECK_EQ(input_shapes[i].rank(), input_shapes[0].rank());
      for (int64_t a = 0; a < input_shapes[0].rank(); ++a) {
        if (a != axis) {
          TAO_CHECK_EQ(input_shapes[i].dim(a), input_shapes[0].dim(a));
        }
      }
      dims[static_cast<size_t>(axis)] += input_shapes[i].dim(axis);
    }
    return Shape(dims);
  }

  Tensor Forward(const OpContext& ctx) const override {
    std::vector<Shape> shapes;
    shapes.reserve(ctx.inputs.size());
    for (const Tensor& t : ctx.inputs) {
      shapes.push_back(t.shape());
    }
    const Shape out_shape = InferShape(shapes, ctx.attrs);
    const int64_t axis = out_shape.NormalizeAxis(ctx.attrs.GetInt("axis", 0));
    int64_t outer = 1;
    for (int64_t a = 0; a < axis; ++a) {
      outer *= out_shape.dim(a);
    }
    int64_t inner = 1;
    for (int64_t a = axis + 1; a < out_shape.rank(); ++a) {
      inner *= out_shape.dim(a);
    }
    Tensor out(out_shape);
    auto ov = out.mutable_values();
    const int64_t out_axis_dim = out_shape.dim(axis);
    int64_t axis_offset = 0;
    for (const Tensor& t : ctx.inputs) {
      const int64_t t_axis = t.shape().dim(axis);
      const auto tv = t.values();
      for (int64_t o = 0; o < outer; ++o) {
        for (int64_t a = 0; a < t_axis; ++a) {
          const int64_t src = (o * t_axis + a) * inner;
          const int64_t dst = (o * out_axis_dim + axis_offset + a) * inner;
          for (int64_t i = 0; i < inner; ++i) {
            ov[static_cast<size_t>(dst + i)] = tv[static_cast<size_t>(src + i)];
          }
        }
      }
      axis_offset += t_axis;
    }
    return out;
  }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    const Shape& out_shape = ctx.grad_output.shape();
    const int64_t axis = out_shape.NormalizeAxis(ctx.attrs.GetInt("axis", 0));
    int64_t outer = 1;
    for (int64_t a = 0; a < axis; ++a) {
      outer *= out_shape.dim(a);
    }
    int64_t inner = 1;
    for (int64_t a = axis + 1; a < out_shape.rank(); ++a) {
      inner *= out_shape.dim(a);
    }
    const auto gv = ctx.grad_output.values();
    const int64_t out_axis_dim = out_shape.dim(axis);
    std::vector<Tensor> grads;
    int64_t axis_offset = 0;
    for (const Tensor& t : ctx.inputs) {
      const int64_t t_axis = t.shape().dim(axis);
      Tensor g(t.shape());
      auto gvv = g.mutable_values();
      for (int64_t o = 0; o < outer; ++o) {
        for (int64_t a = 0; a < t_axis; ++a) {
          const int64_t dst = (o * t_axis + a) * inner;
          const int64_t src = (o * out_axis_dim + axis_offset + a) * inner;
          for (int64_t i = 0; i < inner; ++i) {
            gvv[static_cast<size_t>(dst + i)] = gv[static_cast<size_t>(src + i)];
          }
        }
      }
      axis_offset += t_axis;
      grads.push_back(std::move(g));
    }
    return grads;
  }
};

class SliceKernel : public OpKernel {
 public:
  std::string name() const override { return "slice"; }

  Shape InferShape(const std::vector<Shape>& input_shapes, const Attrs& attrs) const override {
    TAO_CHECK_EQ(input_shapes.size(), 1u);
    const Shape& x = input_shapes[0];
    const int64_t axis = x.NormalizeAxis(attrs.GetInt("axis", 0));
    const int64_t start = attrs.GetInt("start");
    const int64_t end = attrs.GetInt("end");
    TAO_CHECK(start >= 0 && end <= x.dim(axis) && start < end)
        << "slice [" << start << "," << end << ") invalid for " << x.ToString();
    std::vector<int64_t> dims = x.dims();
    dims[static_cast<size_t>(axis)] = end - start;
    return Shape(dims);
  }

  Tensor Forward(const OpContext& ctx) const override {
    const Tensor& x = ctx.inputs[0];
    const int64_t axis = x.shape().NormalizeAxis(ctx.attrs.GetInt("axis", 0));
    const int64_t start = ctx.attrs.GetInt("start");
    const Shape out_shape = InferShape({x.shape()}, ctx.attrs);
    int64_t outer = 1;
    for (int64_t a = 0; a < axis; ++a) {
      outer *= x.shape().dim(a);
    }
    int64_t inner = 1;
    for (int64_t a = axis + 1; a < x.shape().rank(); ++a) {
      inner *= x.shape().dim(a);
    }
    const int64_t in_axis = x.shape().dim(axis);
    const int64_t out_axis = out_shape.dim(axis);
    Tensor out(out_shape);
    const auto xv = x.values();
    auto ov = out.mutable_values();
    for (int64_t o = 0; o < outer; ++o) {
      for (int64_t a = 0; a < out_axis; ++a) {
        const int64_t src = (o * in_axis + start + a) * inner;
        const int64_t dst = (o * out_axis + a) * inner;
        for (int64_t i = 0; i < inner; ++i) {
          ov[static_cast<size_t>(dst + i)] = xv[static_cast<size_t>(src + i)];
        }
      }
    }
    return out;
  }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    const Tensor& x = ctx.inputs[0];
    const int64_t axis = x.shape().NormalizeAxis(ctx.attrs.GetInt("axis", 0));
    const int64_t start = ctx.attrs.GetInt("start");
    int64_t outer = 1;
    for (int64_t a = 0; a < axis; ++a) {
      outer *= x.shape().dim(a);
    }
    int64_t inner = 1;
    for (int64_t a = axis + 1; a < x.shape().rank(); ++a) {
      inner *= x.shape().dim(a);
    }
    const int64_t in_axis = x.shape().dim(axis);
    const int64_t out_axis = ctx.grad_output.shape().dim(axis);
    Tensor gx(x.shape());
    const auto gv = ctx.grad_output.values();
    auto gxv = gx.mutable_values();
    for (int64_t o = 0; o < outer; ++o) {
      for (int64_t a = 0; a < out_axis; ++a) {
        const int64_t dst = (o * in_axis + start + a) * inner;
        const int64_t src = (o * out_axis + a) * inner;
        for (int64_t i = 0; i < inner; ++i) {
          gxv[static_cast<size_t>(dst + i)] = gv[static_cast<size_t>(src + i)];
        }
      }
    }
    return {gx};
  }
};

// embedding(table, indices): table is [V, D]; indices carry integral values in a float
// tensor (the graph IR is single-dtype); output shape is indices.shape + [D].
class EmbeddingKernel : public OpKernel {
 public:
  std::string name() const override { return "embedding"; }

  Shape InferShape(const std::vector<Shape>& input_shapes, const Attrs& attrs) const override {
    TAO_CHECK_EQ(input_shapes.size(), 2u);
    TAO_CHECK_EQ(input_shapes[0].rank(), 2);
    std::vector<int64_t> dims = input_shapes[1].dims();
    dims.push_back(input_shapes[0].dim(1));
    return Shape(dims);
  }

  Tensor Forward(const OpContext& ctx) const override {
    const Tensor& table = ctx.inputs[0];
    const Tensor& indices = ctx.inputs[1];
    const int64_t vocab = table.shape().dim(0);
    const int64_t dim = table.shape().dim(1);
    Tensor out(InferShape({table.shape(), indices.shape()}, ctx.attrs));
    const auto tv = table.values();
    const auto iv = indices.values();
    auto ov = out.mutable_values();
    for (int64_t i = 0; i < indices.numel(); ++i) {
      const int64_t id = static_cast<int64_t>(iv[static_cast<size_t>(i)]);
      TAO_CHECK(id >= 0 && id < vocab) << "embedding index " << id << " out of range";
      for (int64_t d = 0; d < dim; ++d) {
        ov[static_cast<size_t>(i * dim + d)] = tv[static_cast<size_t>(id * dim + d)];
      }
    }
    return out;
  }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    const Tensor& table = ctx.inputs[0];
    const Tensor& indices = ctx.inputs[1];
    const int64_t dim = table.shape().dim(1);
    Tensor gt(table.shape());
    Tensor gi(indices.shape());  // indices are discrete: zero gradient
    const auto iv = indices.values();
    const auto gv = ctx.grad_output.values();
    auto gtv = gt.mutable_values();
    for (int64_t i = 0; i < indices.numel(); ++i) {
      const int64_t id = static_cast<int64_t>(iv[static_cast<size_t>(i)]);
      for (int64_t d = 0; d < dim; ++d) {
        gtv[static_cast<size_t>(id * dim + d)] += gv[static_cast<size_t>(i * dim + d)];
      }
    }
    return {gt, gi};
  }
};

// masked_fill(x, mask): out = mask > 0.5 ? value : x  (attr "value").
class MaskedFillKernel : public OpKernel {
 public:
  std::string name() const override { return "masked_fill"; }

  Shape InferShape(const std::vector<Shape>& input_shapes, const Attrs& attrs) const override {
    TAO_CHECK_EQ(input_shapes.size(), 2u);
    TAO_CHECK(input_shapes[0] == input_shapes[1]);
    return input_shapes[0];
  }

  Tensor Forward(const OpContext& ctx) const override {
    const Tensor& x = ctx.inputs[0];
    const Tensor& mask = ctx.inputs[1];
    const float value = static_cast<float>(ctx.attrs.GetDouble("value", 0.0));
    Tensor out(x.shape());
    const auto xv = x.values();
    const auto mv = mask.values();
    auto ov = out.mutable_values();
    for (size_t i = 0; i < ov.size(); ++i) {
      ov[i] = mv[i] > 0.5f ? value : xv[i];
    }
    return out;
  }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    const Tensor& mask = ctx.inputs[1];
    Tensor gx(ctx.inputs[0].shape());
    Tensor gm(mask.shape());  // discrete mask: zero gradient
    const auto mv = mask.values();
    const auto gv = ctx.grad_output.values();
    auto gxv = gx.mutable_values();
    for (size_t i = 0; i < gxv.size(); ++i) {
      gxv[i] = mv[i] > 0.5f ? 0.0f : gv[i];
    }
    return {gx, gm};
  }
};

class IdentityLikeKernel : public OpKernel {
 public:
  explicit IdentityLikeKernel(std::string name) : name_(std::move(name)) {}

  std::string name() const override { return name_; }

  Shape InferShape(const std::vector<Shape>& input_shapes, const Attrs& attrs) const override {
    TAO_CHECK_EQ(input_shapes.size(), 1u);
    return input_shapes[0];
  }

  Tensor Forward(const OpContext& ctx) const override { return ctx.inputs[0].Clone(); }

  std::vector<Tensor> Vjp(const VjpContext& ctx) const override {
    return {ctx.grad_output.Clone()};
  }

 private:
  std::string name_;
};

}  // namespace

void RegisterStructuralOps(OpRegistry& registry) {
  registry.Register(std::make_unique<ReshapeKernel>());
  registry.Register(std::make_unique<FlattenKernel>());
  registry.Register(std::make_unique<TransposeKernel>());
  registry.Register(std::make_unique<ConcatKernel>());
  registry.Register(std::make_unique<SliceKernel>());
  registry.Register(std::make_unique<EmbeddingKernel>());
  registry.Register(std::make_unique<MaskedFillKernel>());
  // Inference-mode dropout is the identity map.
  registry.Register(std::make_unique<IdentityLikeKernel>("dropout"));
  registry.Register(std::make_unique<IdentityLikeKernel>("identity"));
}

}  // namespace tao
