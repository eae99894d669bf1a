// Operator-library tests: forward correctness against FP64 references, shape
// inference, and the central soundness property of Sec. 3.1 — cross-device outputs of
// the same operator must differ by at most the sum of their theoretical bounds
// (deterministic mode is sound by construction; the probabilistic mode is checked with
// a tiny allowed violation budget consistent with its >=99.93% per-reduction
// confidence).

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/device/device.h"
#include "src/device/simd.h"
#include "src/graph/executor.h"
#include "src/models/model_zoo.h"
#include "src/ops/op_kernel.h"
#include "src/runtime/parallel_for.h"
#include "src/runtime/thread_pool.h"
#include "src/util/rng.h"

namespace tao {
namespace {

class OpsTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterAllOps(); }

  const DeviceProfile& ref_ = DeviceRegistry::Reference();
};

Tensor RandTensor(Shape shape, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  return Tensor::Randn(std::move(shape), rng, scale);
}

// Runs `op` on every fleet device and asserts pairwise deviations fit within the sum
// of theoretical bounds. Returns the number of checked elements.
int64_t CheckCrossDeviceSoundness(const std::string& op, const std::vector<Tensor>& inputs,
                                  const Attrs& attrs, BoundMode mode,
                                  int64_t* violations_out = nullptr) {
  const OpKernel& kernel = OpRegistry::Instance().Get(op);
  struct Result {
    Tensor out;
    DTensor bound;
  };
  std::vector<Result> results;
  for (const DeviceProfile& device : DeviceRegistry::Fleet()) {
    const OpContext ctx{device, inputs, attrs};
    Tensor out = kernel.Forward(ctx);
    const BoundContext bctx{device, inputs, out, attrs, mode, kDefaultLambda};
    DTensor bound = kernel.Bound(bctx);
    results.push_back({std::move(out), std::move(bound)});
  }
  int64_t checked = 0;
  int64_t violations = 0;
  for (size_t a = 0; a < results.size(); ++a) {
    for (size_t b = a + 1; b < results.size(); ++b) {
      const auto va = results[a].out.values();
      const auto vb = results[b].out.values();
      const auto ba = results[a].bound.values();
      const auto bb = results[b].bound.values();
      for (size_t i = 0; i < va.size(); ++i) {
        const double diff = std::abs(static_cast<double>(va[i]) - static_cast<double>(vb[i]));
        const double cap = ba[i] + bb[i];
        ++checked;
        if (diff > cap) {
          ++violations;
        }
      }
    }
  }
  if (violations_out != nullptr) {
    *violations_out = violations;
  } else {
    EXPECT_EQ(violations, 0) << op << " deviations exceeded theoretical bounds";
  }
  return checked;
}

// ------------------------------ forward correctness --------------------------------

TEST_F(OpsTest, AddBroadcastsBias) {
  const Tensor x = RandTensor(Shape{2, 3}, 1);
  const Tensor b = RandTensor(Shape{3}, 2);
  const OpKernel& add = OpRegistry::Instance().Get("add");
  const std::vector<Tensor> inputs = {x, b};
  const Tensor out = add.Forward({ref_, inputs, {}});
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_FLOAT_EQ(out[i * 3 + j], x[i * 3 + j] + b[j]);
    }
  }
}

TEST_F(OpsTest, SingleElementOperandBroadcastsOnEitherSide) {
  const Tensor x = RandTensor(Shape{3, 70}, 20);
  const Tensor s = RandTensor(Shape{1}, 21);
  const Tensor y = OpRegistry::Instance().Get("mul").Forward({ref_, {x, s}, {}});
  const Tensor z = OpRegistry::Instance().Get("div").Forward({ref_, {s, x}, {}});
  EXPECT_EQ(y.shape(), x.shape());
  EXPECT_EQ(z.shape(), x.shape());
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_EQ(y[i], x[i] * s[0]);
    EXPECT_EQ(z[i], s[0] / x[i]);
  }
}

TEST_F(OpsTest, MulDivSubElementwise) {
  const Tensor a = RandTensor(Shape{16}, 3);
  const Tensor b = RandTensor(Shape{16}, 4, 1.0f);
  const std::vector<Tensor> inputs = {a, b};
  const Tensor mul = OpRegistry::Instance().Get("mul").Forward({ref_, inputs, {}});
  const Tensor divided = OpRegistry::Instance().Get("div").Forward({ref_, inputs, {}});
  const Tensor sub = OpRegistry::Instance().Get("sub").Forward({ref_, inputs, {}});
  for (int64_t i = 0; i < 16; ++i) {
    EXPECT_FLOAT_EQ(mul[i], a[i] * b[i]);
    EXPECT_FLOAT_EQ(divided[i], a[i] / b[i]);
    EXPECT_FLOAT_EQ(sub[i], a[i] - b[i]);
  }
}

TEST_F(OpsTest, ReluGeluSiluValues) {
  const Tensor x = RandTensor(Shape{64}, 5, 2.0f);
  const std::vector<Tensor> inputs = {x};
  const Tensor relu = OpRegistry::Instance().Get("relu").Forward({ref_, inputs, {}});
  const Tensor gelu = OpRegistry::Instance().Get("gelu").Forward({ref_, inputs, {}});
  const Tensor silu = OpRegistry::Instance().Get("silu").Forward({ref_, inputs, {}});
  for (int64_t i = 0; i < 64; ++i) {
    const double xd = x[i];
    EXPECT_FLOAT_EQ(relu[i], xd > 0 ? x[i] : 0.0f);
    const double gelu_ref = 0.5 * xd * (1.0 + std::erf(xd / std::sqrt(2.0)));
    EXPECT_NEAR(gelu[i], gelu_ref, 1e-5 * (1.0 + std::abs(gelu_ref)));
    const double silu_ref = xd / (1.0 + std::exp(-xd));
    EXPECT_NEAR(silu[i], silu_ref, 1e-5 * (1.0 + std::abs(silu_ref)));
  }
}

TEST_F(OpsTest, SoftmaxRowsSumToOne) {
  const Tensor x = RandTensor(Shape{4, 32}, 6, 3.0f);
  Attrs attrs;
  attrs.Set("axis", static_cast<int64_t>(-1));
  const std::vector<Tensor> inputs = {x};
  const Tensor y = OpRegistry::Instance().Get("softmax").Forward({ref_, inputs, attrs});
  for (int64_t r = 0; r < 4; ++r) {
    double sum = 0.0;
    for (int64_t c = 0; c < 32; ++c) {
      const float v = y[r * 32 + c];
      EXPECT_GT(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST_F(OpsTest, MatmulAgainstDoubleReference) {
  const Tensor a = RandTensor(Shape{7, 11}, 7);
  const Tensor b = RandTensor(Shape{11, 5}, 8);
  const std::vector<Tensor> inputs = {a, b};
  const Tensor out = OpRegistry::Instance().Get("matmul").Forward({ref_, inputs, {}});
  for (int64_t i = 0; i < 7; ++i) {
    for (int64_t j = 0; j < 5; ++j) {
      double acc = 0.0;
      for (int64_t k = 0; k < 11; ++k) {
        acc += static_cast<double>(a[i * 11 + k]) * static_cast<double>(b[k * 5 + j]);
      }
      EXPECT_NEAR(out[i * 5 + j], acc, 1e-4 * (1.0 + std::abs(acc)));
    }
  }
}

TEST_F(OpsTest, LinearMatchesMatmulPlusBias) {
  const Tensor x = RandTensor(Shape{3, 8}, 9);
  const Tensor w = RandTensor(Shape{4, 8}, 10);
  const Tensor b = RandTensor(Shape{4}, 11);
  const std::vector<Tensor> inputs = {x, w, b};
  const Tensor out = OpRegistry::Instance().Get("linear").Forward({ref_, inputs, {}});
  EXPECT_EQ(out.shape(), Shape({3, 4}));
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t o = 0; o < 4; ++o) {
      double acc = b[o];
      for (int64_t k = 0; k < 8; ++k) {
        acc += static_cast<double>(x[r * 8 + k]) * static_cast<double>(w[o * 8 + k]);
      }
      EXPECT_NEAR(out[r * 4 + o], acc, 1e-4 * (1.0 + std::abs(acc)));
    }
  }
}

TEST_F(OpsTest, LayerNormZeroMeanUnitVar) {
  const Tensor x = RandTensor(Shape{2, 64}, 12, 5.0f);
  const Tensor w = Tensor::Full(Shape{64}, 1.0f);
  const Tensor b = Tensor::Zeros(Shape{64});
  Attrs attrs;
  attrs.Set("eps", 1e-5);
  const std::vector<Tensor> inputs = {x, w, b};
  const Tensor y = OpRegistry::Instance().Get("layer_norm").Forward({ref_, inputs, attrs});
  for (int64_t r = 0; r < 2; ++r) {
    double mean = 0.0;
    double var = 0.0;
    for (int64_t i = 0; i < 64; ++i) {
      mean += y[r * 64 + i];
    }
    mean /= 64.0;
    for (int64_t i = 0; i < 64; ++i) {
      var += (y[r * 64 + i] - mean) * (y[r * 64 + i] - mean);
    }
    var /= 64.0;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST_F(OpsTest, RmsNormScale) {
  const Tensor x = RandTensor(Shape{3, 32}, 13);
  const Tensor w = Tensor::Full(Shape{32}, 1.0f);
  Attrs attrs;
  attrs.Set("eps", 1e-6);
  const std::vector<Tensor> inputs = {x, w};
  const Tensor y = OpRegistry::Instance().Get("rms_norm").Forward({ref_, inputs, attrs});
  for (int64_t r = 0; r < 3; ++r) {
    double ms = 0.0;
    for (int64_t i = 0; i < 32; ++i) {
      ms += static_cast<double>(x[r * 32 + i]) * x[r * 32 + i];
    }
    ms /= 32.0;
    const double inv = 1.0 / std::sqrt(ms + 1e-6);
    for (int64_t i = 0; i < 32; ++i) {
      EXPECT_NEAR(y[r * 32 + i], x[r * 32 + i] * inv, 1e-4);
    }
  }
}

TEST_F(OpsTest, Conv2dIdentityKernel) {
  // A 1x1 identity kernel with zero bias must reproduce the input.
  const Tensor x = RandTensor(Shape{1, 2, 5, 5}, 14);
  Tensor w = Tensor::Zeros(Shape{2, 2, 1, 1});
  w.mutable_values()[0] = 1.0f;  // out0 <- in0
  w.mutable_values()[3] = 1.0f;  // out1 <- in1
  const Tensor b = Tensor::Zeros(Shape{2});
  Attrs attrs;
  attrs.Set("stride", static_cast<int64_t>(1));
  attrs.Set("padding", static_cast<int64_t>(0));
  const std::vector<Tensor> inputs = {x, w, b};
  const Tensor y = OpRegistry::Instance().Get("conv2d").Forward({ref_, inputs, attrs});
  EXPECT_EQ(y.shape(), x.shape());
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_FLOAT_EQ(y[i], x[i]);
  }
}

TEST_F(OpsTest, Conv2dShapeWithStridePadding) {
  const Tensor x = RandTensor(Shape{2, 3, 8, 8}, 15);
  const Tensor w = RandTensor(Shape{4, 3, 3, 3}, 16);
  const Tensor b = Tensor::Zeros(Shape{4});
  Attrs attrs;
  attrs.Set("stride", static_cast<int64_t>(2));
  attrs.Set("padding", static_cast<int64_t>(1));
  const std::vector<Tensor> inputs = {x, w, b};
  const Tensor y = OpRegistry::Instance().Get("conv2d").Forward({ref_, inputs, attrs});
  EXPECT_EQ(y.shape(), Shape({2, 4, 4, 4}));
}

TEST_F(OpsTest, MaxPoolSelectsMaximum) {
  Tensor x = Tensor::Zeros(Shape{1, 1, 4, 4});
  for (int64_t i = 0; i < 16; ++i) {
    x.mutable_values()[static_cast<size_t>(i)] = static_cast<float>(i);
  }
  Attrs attrs;
  attrs.Set("kernel", static_cast<int64_t>(2));
  attrs.Set("stride", static_cast<int64_t>(2));
  const std::vector<Tensor> inputs = {x};
  const Tensor y = OpRegistry::Instance().Get("max_pool2d").Forward({ref_, inputs, attrs});
  EXPECT_EQ(y.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[1], 7.0f);
  EXPECT_FLOAT_EQ(y[2], 13.0f);
  EXPECT_FLOAT_EQ(y[3], 15.0f);
}

TEST_F(OpsTest, AdaptiveAvgPoolToOne) {
  const Tensor x = RandTensor(Shape{1, 3, 6, 6}, 17);
  Attrs attrs;
  attrs.Set("out_h", static_cast<int64_t>(1));
  attrs.Set("out_w", static_cast<int64_t>(1));
  const std::vector<Tensor> inputs = {x};
  const Tensor y =
      OpRegistry::Instance().Get("adaptive_avg_pool2d").Forward({ref_, inputs, attrs});
  EXPECT_EQ(y.shape(), Shape({1, 3, 1, 1}));
  for (int64_t c = 0; c < 3; ++c) {
    double mean = 0.0;
    for (int64_t i = 0; i < 36; ++i) {
      mean += x[c * 36 + i];
    }
    mean /= 36.0;
    EXPECT_NEAR(y[c], mean, 1e-5);
  }
}

TEST_F(OpsTest, EmbeddingGathersRows) {
  const Tensor table = RandTensor(Shape{10, 4}, 18);
  Tensor ids = Tensor::Zeros(Shape{3});
  ids.mutable_values()[0] = 7.0f;
  ids.mutable_values()[1] = 0.0f;
  ids.mutable_values()[2] = 9.0f;
  const std::vector<Tensor> inputs = {table, ids};
  const Tensor y = OpRegistry::Instance().Get("embedding").Forward({ref_, inputs, {}});
  EXPECT_EQ(y.shape(), Shape({3, 4}));
  for (int64_t d = 0; d < 4; ++d) {
    EXPECT_FLOAT_EQ(y[0 * 4 + d], table[7 * 4 + d]);
    EXPECT_FLOAT_EQ(y[1 * 4 + d], table[0 * 4 + d]);
    EXPECT_FLOAT_EQ(y[2 * 4 + d], table[9 * 4 + d]);
  }
}

TEST_F(OpsTest, TransposeAndConcatAndSlice) {
  const Tensor x = Tensor::Arange(6).WithShape(Shape{2, 3});
  Attrs tattrs;
  tattrs.Set("perm", std::vector<int64_t>{1, 0});
  const std::vector<Tensor> tin = {x};
  const Tensor xt = OpRegistry::Instance().Get("transpose").Forward({ref_, tin, tattrs});
  EXPECT_EQ(xt.shape(), Shape({3, 2}));
  EXPECT_FLOAT_EQ(xt[2 * 2 + 1], 5.0f);  // x[1][2]

  Attrs cattrs;
  cattrs.Set("axis", static_cast<int64_t>(0));
  const std::vector<Tensor> cin = {x, x};
  const Tensor cat = OpRegistry::Instance().Get("concat").Forward({ref_, cin, cattrs});
  EXPECT_EQ(cat.shape(), Shape({4, 3}));
  EXPECT_FLOAT_EQ(cat[3 * 3 + 2], 5.0f);

  Attrs sattrs;
  sattrs.Set("axis", static_cast<int64_t>(1));
  sattrs.Set("start", static_cast<int64_t>(1));
  sattrs.Set("end", static_cast<int64_t>(3));
  const Tensor sliced = OpRegistry::Instance().Get("slice").Forward({ref_, tin, sattrs});
  EXPECT_EQ(sliced.shape(), Shape({2, 2}));
  EXPECT_FLOAT_EQ(sliced[0], 1.0f);
  EXPECT_FLOAT_EQ(sliced[3], 5.0f);
}

TEST_F(OpsTest, MaskedFillWritesValue) {
  const Tensor x = RandTensor(Shape{8}, 19);
  Tensor mask = Tensor::Zeros(Shape{8});
  mask.mutable_values()[2] = 1.0f;
  mask.mutable_values()[5] = 1.0f;
  Attrs attrs;
  attrs.Set("value", -1e9);
  const std::vector<Tensor> inputs = {x, mask};
  const Tensor y = OpRegistry::Instance().Get("masked_fill").Forward({ref_, inputs, attrs});
  for (int64_t i = 0; i < 8; ++i) {
    if (i == 2 || i == 5) {
      EXPECT_FLOAT_EQ(y[i], -1e9f);
    } else {
      EXPECT_FLOAT_EQ(y[i], x[i]);
    }
  }
}

// ------------------------- cross-device bound soundness ----------------------------

struct SoundnessCase {
  std::string op;
  std::vector<Shape> shapes;
  Attrs attrs;
  float scale = 1.0f;
};

class BoundSoundnessTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { RegisterAllOps(); }
};

std::vector<SoundnessCase> SoundnessCases() {
  std::vector<SoundnessCase> cases;
  cases.push_back({"add", {Shape{128}, Shape{128}}, {}, 1.0f});
  cases.push_back({"mul", {Shape{128}, Shape{128}}, {}, 1.0f});
  cases.push_back({"exp", {Shape{256}}, {}, 1.0f});
  cases.push_back({"tanh", {Shape{256}}, {}, 1.0f});
  cases.push_back({"gelu", {Shape{256}}, {}, 1.5f});
  cases.push_back({"silu", {Shape{256}}, {}, 1.5f});
  {
    Attrs a;
    a.Set("axis", static_cast<int64_t>(-1));
    cases.push_back({"softmax", {Shape{8, 64}}, a, 2.0f});
  }
  cases.push_back({"matmul", {Shape{16, 64}, Shape{64, 16}}, {}, 1.0f});
  cases.push_back({"bmm", {Shape{4, 8, 32}, Shape{4, 32, 8}}, {}, 1.0f});
  cases.push_back({"linear", {Shape{8, 64}, Shape{16, 64}, Shape{16}}, {}, 1.0f});
  {
    Attrs a;
    a.Set("eps", 1e-5);
    cases.push_back({"layer_norm", {Shape{4, 64}, Shape{64}, Shape{64}}, a, 1.0f});
  }
  {
    Attrs a;
    a.Set("eps", 1e-6);
    cases.push_back({"rms_norm", {Shape{4, 64}, Shape{64}}, a, 1.0f});
  }
  {
    Attrs a;
    a.Set("stride", static_cast<int64_t>(1));
    a.Set("padding", static_cast<int64_t>(1));
    cases.push_back({"conv2d", {Shape{1, 4, 8, 8}, Shape{4, 4, 3, 3}, Shape{4}}, a, 1.0f});
  }
  {
    Attrs a;
    a.Set("axis", static_cast<int64_t>(-1));
    cases.push_back({"sum", {Shape{8, 256}}, a, 1.0f});
    cases.push_back({"mean", {Shape{8, 256}}, a, 1.0f});
  }
  {
    Attrs a;
    a.Set("kernel", static_cast<int64_t>(2));
    a.Set("stride", static_cast<int64_t>(2));
    cases.push_back({"avg_pool2d", {Shape{1, 2, 8, 8}}, a, 1.0f});
  }
  {
    Attrs a;
    a.Set("groups", static_cast<int64_t>(2));
    a.Set("eps", 1e-5);
    cases.push_back({"group_norm", {Shape{2, 4, 6, 6}, Shape{4}, Shape{4}}, a, 1.0f});
  }
  return cases;
}

TEST_P(BoundSoundnessTest, DeterministicBoundsCoverCrossDeviceDeviation) {
  const SoundnessCase c = SoundnessCases()[static_cast<size_t>(GetParam())];
  std::vector<Tensor> inputs;
  for (size_t i = 0; i < c.shapes.size(); ++i) {
    inputs.push_back(RandTensor(c.shapes[i], 100 + GetParam() * 10 + i, c.scale));
  }
  // batch_norm-style stat inputs must be positive; handled in the dedicated test below.
  const int64_t checked =
      CheckCrossDeviceSoundness(c.op, inputs, c.attrs, BoundMode::kDeterministic);
  EXPECT_GT(checked, 0);
}

TEST_P(BoundSoundnessTest, ProbabilisticBoundsRarelyViolated) {
  const SoundnessCase c = SoundnessCases()[static_cast<size_t>(GetParam())];
  std::vector<Tensor> inputs;
  for (size_t i = 0; i < c.shapes.size(); ++i) {
    inputs.push_back(RandTensor(c.shapes[i], 200 + GetParam() * 10 + i, c.scale));
  }
  int64_t violations = 0;
  const int64_t checked =
      CheckCrossDeviceSoundness(c.op, inputs, c.attrs, BoundMode::kProbabilistic, &violations);
  // lambda = 4 gives >= 99.93% per-reduction confidence; real violations are far rarer
  // because mixed signs cancel. Allow 0.1%.
  EXPECT_LE(violations, std::max<int64_t>(1, checked / 1000)) << c.op;
}

INSTANTIATE_TEST_SUITE_P(AllOps, BoundSoundnessTest,
                         ::testing::Range(0, static_cast<int>(SoundnessCases().size())));

TEST_F(OpsTest, BatchNormSoundnessWithPositiveVariance) {
  Rng rng(42);
  const Tensor x = Tensor::Randn(Shape{2, 4, 5, 5}, rng);
  const Tensor w = Tensor::Randn(Shape{4}, rng);
  const Tensor b = Tensor::Randn(Shape{4}, rng);
  const Tensor mean = Tensor::Randn(Shape{4}, rng);
  const Tensor var = Tensor::Uniform(Shape{4}, rng, 0.25f, 2.0f);
  Attrs attrs;
  attrs.Set("eps", 1e-5);
  CheckCrossDeviceSoundness("batch_norm", {x, w, b, mean, var}, attrs,
                            BoundMode::kDeterministic);
}

TEST_F(OpsTest, ProbabilisticBoundTighterThanDeterministicForReductions) {
  const Tensor a = RandTensor(Shape{8, 512}, 77);
  const Tensor b = RandTensor(Shape{512, 8}, 78);
  const OpKernel& matmul = OpRegistry::Instance().Get("matmul");
  const std::vector<Tensor> inputs = {a, b};
  const Tensor out = matmul.Forward({ref_, inputs, {}});
  const DTensor det =
      matmul.Bound({ref_, inputs, out, {}, BoundMode::kDeterministic, kDefaultLambda});
  const DTensor prob =
      matmul.Bound({ref_, inputs, out, {}, BoundMode::kProbabilistic, kDefaultLambda});
  for (int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_LT(prob[i], det[i]);
  }
}

TEST_F(OpsTest, DataMovementOpsHaveZeroBound) {
  const Tensor x = RandTensor(Shape{2, 3, 4}, 80);
  for (const std::string op : {"reshape", "flatten", "transpose", "dropout", "identity"}) {
    Attrs attrs;
    if (op == "reshape") {
      attrs.Set("shape", std::vector<int64_t>{6, 4});
    } else if (op == "transpose") {
      attrs.Set("perm", std::vector<int64_t>{2, 0, 1});
    }
    const OpKernel& kernel = OpRegistry::Instance().Get(op);
    const std::vector<Tensor> inputs = {x};
    const Tensor out = kernel.Forward({ref_, inputs, attrs});
    const DTensor bound =
        kernel.Bound({ref_, inputs, out, attrs, BoundMode::kDeterministic, kDefaultLambda});
    for (int64_t i = 0; i < bound.numel(); ++i) {
      EXPECT_EQ(bound[i], 0.0) << op;
    }
  }
}

TEST_F(OpsTest, TransposeRejectsNonPermutation) {
  const Tensor x = Tensor::Arange(6).WithShape(Shape{2, 3});
  const OpKernel& transpose = OpRegistry::Instance().Get("transpose");
  for (const std::vector<int64_t>& perm :
       {std::vector<int64_t>{0, 0}, std::vector<int64_t>{0, 2}, std::vector<int64_t>{-1, 0}}) {
    Attrs attrs;
    attrs.Set("perm", perm);
    EXPECT_DEATH((void)transpose.InferShape({x.shape()}, attrs), "not a permutation");
    const std::vector<Tensor> inputs = {x};
    EXPECT_DEATH((void)transpose.Forward({ref_, inputs, attrs}), "not a permutation");
  }
}

// --------------------------- SIMD backend equivalence ------------------------------
//
// The vectorized backend (src/device/simd.h) claims bitwise identity with the scalar
// loops: the fixed 8-lane tree of vector-eligible profiles, and DotLanes' one output
// per lane for every order. These sweeps check the claim where it matters: whole
// operator forwards and bound templates, and full zoo-model traces, on every fleet
// profile, the reference, and synthetic profiles covering the remaining orders.
// Bitwise-equal outputs imply equal result commitments (C0 hashes exact FP32 bytes),
// so a passing sweep means dispatch can never change a verdict.

std::vector<DeviceProfile> SimdSweepProfiles() {
  std::vector<DeviceProfile> profiles = DeviceRegistry::Fleet();
  profiles.push_back(DeviceRegistry::Reference());
  const auto synthetic = [](const char* name, AccumulationOrder order, int64_t block,
                            bool fma) {
    DeviceProfile p = DeviceRegistry::Reference();
    p.name = name;
    p.order = order;
    p.block = block;
    p.fma = fma;
    return p;
  };
  profiles.push_back(synthetic("Reversed", AccumulationOrder::kReversed, 0, false));
  profiles.push_back(synthetic("Strided4", AccumulationOrder::kStrided, 4, false));
  profiles.push_back(synthetic("SequentialFma", AccumulationOrder::kSequential, 0, true));
  profiles.push_back(synthetic("Blocked7", AccumulationOrder::kBlocked, 7, true));
  return profiles;
}

std::string ProfileParamName(const ::testing::TestParamInfo<int>& info) {
  return SimdSweepProfiles()[static_cast<size_t>(info.param)].name;
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.values().size() * sizeof(float)) == 0;
}

bool BitwiseEqualD(const DTensor& a, const DTensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.values().size() * sizeof(double)) == 0;
}

std::vector<SoundnessCase> SimdSweepCases() {
  std::vector<SoundnessCase> cases = SoundnessCases();
  // Remainder-lane shapes: inner dimensions not divisible by 8 and below-8 tails.
  cases.push_back({"matmul", {Shape{9, 37}, Shape{37, 11}}, {}, 1.0f});
  cases.push_back({"matmul", {Shape{5, 7}, Shape{7, 3}}, {}, 1.0f});
  cases.push_back({"bmm", {Shape{3, 6, 29}, Shape{3, 29, 5}}, {}, 1.0f});
  cases.push_back({"bmm", {Shape{2, 1, 300}, Shape{2, 300, 19}}, {}, 1.0f});
  cases.push_back({"matmul", {Shape{1, 130}, Shape{130, 17}}, {}, 1.0f});
  cases.push_back({"linear", {Shape{6, 83}, Shape{13, 83}, Shape{13}}, {}, 1.0f});
  // One row reads the weights in place; two or more pack them into lane groups.
  cases.push_back({"linear", {Shape{1, 300}, Shape{21, 300}, Shape{21}}, {}, 1.0f});
  cases.push_back({"linear", {Shape{2, 3, 40}, Shape{7, 40}, Shape{7}}, {}, 1.0f});
  {
    Attrs a;
    a.Set("stride", static_cast<int64_t>(2));
    a.Set("padding", static_cast<int64_t>(1));
    cases.push_back({"conv2d", {Shape{2, 3, 9, 9}, Shape{11, 3, 3, 3}, Shape{11}}, a, 1.0f});
  }
  {
    // A single output position reads the weights in place.
    Attrs a;
    a.Set("stride", static_cast<int64_t>(1));
    a.Set("padding", static_cast<int64_t>(0));
    cases.push_back({"conv2d", {Shape{1, 4, 3, 3}, Shape{13, 4, 3, 3}, Shape{13}}, a, 1.0f});
  }
  {
    Attrs a;
    a.Set("perm", std::vector<int64_t>{2, 0, 1});
    cases.push_back({"transpose", {Shape{3, 5, 7}}, a, 1.0f});
    Attrs b;
    b.Set("perm", std::vector<int64_t>{1, 0, 3, 2});
    cases.push_back({"transpose", {Shape{2, 3, 4, 5}}, b, 1.0f});
  }
  // A single-element operand on either side skips broadcast indexing.
  cases.push_back({"mul", {Shape{4, 5, 6}, Shape{1}}, {}, 1.0f});
  cases.push_back({"div", {Shape{1, 1}, Shape{3, 67}}, {}, 1.0f});
  {
    Attrs a;
    a.Set("axis", static_cast<int64_t>(-1));
    cases.push_back({"softmax", {Shape{7, 101}}, a, 3.0f});
    cases.push_back({"sum", {Shape{5, 999}}, a, 1.0f});
    cases.push_back({"mean", {Shape{5, 999}}, a, 1.0f});
  }
  {
    Attrs a;
    a.Set("eps", 1e-5);
    cases.push_back({"layer_norm", {Shape{3, 77}, Shape{77}, Shape{77}}, a, 2.0f});
  }
  {
    Attrs a;
    a.Set("out_h", static_cast<int64_t>(3));
    a.Set("out_w", static_cast<int64_t>(5));
    cases.push_back({"adaptive_avg_pool2d", {Shape{2, 3, 11, 13}}, a, 1.0f});
  }
  {
    Attrs a;
    a.Set("kernel", static_cast<int64_t>(3));
    a.Set("stride", static_cast<int64_t>(2));
    cases.push_back({"avg_pool2d", {Shape{2, 3, 13, 13}}, a, 1.0f});
  }
  cases.push_back({"relu", {Shape{1001}}, {}, 1.0f});
  cases.push_back({"neg", {Shape{1001}}, {}, 1.0f});
  cases.push_back({"sub", {Shape{515}, Shape{515}}, {}, 1.0f});
  cases.push_back({"div", {Shape{515}, Shape{515}}, {}, 1.0f});
  // Transcendentals route through src/device/vmath.h: odd lengths cross the
  // AVX2 body's scalar tail, scale 3 pushes samples into the clamp regions.
  cases.push_back({"exp", {Shape{1003}}, {}, 3.0f});
  cases.push_back({"tanh", {Shape{1003}}, {}, 3.0f});
  cases.push_back({"gelu", {Shape{1003}}, {}, 3.0f});
  cases.push_back({"silu", {Shape{1003}}, {}, 3.0f});
  return cases;
}

class SimdOpSweepTest : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  void SetUp() override {
    RegisterAllOps();
    if (!SimdBackendSupported(SimdBackend::kAvx2)) {
      GTEST_SKIP() << "AVX2 unavailable; only the scalar backend exists here";
    }
  }
};

TEST_P(SimdOpSweepTest, ForwardAndBoundBitwiseScalarVsSimd) {
  const auto [profile, case_index] = GetParam();
  const DeviceProfile device = SimdSweepProfiles()[static_cast<size_t>(profile)];
  const SoundnessCase c = SimdSweepCases()[static_cast<size_t>(case_index)];
  std::vector<Tensor> inputs;
  for (size_t i = 0; i < c.shapes.size(); ++i) {
    inputs.push_back(RandTensor(c.shapes[i], 300 + case_index * 10 + i, c.scale));
  }
  const OpKernel& kernel = OpRegistry::Instance().Get(c.op);
  Tensor out_scalar, out_simd;
  DTensor bound_scalar, bound_simd;
  {
    ScopedSimdBackend force(SimdBackend::kScalar);
    out_scalar = kernel.Forward({device, inputs, c.attrs});
    bound_scalar = kernel.Bound({device, inputs, out_scalar, c.attrs,
                                 BoundMode::kDeterministic, kDefaultLambda});
  }
  {
    ScopedSimdBackend force(SimdBackend::kAvx2);
    out_simd = kernel.Forward({device, inputs, c.attrs});
    bound_simd = kernel.Bound({device, inputs, out_simd, c.attrs,
                               BoundMode::kDeterministic, kDefaultLambda});
  }
  EXPECT_TRUE(BitwiseEqual(out_scalar, out_simd)) << c.op;
  EXPECT_TRUE(BitwiseEqualD(bound_scalar, bound_simd)) << c.op;
}

std::string SweepParamName(const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  const size_t case_index = static_cast<size_t>(std::get<1>(info.param));
  return SimdSweepProfiles()[static_cast<size_t>(std::get<0>(info.param))].name + "_" +
         SimdSweepCases()[case_index].op + "_" + std::to_string(case_index);
}

INSTANTIATE_TEST_SUITE_P(
    AllProfilesAndOps, SimdOpSweepTest,
    ::testing::Combine(::testing::Range(0, static_cast<int>(SimdSweepProfiles().size())),
                       ::testing::Range(0, static_cast<int>(SimdSweepCases().size()))),
    SweepParamName);

// ParallelFor may only repartition loop iterations that write disjoint outputs
// (docs/runtime.md). The executor forks only large operators, so the zoo models rarely
// reach a kernel's split loop; this sweep drives every kernel's split loop directly, on
// whichever backend is active.
class ParallelOpSweepTest : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  void SetUp() override { RegisterAllOps(); }
};

TEST_P(ParallelOpSweepTest, ForwardAndBoundBitwiseAcrossParallelForWidths) {
  const auto [profile, case_index] = GetParam();
  const DeviceProfile device = SimdSweepProfiles()[static_cast<size_t>(profile)];
  const SoundnessCase c = SimdSweepCases()[static_cast<size_t>(case_index)];
  std::vector<Tensor> inputs;
  for (size_t i = 0; i < c.shapes.size(); ++i) {
    inputs.push_back(RandTensor(c.shapes[i], 400 + case_index * 10 + i, c.scale));
  }
  const OpKernel& kernel = OpRegistry::Instance().Get(c.op);
  const Tensor out = kernel.Forward({device, inputs, c.attrs});
  const DTensor bound = kernel.Bound(
      {device, inputs, out, c.attrs, BoundMode::kDeterministic, kDefaultLambda});
  ThreadPool pool(7);
  for (const int width : {2, 8}) {
    const ParallelFor parallel(&pool, width);
    const Tensor split_out = kernel.Forward({device, inputs, c.attrs, &parallel});
    const DTensor split_bound = kernel.Bound({device, inputs, split_out, c.attrs,
                                              BoundMode::kDeterministic, kDefaultLambda,
                                              &parallel});
    EXPECT_TRUE(BitwiseEqual(out, split_out)) << c.op << " at width " << width;
    EXPECT_TRUE(BitwiseEqualD(bound, split_bound)) << c.op << " at width " << width;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProfilesAndOps, ParallelOpSweepTest,
    ::testing::Combine(::testing::Range(0, static_cast<int>(SimdSweepProfiles().size())),
                       ::testing::Range(0, static_cast<int>(SimdSweepCases().size()))),
    SweepParamName);

class SimdZooTraceTest : public ::testing::TestWithParam<int> {};

TEST_P(SimdZooTraceTest, FullTracesAndBoundsBitwiseStableAcrossBackends) {
  // Every profile's traces cover the whole vector surface the backend dispatches:
  // reductions (fixed tree or lanes), exact elementwise helpers and vmath.
  if (!SimdBackendSupported(SimdBackend::kAvx2)) {
    GTEST_SKIP() << "AVX2 unavailable; only the scalar backend exists here";
  }
  RegisterAllOps();
  const DeviceProfile device = SimdSweepProfiles()[static_cast<size_t>(GetParam())];
  ExecutorOptions options;
  options.with_bounds = true;
  options.bound_mode = BoundMode::kDeterministic;
  for (const Model& model : {BuildBertMini(), BuildResNetMini()}) {
    Rng rng(0x700d);
    const std::vector<Tensor> input = model.sample_input(rng);
    const Executor exec(*model.graph, device);
    ExecutionTrace scalar_trace, simd_trace;
    {
      ScopedSimdBackend force(SimdBackend::kScalar);
      scalar_trace = exec.Run(input, options);
    }
    {
      ScopedSimdBackend force(SimdBackend::kAvx2);
      simd_trace = exec.Run(input, options);
    }
    for (const NodeId id : model.graph->op_nodes()) {
      ASSERT_TRUE(BitwiseEqual(scalar_trace.value(id), simd_trace.value(id)))
          << model.name << " node " << id;
      ASSERT_TRUE(BitwiseEqualD(scalar_trace.bound(id), simd_trace.bound(id)))
          << model.name << " node " << id;
    }
    // Equal per-node values means equal canonical serializations, hence equal C0
    // result commitments and identical threshold verdicts for any challenger.
  }
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, SimdZooTraceTest,
                         ::testing::Range(0, static_cast<int>(SimdSweepProfiles().size())),
                         ProfileParamName);

TEST_F(OpsTest, RegistryContainsAllPaperOperators) {
  // Appendix A.3 operator inventory (modulo naming).
  for (const std::string op :
       {"add", "sub", "mul", "div", "pow", "neg", "sqrt", "rsqrt", "exp", "log", "sin",
        "cos", "tanh", "relu", "gelu", "silu", "softmax", "batch_norm", "layer_norm",
        "group_norm", "rms_norm", "matmul", "bmm", "linear", "conv2d", "mean", "sum",
        "adaptive_avg_pool2d", "max_pool2d", "avg_pool2d", "interpolate", "concat", "slice",
        "flatten", "reshape", "transpose", "masked_fill", "embedding", "reduce_max",
        "reduce_min", "dropout", "identity"}) {
    EXPECT_TRUE(OpRegistry::Instance().Contains(op)) << op;
  }
}

}  // namespace
}  // namespace tao
