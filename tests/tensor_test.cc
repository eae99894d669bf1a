// Unit tests for Shape and Tensor.

#include <limits>

#include <gtest/gtest.h>

#include "src/tensor/shape.h"
#include "src/tensor/tensor.h"

namespace tao {
namespace {

TEST(ShapeTest, NumelAndRank) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(-1), 4);
}

TEST(ShapeTest, ScalarShape) {
  const Shape s{};
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.numel(), 1);
}

TEST(ShapeTest, StridesRowMajor) {
  const Shape s{2, 3, 4};
  const auto strides = s.Strides();
  ASSERT_EQ(strides.size(), 3u);
  EXPECT_EQ(strides[0], 12);
  EXPECT_EQ(strides[1], 4);
  EXPECT_EQ(strides[2], 1);
}

TEST(ShapeTest, LinearizeDelinearizeRoundTrip) {
  const Shape s{3, 5, 7};
  for (int64_t off = 0; off < s.numel(); ++off) {
    const auto index = s.Delinearize(off);
    EXPECT_EQ(s.Linearize(index), off);
  }
}

TEST(ShapeTest, EqualityAndToString) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_EQ(Shape({2, 3}).ToString(), "[2, 3]");
}

TEST(TensorTest, ZerosAndFill) {
  Tensor t = Tensor::Zeros(Shape{2, 2});
  for (const float v : t.values()) {
    EXPECT_EQ(v, 0.0f);
  }
  t.Fill(3.0f);
  for (const float v : t.values()) {
    EXPECT_EQ(v, 3.0f);
  }
}

TEST(TensorTest, SharedStorageOnCopyDeepOnClone) {
  Tensor a = Tensor::Full(Shape{4}, 1.0f);
  Tensor b = a;           // shares storage
  Tensor c = a.Clone();   // deep copy
  EXPECT_TRUE(a.SameStorageAs(b));
  EXPECT_FALSE(a.SameStorageAs(c));
  b.mutable_values()[0] = 9.0f;
  EXPECT_EQ(a[0], 9.0f);
  EXPECT_EQ(c[0], 1.0f);
}

TEST(TensorTest, RandnIsSeededDeterministic) {
  Rng rng1(123);
  Rng rng2(123);
  const Tensor a = Tensor::Randn(Shape{32}, rng1);
  const Tensor b = Tensor::Randn(Shape{32}, rng2);
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(a[i], b[i]);
  }
}

TEST(TensorTest, WithShapeSharesStorage) {
  Tensor a = Tensor::Arange(6);
  const Tensor b = a.WithShape(Shape{2, 3});
  EXPECT_TRUE(a.SameStorageAs(b));
  EXPECT_EQ(b.shape(), Shape({2, 3}));
  EXPECT_EQ(b.at(std::vector<int64_t>{1, 2}), 5.0f);
}

TEST(TensorTest, CastToDouble) {
  const Tensor a = Tensor::Arange(3);
  const DTensor d = a.Cast<double>();
  EXPECT_DOUBLE_EQ(d[2], 2.0);
}

TEST(TensorTest, MaxAbsDiffAndErrors) {
  Tensor a = Tensor::Full(Shape{3}, 1.0f);
  Tensor b = a.Clone();
  b.mutable_values()[1] = 1.5f;
  EXPECT_FLOAT_EQ(static_cast<float>(MaxAbsDiff(a, b)), 0.5f);
  const auto abs_err = AbsErrors(a, b);
  EXPECT_DOUBLE_EQ(abs_err[0], 0.0);
  EXPECT_DOUBLE_EQ(abs_err[1], 0.5);
  const auto rel_err = RelErrors(a, b);
  EXPECT_NEAR(rel_err[1], 0.5, 1e-9);
}

// A NaN on one side is an infinite difference, not none: equality checks written as
// MaxAbsDiff(a, b) == 0 must not pass a divergence that yields NaN.
TEST(TensorTest, MaxAbsDiffReadsNonFiniteValues) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const auto diff = [](float a, float b) {
    return MaxAbsDiff(Tensor::Full(Shape{1}, a), Tensor::Full(Shape{1}, b));
  };
  EXPECT_EQ(diff(nan, 1.0f), std::numeric_limits<double>::infinity());
  EXPECT_EQ(diff(1.0f, nan), std::numeric_limits<double>::infinity());
  EXPECT_EQ(diff(nan, nan), 0.0);
  EXPECT_EQ(diff(inf, inf), 0.0);
  EXPECT_EQ(diff(inf, -inf), std::numeric_limits<double>::infinity());
  // One NaN element among equal ones still dominates.
  Tensor a = Tensor::Full(Shape{4}, 2.0f);
  Tensor b = a.Clone();
  b.mutable_values()[2] = nan;
  EXPECT_EQ(MaxAbsDiff(a, b), std::numeric_limits<double>::infinity());
}

TEST(TensorTest, UniformWithinRange) {
  Rng rng(77);
  const Tensor t = Tensor::Uniform(Shape{1000}, rng, -2.0f, 2.0f);
  for (const float v : t.values()) {
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 2.0f);
  }
}

}  // namespace
}  // namespace tao
