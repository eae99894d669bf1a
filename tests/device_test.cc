// Tests for the simulated accelerator fleet: reduction orderings must agree to within
// IEEE-754 reassociation error, genuinely differ bitwise on hard inputs, and be
// deterministic per profile. The SIMD backend (src/device/simd.h) additionally must
// be BITWISE identical to the scalar fixed-tree loops — commitments hash exact FP32
// values, so "close" is not good enough; every equality below is on bit patterns.

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/device/device.h"
#include "src/device/simd.h"
#include "src/device/vmath.h"
#include "src/util/rng.h"

namespace tao {
namespace {

constexpr double kUnitRoundoff = 0x1.0p-24;

std::vector<float> RandomVector(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) {
    x = static_cast<float>(rng.NextGaussian());
  }
  return v;
}

TEST(DeviceTest, FleetHasFourDistinctDevices) {
  const auto& fleet = DeviceRegistry::Fleet();
  ASSERT_EQ(fleet.size(), 4u);
  for (size_t i = 0; i < fleet.size(); ++i) {
    for (size_t j = i + 1; j < fleet.size(); ++j) {
      EXPECT_NE(fleet[i].name, fleet[j].name);
    }
  }
}

TEST(DeviceTest, ByNameFindsAllDevices) {
  EXPECT_EQ(DeviceRegistry::ByName("reference").name, "reference");
  for (const auto& d : DeviceRegistry::Fleet()) {
    EXPECT_EQ(DeviceRegistry::ByName(d.name).name, d.name);
  }
}

TEST(DeviceTest, AccumulateExactForSmallIntegers) {
  // Integer-valued sums below 2^24 are exact in FP32 regardless of order.
  const std::vector<float> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  for (const auto& d : DeviceRegistry::Fleet()) {
    EXPECT_EQ(d.Accumulate(xs), 55.0f) << d.name;
  }
  EXPECT_EQ(DeviceRegistry::Reference().Accumulate(xs), 55.0f);
}

TEST(DeviceTest, OrderingsProduceDifferentRoundings) {
  // With 64k random normals, distinct association orders round differently with
  // overwhelming probability.
  const auto xs = RandomVector(1 << 16, 42);
  const float ref = DeviceRegistry::Reference().Accumulate(xs);
  int differing = 0;
  for (const auto& d : DeviceRegistry::Fleet()) {
    if (d.Accumulate(xs) != ref) {
      ++differing;
    }
  }
  EXPECT_GE(differing, 3) << "fleet should be numerically heterogeneous";
}

TEST(DeviceTest, AccumulateDeterministicPerProfile) {
  const auto xs = RandomVector(4097, 7);
  for (const auto& d : DeviceRegistry::Fleet()) {
    EXPECT_EQ(d.Accumulate(xs), d.Accumulate(xs)) << d.name;
  }
}

TEST(DeviceTest, CrossDeviceDeviationWithinTheoreticalEnvelope) {
  // |sum_d - sum_exact| <= gamma_{n-1} * sum |x_i| for every association order
  // (Higham 2002, Sec. 4.2 — reassociation only changes which gamma applies, and
  // gamma_{n-1} covers every order).
  const size_t n = 2048;
  const auto xs = RandomVector(n, 1234);
  double exact = 0.0;
  double abs_sum = 0.0;
  for (const float x : xs) {
    exact += static_cast<double>(x);
    abs_sum += std::abs(static_cast<double>(x));
  }
  const double gamma = (static_cast<double>(n - 1) * kUnitRoundoff) /
                       (1.0 - static_cast<double>(n - 1) * kUnitRoundoff);
  const double envelope = gamma * abs_sum;
  for (const auto& d : DeviceRegistry::Fleet()) {
    const double err = std::abs(static_cast<double>(d.Accumulate(xs)) - exact);
    EXPECT_LE(err, envelope) << d.name;
  }
}

TEST(DeviceTest, DotMatchesAccumulateOfProducts) {
  // For a profile without FMA, Dot must equal Accumulate over rounded products.
  const auto a = RandomVector(1000, 1);
  const auto b = RandomVector(1000, 2);
  const DeviceProfile& rtx4090 = DeviceRegistry::ByName("RTX4090");
  ASSERT_FALSE(rtx4090.fma);
  std::vector<float> prods(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    prods[i] = a[i] * b[i];
  }
  EXPECT_EQ(rtx4090.Dot(a, b), rtx4090.Accumulate(prods));
}

TEST(DeviceTest, DotStridedMatchesContiguous) {
  const auto a = RandomVector(256, 5);
  const auto b = RandomVector(256, 6);
  for (const auto& d : DeviceRegistry::Fleet()) {
    EXPECT_EQ(d.Dot(a, b), d.DotStrided(a.data(), 1, b.data(), 1, 256)) << d.name;
  }
}

TEST(DeviceTest, FmaChangesRounding) {
  DeviceProfile with_fma = DeviceRegistry::Reference();
  with_fma.fma = true;
  const DeviceProfile& without = DeviceRegistry::Reference();
  const auto a = RandomVector(1 << 14, 21);
  const auto b = RandomVector(1 << 14, 22);
  EXPECT_NE(with_fma.Dot(a, b), without.Dot(a, b));
}

TEST(DeviceTest, IntrinsicFlavorsBitwiseOnVmathTranscendentals) {
  // Exp/Tanh/Erf route through the fixed vmath polynomials on EVERY profile, so
  // the two intrinsic flavors must agree bitwise there — while Log (still
  // flavored libm) must keep genuinely diverging, or the flavor knob would be
  // dead and the cross-device calibration envelopes for log-bearing ops vacuous.
  DeviceProfile native = DeviceRegistry::Reference();
  native.intrinsics = IntrinsicFlavor::kFloatNative;
  DeviceProfile rounded = DeviceRegistry::Reference();
  rounded.intrinsics = IntrinsicFlavor::kDoubleRounded;
  Rng rng(31);
  bool log_diverged = false;
  for (int i = 0; i < 10000; ++i) {
    const float x = static_cast<float>(rng.NextUniform(-10.0, 10.0));
    EXPECT_EQ(std::bit_cast<uint32_t>(native.Exp(x)),
              std::bit_cast<uint32_t>(rounded.Exp(x)))
        << "x=" << x;
    EXPECT_EQ(std::bit_cast<uint32_t>(native.Tanh(x)),
              std::bit_cast<uint32_t>(rounded.Tanh(x)))
        << "x=" << x;
    EXPECT_EQ(std::bit_cast<uint32_t>(native.Erf(x)),
              std::bit_cast<uint32_t>(rounded.Erf(x)))
        << "x=" << x;
    const float pos = std::abs(x) + 0.5f;
    log_diverged = log_diverged || native.Log(pos) != rounded.Log(pos);
  }
  EXPECT_TRUE(log_diverged);
}

TEST(DeviceTest, SqrtCorrectlyRoundedOnBothFlavors) {
  Rng rng(33);
  for (const auto& d : DeviceRegistry::Fleet()) {
    for (int i = 0; i < 1000; ++i) {
      const float x = static_cast<float>(rng.NextUniform(0.0, 100.0));
      EXPECT_EQ(d.Sqrt(x), std::sqrt(x));
    }
  }
}

TEST(DeviceTest, EmptyAccumulateIsZero) {
  const std::vector<float> empty;
  for (const auto& d : DeviceRegistry::Fleet()) {
    EXPECT_EQ(d.Accumulate(empty), 0.0f);
  }
}

class AccumOrderTest : public ::testing::TestWithParam<size_t> {};

TEST_P(AccumOrderTest, AllOrdersWithinEnvelopeAcrossSizes) {
  const size_t n = GetParam();
  const auto xs = RandomVector(n, 9000 + n);
  double exact = 0.0;
  double abs_sum = 0.0;
  for (const float x : xs) {
    exact += static_cast<double>(x);
    abs_sum += std::abs(static_cast<double>(x));
  }
  const double gamma = (static_cast<double>(n) * kUnitRoundoff) /
                       (1.0 - static_cast<double>(n) * kUnitRoundoff);
  for (const auto& d : DeviceRegistry::Fleet()) {
    EXPECT_LE(std::abs(static_cast<double>(d.Accumulate(xs)) - exact), gamma * abs_sum)
        << d.name << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AccumOrderTest,
                         ::testing::Values(1, 2, 3, 7, 8, 9, 63, 64, 65, 127, 1000, 4096));

// ---------------------------------------------------------------------------------
// SIMD backend: bitwise equivalence with the scalar fixed-tree loops.
// ---------------------------------------------------------------------------------

// Bit-pattern equality: distinguishes -0 from +0 and treats identical NaNs as equal,
// which is the standard a hashed commitment actually imposes.
::testing::AssertionResult BitEq(float a, float b) {
  if (std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << std::hexfloat << a << " (0x" << std::hex << std::bit_cast<uint32_t>(a)
         << ") vs " << std::hexfloat << b << " (0x" << std::hex
         << std::bit_cast<uint32_t>(b) << ")";
}

// Adversarial float mix: gaussians spiked with signed zeros, denormals, and
// magnitude cliffs, so tail handling and lane combines see the hard cases.
std::vector<float> HardVector(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    switch (rng.NextBounded(8)) {
      case 0:
        v[i] = (rng.NextU64() & 1) ? 0.0f : -0.0f;
        break;
      case 1:
        v[i] = 1e-40f * static_cast<float>(rng.NextGaussian());  // denormal range
        break;
      case 2:
        v[i] = 1e12f * static_cast<float>(rng.NextGaussian());
        break;
      default:
        v[i] = static_cast<float>(rng.NextGaussian());
    }
  }
  return v;
}

const std::vector<size_t>& SimdSizes() {
  // Crosses every tail length mod 8 plus the n <= 8 sequential-rule boundary.
  static const std::vector<size_t> kSizes = {0,  1,  2,   3,   7,    8,    9,   15,
                                             16, 17, 63,  64,  65,   100,  127, 128,
                                             129, 1000, 4095, 4096, 4097};
  return kSizes;
}

class SimdEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!SimdBackendSupported(SimdBackend::kAvx2)) {
      GTEST_SKIP() << "AVX2 unavailable; scalar fallback is the only backend";
    }
  }
};

TEST_F(SimdEquivalenceTest, SumBitwiseAcrossSizesAndAlignments) {
  for (const size_t n : SimdSizes()) {
    // +9 so every offset below stays in bounds.
    const auto xs = HardVector(n + 9, 0x51d0 + n);
    for (const size_t offset : {size_t{0}, size_t{1}, size_t{3}, size_t{9}}) {
      float scalar_sum = 0.0f, simd_sum = 0.0f;
      {
        ScopedSimdBackend force(SimdBackend::kScalar);
        scalar_sum = simd::SumStrided8(xs.data() + offset, static_cast<int64_t>(n));
      }
      {
        ScopedSimdBackend force(SimdBackend::kAvx2);
        simd_sum = simd::SumStrided8(xs.data() + offset, static_cast<int64_t>(n));
      }
      EXPECT_TRUE(BitEq(scalar_sum, simd_sum)) << "n=" << n << " offset=" << offset;
    }
  }
}

TEST_F(SimdEquivalenceTest, DotBitwiseAcrossSizesStridesAndAlignments) {
  // Strides cover the contiguous vector kernel (1,1) and strided operands, which take
  // the scalar loop on both backends.
  const std::vector<std::pair<int64_t, int64_t>> strides = {{1, 1}, {1, 7}, {3, 1}, {2, 5}};
  for (const size_t n : SimdSizes()) {
    for (const auto& [sa, sb] : strides) {
      const auto a = HardVector(n * static_cast<size_t>(sa) + 9, 0xd07a + n);
      const auto b = HardVector(n * static_cast<size_t>(sb) + 9, 0xd07b + n);
      for (const size_t offset : {size_t{0}, size_t{1}}) {
        float scalar_dot = 0.0f, simd_dot = 0.0f;
        {
          ScopedSimdBackend force(SimdBackend::kScalar);
          scalar_dot = simd::DotStrided8(a.data() + offset, sa, b.data() + offset, sb,
                                         static_cast<int64_t>(n));
        }
        {
          ScopedSimdBackend force(SimdBackend::kAvx2);
          simd_dot = simd::DotStrided8(a.data() + offset, sa, b.data() + offset, sb,
                                       static_cast<int64_t>(n));
        }
        EXPECT_TRUE(BitEq(scalar_dot, simd_dot))
            << "n=" << n << " sa=" << sa << " sb=" << sb << " offset=" << offset;
      }
    }
  }
}

// One profile per reduction order and FMA policy: the blocked and strided block sizes
// divide none of SimdSizes(), and kStrided(4) exercises S accumulators with S != 8.
std::vector<DeviceProfile> LaneTestProfiles() {
  std::vector<DeviceProfile> profiles;
  const std::pair<AccumulationOrder, int64_t> orders[] = {
      {AccumulationOrder::kSequential, 0}, {AccumulationOrder::kReversed, 0},
      {AccumulationOrder::kPairwiseTree, 0}, {AccumulationOrder::kBlocked, 7},
      {AccumulationOrder::kStrided, 4},      {AccumulationOrder::kStrided, 8}};
  for (const auto& [order, block] : orders) {
    for (const bool fma : {false, true}) {
      DeviceProfile p = DeviceRegistry::Reference();
      p.order = order;
      p.block = block;
      p.fma = fma;
      p.name = std::to_string(static_cast<int>(order)) + (fma ? "+fma" : "");
      profiles.push_back(p);
    }
  }
  return profiles;
}

// A float buffer whose last element sits directly before an inaccessible page, so any
// read past the operand faults.
class GuardedFloats {
 public:
  explicit GuardedFloats(const std::vector<float>& values) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    const size_t bytes = values.size() * sizeof(float);
    size_ = (bytes + page - 1) / page * page + page;
    void* base =
        mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    EXPECT_NE(base, MAP_FAILED);
    base_ = static_cast<char*>(base);
    EXPECT_EQ(mprotect(base_ + size_ - page, page, PROT_NONE), 0);
    data_ = reinterpret_cast<float*>(base_ + size_ - page - bytes);
    std::copy(values.begin(), values.end(), data_);
  }
  ~GuardedFloats() { munmap(base_, size_); }
  GuardedFloats(const GuardedFloats&) = delete;
  GuardedFloats& operator=(const GuardedFloats&) = delete;

  const float* data() const { return data_; }

 private:
  char* base_ = nullptr;
  size_t size_ = 0;
  float* data_ = nullptr;
};

TEST_F(SimdEquivalenceTest, DotLanesBitwiseAgainstPerLaneReference) {
  struct Layout {
    const char* name;
    int64_t stride_a;
    // lane_stride and stride_b as functions of the reduction length.
    int64_t (*lane_stride)(int64_t n);
    int64_t (*stride_b)(int64_t n);
  };
  const Layout layouts[] = {
      // Packed lane groups and matmul's B rows: lane l at b[l], index i one row down.
      {"contiguous", 1, [](int64_t) -> int64_t { return 1; },
       [](int64_t) -> int64_t { return 8; }},
      {"contiguous-rows", 3, [](int64_t) -> int64_t { return 1; },
       [](int64_t) -> int64_t { return 11; }},
      // Weights read in place: lane l is row l of a row-major [lanes, n] matrix.
      {"strided", 1, [](int64_t n) { return std::max<int64_t>(n, 1); },
       [](int64_t) -> int64_t { return 1; }},
  };
  const auto check = [](const DeviceProfile& profile, const Layout& layout, int64_t n,
                        const std::vector<float>& a, int64_t lanes) {
    const int64_t lane_stride = layout.lane_stride(n);
    const int64_t stride_b = layout.stride_b(n);
    // b ends exactly at the last element lane lanes-1 reads.
    const int64_t b_size =
        std::max<int64_t>(n - 1, 0) * stride_b + (lanes - 1) * lane_stride + 1;
    const GuardedFloats b(HardVector(static_cast<size_t>(b_size), 0x2b9e + n));
    float want[simd::kLanes];
    {
      ScopedSimdBackend force(SimdBackend::kScalar);
      for (int64_t l = 0; l < lanes; ++l) {
        want[l] = profile.DotStrided(a.data(), layout.stride_a, b.data() + l * lane_stride,
                                     stride_b, n);
      }
    }
    float got[simd::kLanes + 1];
    std::fill(std::begin(got), std::end(got), 42.0f);
    {
      ScopedSimdBackend force(SimdBackend::kAvx2);
      simd::DotLanes(profile, a.data(), layout.stride_a, b.data(), lane_stride, stride_b,
                     n, lanes, got);
    }
    for (int64_t l = 0; l < lanes; ++l) {
      ASSERT_TRUE(BitEq(want[l], got[l])) << profile.name << " " << layout.name
                                          << " n=" << n << " lanes=" << lanes << " lane=" << l;
    }
    ASSERT_EQ(got[lanes], 42.0f) << "wrote past lane " << lanes - 1;
  };
  for (const DeviceProfile& profile : LaneTestProfiles()) {
    for (const Layout& layout : layouts) {
      for (const size_t size : SimdSizes()) {
        const int64_t n = static_cast<int64_t>(size);
        const auto a = HardVector(std::max<size_t>(size, 1) * layout.stride_a, 0x1a9e + size);
        // Short reductions also run with a holding only signed zeros: every product is
        // then an exact zero whose sign reaches the output only where the order seeds
        // nothing, which pins how each order stages its products.
        std::vector<float> zeros = a;
        for (float& x : zeros) {
          x = std::signbit(x) ? -0.0f : 0.0f;
        }
        for (int64_t lanes = 1; lanes <= simd::kLanes; ++lanes) {
          check(profile, layout, n, a, lanes);
          if (n <= 8) {
            check(profile, layout, n, zeros, lanes);
          }
        }
      }
    }
  }
}

TEST(SimdProfileTest, PackLanesInterleavesRowsAndZeroPads) {
  const int64_t rows = 11, k = 5;
  std::vector<float> w(static_cast<size_t>(rows * k));
  for (size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<float>(i + 1);
  }
  std::vector<float> packed(static_cast<size_t>(2 * simd::kLanes * k), -1.0f);
  simd::PackLanes(w.data(), rows, k, packed.data());
  for (int64_t g = 0; g < 2; ++g) {
    for (int64_t p = 0; p < k; ++p) {
      for (int64_t l = 0; l < simd::kLanes; ++l) {
        const int64_t row = g * simd::kLanes + l;
        EXPECT_EQ(packed[static_cast<size_t>((g * k + p) * simd::kLanes + l)],
                  row < rows ? w[static_cast<size_t>(row * k + p)] : 0.0f)
            << "g=" << g << " p=" << p << " l=" << l;
      }
    }
  }
}

TEST_F(SimdEquivalenceTest, ElementwiseHelpersBitwise) {
  const size_t n = 1003;  // tail of 3 mod 8
  const auto a = HardVector(n, 0xe1e1);
  const auto b = HardVector(n, 0xe2e2);
  std::vector<float> scalar_out(n), simd_out(n);
  const auto check = [&](const char* what, const std::function<void(float*)>& run) {
    ScopedSimdBackend scalar(SimdBackend::kScalar);
    run(scalar_out.data());
    {
      ScopedSimdBackend avx2(SimdBackend::kAvx2);
      run(simd_out.data());
    }
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(BitEq(scalar_out[i], simd_out[i])) << what << " i=" << i;
    }
  };
  const int64_t sn = static_cast<int64_t>(n);
  check("add", [&](float* o) { simd::AddVec(a.data(), b.data(), o, sn); });
  check("sub", [&](float* o) { simd::SubVec(a.data(), b.data(), o, sn); });
  check("mul", [&](float* o) { simd::MulVec(a.data(), b.data(), o, sn); });
  check("div", [&](float* o) { simd::DivVec(a.data(), b.data(), o, sn); });
  check("relu", [&](float* o) { simd::Relu(a.data(), o, sn); });
  check("neg", [&](float* o) { simd::Neg(a.data(), o, sn); });
  check("norm_affine", [&](float* o) {
    simd::NormAffine(a.data(), 0.125f, 1.5f, b.data(), a.data(), o, sn);
  });
  check("center_square",
        [&](float* o) { simd::CenterSquare(a.data(), -0.25f, o, sn); });
}

TEST_F(SimdEquivalenceTest, RowMaxMatchesScalarFold) {
  for (const size_t n : SimdSizes()) {
    if (n == 0) {
      continue;  // RowMax requires a nonempty row (softmax rows are nonempty)
    }
    const auto xs = HardVector(n, 0x3a41 + n);
    float scalar_max = 0.0f, simd_max = 0.0f;
    {
      ScopedSimdBackend force(SimdBackend::kScalar);
      scalar_max = simd::RowMax(xs.data(), static_cast<int64_t>(n));
    }
    {
      ScopedSimdBackend force(SimdBackend::kAvx2);
      simd_max = simd::RowMax(xs.data(), static_cast<int64_t>(n));
    }
    // The vector fold may legitimately differ only in the sign of a zero maximum
    // (documented in simd.h; invisible through exp()). Everything else is bitwise.
    if (scalar_max == 0.0f && simd_max == 0.0f) {
      continue;
    }
    EXPECT_TRUE(BitEq(scalar_max, simd_max)) << "n=" << n;
  }
}

TEST(SimdProfileTest, VectorPathEqualsScalarStridedSemantics) {
  // The dispatched vector-eligible path must reproduce the scalar *profile semantics*
  // (kStrided block=8 staged products): compare the RTX6000 profile on the active
  // backend against the same profile forced scalar.
  const DeviceProfile& rtx6000 = DeviceRegistry::ByName("RTX6000");
  ASSERT_TRUE(rtx6000.vector_eligible());
  for (const size_t n : SimdSizes()) {
    const auto xs = HardVector(n, 0xbead + n);
    const auto ys = HardVector(n, 0xcead + n);
    float scalar_sum = 0.0f, scalar_dot = 0.0f;
    {
      ScopedSimdBackend force(SimdBackend::kScalar);
      scalar_sum = rtx6000.Accumulate(xs);
      scalar_dot = rtx6000.DotStrided(xs.data(), 1, ys.data(), 1,
                                      static_cast<int64_t>(n));
    }
    EXPECT_TRUE(BitEq(rtx6000.Accumulate(xs), scalar_sum)) << "n=" << n;
    EXPECT_TRUE(BitEq(rtx6000.DotStrided(xs.data(), 1, ys.data(), 1,
                                         static_cast<int64_t>(n)),
                      scalar_dot))
        << "n=" << n;
  }
}

TEST(SimdProfileTest, NonEligibleProfilesReduceOneOutputPerLane) {
  // The 8-lane unit cannot split one sequential/tree/blocked reduction across lanes, so
  // Accumulate and DotStrided stay scalar for these profiles; only DotLanes vectorizes
  // them, one whole output per lane. Every path must be independent of the dispatch
  // decision.
  const auto xs = HardVector(1001, 0xf1ee);
  const auto ys = HardVector(8 * 1001, 0xf2ee);
  for (const auto& d : DeviceRegistry::Fleet()) {
    if (d.vector_eligible()) {
      continue;
    }
    float scalar_sum = 0.0f;
    float scalar_dots[simd::kLanes];
    {
      ScopedSimdBackend force(SimdBackend::kScalar);
      scalar_sum = d.Accumulate(xs);
      simd::DotLanes(d, xs.data(), 1, ys.data(), 1001, 1, 1001, simd::kLanes, scalar_dots);
    }
    for (int64_t l = 0; l < simd::kLanes; ++l) {
      EXPECT_TRUE(BitEq(scalar_dots[l], d.Dot(xs, std::span(ys).subspan(1001 * l, 1001))))
          << d.name << " lane " << l;
    }
    if (SimdBackendSupported(SimdBackend::kAvx2)) {
      ScopedSimdBackend force(SimdBackend::kAvx2);
      EXPECT_TRUE(BitEq(d.Accumulate(xs), scalar_sum)) << d.name;
      float simd_dots[simd::kLanes];
      simd::DotLanes(d, xs.data(), 1, ys.data(), 1001, 1, 1001, simd::kLanes, simd_dots);
      for (int64_t l = 0; l < simd::kLanes; ++l) {
        EXPECT_TRUE(BitEq(simd_dots[l], scalar_dots[l])) << d.name << " lane " << l;
      }
    }
  }
}

TEST(SimdProfileTest, BackendNamesAndSupport) {
  EXPECT_STREQ(SimdBackendName(SimdBackend::kScalar), "scalar");
  EXPECT_STREQ(SimdBackendName(SimdBackend::kAvx2), "avx2");
  EXPECT_TRUE(SimdBackendSupported(SimdBackend::kScalar));
  // ActiveSimdBackend always resolves to something this host supports.
  EXPECT_TRUE(SimdBackendSupported(ActiveSimdBackend()));
}

TEST(FleetSignatureTest, PinnedAndMovedByArithmeticChanges) {
  std::vector<DeviceProfile> fleet = DeviceRegistry::Fleet();
  const std::string sig = FleetSignature(fleet);
  // Published calibrations embed this exact string; it must never move without a
  // change to the fleet's arithmetic.
  EXPECT_EQ(sig,
            "vmath1;H100:tree:0:fma1:dbl;A100:blocked:128:fma1:fn;"
            "RTX4090:blocked:32:fma0:fn;RTX6000:strided:8:fma1:fn");
  // Any arithmetic change must move it.
  fleet[0].fma = !fleet[0].fma;
  EXPECT_NE(FleetSignature(fleet), sig);
  fleet[0].fma = !fleet[0].fma;
  fleet[1].order = AccumulationOrder::kReversed;
  EXPECT_NE(FleetSignature(fleet), sig);
}


// ---------------------------------------------------------------------------------
// Vector transcendental math (src/device/vmath.h): the AVX2 bodies must be bitwise
// identical to the scalar recipe, tails must clamp monotonically, and every fleet
// profile must agree on these functions (they carry no ordering freedom).
// ---------------------------------------------------------------------------------

// Inputs that exercise every vmath code path: the active polynomial ranges, both
// blend seams, the clamp tails on both sides, denormals, signed zeros, infinities,
// and NaN. Scaled gaussians fill the rest.
std::vector<float> VmathHardVector(size_t n, uint64_t seed) {
  static const float kSpecials[] = {
      0.0f,        -0.0f,       INFINITY,     -INFINITY,    NAN,
      1e-40f,      -1e-40f,     1e-44f,       -1e-44f,  // denormals
      0.625f,      -0.625f,     1.0f,         -1.0f,    // tanh/erf seams
      4.0f,        -4.0f,       9.0f,         -9.0f,    // erf/tanh clamps
      -87.3365448f, 88.722839f, -87.34f,      88.73f,   // exp flush/overflow
      -100.0f,     100.0f,      3.40282347e38f, -3.40282347e38f};
  Rng rng(seed);
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextU64() % 4 == 0) {
      v[i] = kSpecials[rng.NextU64() % (sizeof(kSpecials) / sizeof(kSpecials[0]))];
    } else {
      v[i] = 4.0f * static_cast<float>(rng.NextGaussian());
    }
  }
  return v;
}

class VmathEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!SimdBackendSupported(SimdBackend::kAvx2)) {
      GTEST_SKIP() << "AVX2 unavailable; scalar fallback is the only backend";
    }
  }
};

TEST_F(VmathEquivalenceTest, ArrayFunctionsBitwiseAcrossSizesAndAlignments) {
  struct Fn {
    const char* name;
    void (*fn)(const float*, float*, int64_t);
  };
  const Fn fns[] = {{"exp", &vmath::ExpVec},         {"tanh", &vmath::TanhVec},
                    {"erf", &vmath::ErfVec},         {"sigmoid", &vmath::SigmoidVec},
                    {"gelu", &vmath::GeluVec},       {"silu", &vmath::SiluVec}};
  for (const Fn& f : fns) {
    for (const size_t n : SimdSizes()) {
      const auto xs = VmathHardVector(n + 9, 0x7a0 + n);
      for (const size_t offset : {size_t{0}, size_t{1}, size_t{3}, size_t{9}}) {
        std::vector<float> scalar_out(n), simd_out(n);
        {
          ScopedSimdBackend force(SimdBackend::kScalar);
          f.fn(xs.data() + offset, scalar_out.data(), static_cast<int64_t>(n));
        }
        {
          ScopedSimdBackend force(SimdBackend::kAvx2);
          f.fn(xs.data() + offset, simd_out.data(), static_cast<int64_t>(n));
        }
        for (size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(BitEq(scalar_out[i], simd_out[i]))
              << f.name << " n=" << n << " offset=" << offset << " i=" << i
              << " x=" << xs[offset + i];
        }
      }
    }
  }
}

TEST_F(VmathEquivalenceTest, AvxPathMatchesScalarFunctions) {
  // The 8-wide body must equal the one-float recipe element for element (the
  // scalar functions are what the dispute game's reference semantics quote).
  const auto xs = VmathHardVector(4096, 0xeef);
  std::vector<float> out(xs.size());
  ScopedSimdBackend force(SimdBackend::kAvx2);
  vmath::ExpVec(xs.data(), out.data(), static_cast<int64_t>(xs.size()));
  for (size_t i = 0; i < xs.size(); ++i) {
    ASSERT_TRUE(BitEq(out[i], vmath::Exp(xs[i]))) << "x=" << xs[i];
  }
  vmath::GeluVec(xs.data(), out.data(), static_cast<int64_t>(xs.size()));
  for (size_t i = 0; i < xs.size(); ++i) {
    ASSERT_TRUE(BitEq(out[i], vmath::Gelu(xs[i]))) << "x=" << xs[i];
  }
}

TEST(VmathTest, TailsAndSpecials) {
  EXPECT_TRUE(BitEq(vmath::Exp(-INFINITY), 0.0f));
  EXPECT_TRUE(BitEq(vmath::Exp(INFINITY), INFINITY));
  EXPECT_TRUE(std::isnan(vmath::Exp(NAN)));
  EXPECT_TRUE(BitEq(vmath::Exp(-100.0f), 0.0f));  // documented denormal flush
  EXPECT_TRUE(BitEq(vmath::Exp(100.0f), INFINITY));
  EXPECT_TRUE(BitEq(vmath::Exp(0.0f), 1.0f));

  EXPECT_TRUE(BitEq(vmath::Tanh(0.0f), 0.0f));
  EXPECT_TRUE(BitEq(vmath::Tanh(-0.0f), -0.0f));  // sign of zero survives
  EXPECT_TRUE(BitEq(vmath::Tanh(50.0f), 1.0f));
  EXPECT_TRUE(BitEq(vmath::Tanh(-50.0f), -1.0f));
  EXPECT_TRUE(BitEq(vmath::Tanh(INFINITY), 1.0f));
  EXPECT_TRUE(BitEq(vmath::Tanh(-INFINITY), -1.0f));
  EXPECT_TRUE(std::isnan(vmath::Tanh(NAN)));

  EXPECT_TRUE(BitEq(vmath::Erf(0.0f), 0.0f));
  EXPECT_TRUE(BitEq(vmath::Erf(-0.0f), -0.0f));
  EXPECT_TRUE(BitEq(vmath::Erf(INFINITY), 1.0f));
  EXPECT_TRUE(BitEq(vmath::Erf(-INFINITY), -1.0f));
  EXPECT_TRUE(std::isnan(vmath::Erf(NAN)));

  EXPECT_TRUE(BitEq(vmath::Sigmoid(0.0f), 0.5f));
  EXPECT_TRUE(BitEq(vmath::Sigmoid(INFINITY), 1.0f));
  EXPECT_TRUE(BitEq(vmath::Sigmoid(-INFINITY), 0.0f));
}

TEST(VmathTest, ClampBoundariesAreMonotone) {
  // Stepping ulp by ulp across each clamp seam must never reverse direction —
  // a non-monotone seam would let an adversary place activations where scalar
  // reference checks and batched re-execution could disagree on "close" values.
  {
    // exp flush: descending through -87.3365448 must be non-increasing.
    float x = -87.33f;
    float prev = vmath::Exp(x);
    for (int i = 0; i < 2000; ++i) {
      x = std::nextafterf(x, -INFINITY);
      const float y = vmath::Exp(x);
      ASSERT_LE(y, prev) << "x=" << x;
      prev = y;
    }
    EXPECT_EQ(prev, 0.0f);  // ended inside the flush region
  }
  {
    // exp overflow: ascending through 88.722839 must be non-decreasing.
    float x = 88.71f;
    float prev = vmath::Exp(x);
    for (int i = 0; i < 4000; ++i) {
      x = std::nextafterf(x, INFINITY);
      const float y = vmath::Exp(x);
      ASSERT_GE(y, prev) << "x=" << x;
      prev = y;
    }
    EXPECT_EQ(prev, INFINITY);
  }
  {
    // tanh clamp at 9: ascending must be non-decreasing and land exactly on 1.
    float x = 8.999f;
    float prev = vmath::Tanh(x);
    for (int i = 0; i < 3000; ++i) {
      x = std::nextafterf(x, INFINITY);
      const float y = vmath::Tanh(x);
      ASSERT_GE(y, prev) << "x=" << x;
      prev = y;
    }
    EXPECT_EQ(prev, 1.0f);
  }
  {
    // erf clamp at 4: same, and A&S 7.1.26 evaluates to exactly 1.0f at the seam.
    float x = 3.9995f;
    float prev = vmath::Erf(x);
    for (int i = 0; i < 3000; ++i) {
      x = std::nextafterf(x, INFINITY);
      const float y = vmath::Erf(x);
      ASSERT_GE(y, prev) << "x=" << x;
      prev = y;
    }
    EXPECT_EQ(prev, 1.0f);
  }
}

TEST(VmathTest, AccuracyAgainstDoubleLibm) {
  // The stated ULP table (device.cc: exp 4, tanh 4, erf 8) must hold against
  // double-precision references across the supported range.
  Rng rng(0xacc2);
  const auto ulps = [](float got, double want) {
    const double w = want;
    const float wf = static_cast<float>(w);
    const float ulp = std::abs(std::nextafterf(wf, INFINITY) - wf);
    return ulp == 0.0f ? 0.0 : std::abs(static_cast<double>(got) - w) / ulp;
  };
  for (int i = 0; i < 20000; ++i) {
    const float xe = static_cast<float>(rng.NextUniform(-87.0, 88.0));
    EXPECT_LE(ulps(vmath::Exp(xe), std::exp(static_cast<double>(xe))), 4.0)
        << "x=" << xe;
    const float xt = static_cast<float>(rng.NextUniform(-10.0, 10.0));
    EXPECT_LE(ulps(vmath::Tanh(xt), std::tanh(static_cast<double>(xt))), 4.0)
        << "x=" << xt;
    EXPECT_LE(ulps(vmath::Erf(xt), std::erf(static_cast<double>(xt))), 8.0)
        << "x=" << xt;
  }
}

TEST(VmathTest, AllProfilesAgreeOnTranscendentals) {
  // Unlike reductions, these are elementwise with a pinned recipe: every profile
  // (any ordering, fma, intrinsic flavor) must return the same bits.
  const auto& fleet = DeviceRegistry::Fleet();
  Rng rng(0xfee7);
  for (int i = 0; i < 2000; ++i) {
    const float x = 6.0f * static_cast<float>(rng.NextGaussian());
    const float e = fleet[0].Exp(x);
    const float t = fleet[0].Tanh(x);
    const float r = fleet[0].Erf(x);
    for (size_t d = 1; d < fleet.size(); ++d) {
      ASSERT_TRUE(BitEq(fleet[d].Exp(x), e)) << fleet[d].name << " x=" << x;
      ASSERT_TRUE(BitEq(fleet[d].Tanh(x), t)) << fleet[d].name << " x=" << x;
      ASSERT_TRUE(BitEq(fleet[d].Erf(x), r)) << fleet[d].name << " x=" << x;
    }
  }
}

TEST(FleetSignatureTest, CarriesVmathVersionToken) {
  // Calibrations hash the arithmetic they were measured on; the vmath revision is
  // part of that arithmetic, so the signature must lead with its version token
  // (bumping kVmathVersion invalidates every published ThresholdSet).
  const std::string sig = FleetSignature(DeviceRegistry::Fleet());
  EXPECT_EQ(sig.rfind(std::string(vmath::kVmathVersion) + ";", 0), 0u) << sig;
}

}  // namespace
}  // namespace tao
