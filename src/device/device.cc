#include "src/device/device.h"

#include <cmath>

#include "src/device/simd.h"
#include "src/device/vmath.h"
#include "src/util/check.h"

namespace tao {
namespace {

float SumSequential(std::span<const float> xs) {
  float acc = 0.0f;
  for (const float x : xs) {
    acc += x;
  }
  return acc;
}

float SumReversed(std::span<const float> xs) {
  float acc = 0.0f;
  for (size_t i = xs.size(); i > 0; --i) {
    acc += xs[i - 1];
  }
  return acc;
}

float SumPairwise(std::span<const float> xs) {
  if (xs.empty()) {
    return 0.0f;
  }
  if (xs.size() == 1) {
    return xs[0];
  }
  const size_t half = xs.size() / 2;
  return SumPairwise(xs.subspan(0, half)) + SumPairwise(xs.subspan(half));
}

float SumBlocked(std::span<const float> xs, int64_t block) {
  TAO_CHECK_GT(block, 0);
  float acc = 0.0f;
  size_t i = 0;
  while (i < xs.size()) {
    const size_t len = std::min(static_cast<size_t>(block), xs.size() - i);
    float partial = 0.0f;
    for (size_t j = 0; j < len; ++j) {
      partial += xs[i + j];
    }
    acc += partial;
    i += len;
  }
  return acc;
}

float SumStrided(std::span<const float> xs, int64_t lanes) {
  TAO_CHECK_GT(lanes, 0);
  const size_t s = static_cast<size_t>(lanes);
  if (xs.size() <= s) {
    return SumSequential(xs);
  }
  std::vector<float> acc(s, 0.0f);
  for (size_t i = 0; i < xs.size(); ++i) {
    acc[i % s] += xs[i];
  }
  float total = 0.0f;
  for (const float a : acc) {
    total += a;
  }
  return total;
}

}  // namespace

float DeviceProfile::Accumulate(std::span<const float> xs) const {
  // Vector-eligible profiles (the fixed 8-lane tree) route through the SIMD backend;
  // simd::SumStrided8 is bitwise identical to SumStrided(xs, 8) on every input, so
  // this is a pure speed dispatch, never a numerics dispatch.
  if (vector_eligible()) {
    return simd::SumStrided8(xs.data(), static_cast<int64_t>(xs.size()));
  }
  switch (order) {
    case AccumulationOrder::kSequential:
      return SumSequential(xs);
    case AccumulationOrder::kReversed:
      return SumReversed(xs);
    case AccumulationOrder::kPairwiseTree:
      return SumPairwise(xs);
    case AccumulationOrder::kBlocked:
      return SumBlocked(xs, block);
    case AccumulationOrder::kStrided:
      return SumStrided(xs, block);
  }
  TAO_CHECK(false) << "unreachable";
  return 0.0f;
}

float DeviceProfile::Dot(std::span<const float> a, std::span<const float> b) const {
  TAO_CHECK_EQ(a.size(), b.size());
  return DotStrided(a.data(), 1, b.data(), 1, static_cast<int64_t>(a.size()));
}

float DeviceProfile::DotStrided(const float* a, int64_t stride_a, const float* b,
                                int64_t stride_b, int64_t n) const {
  // Sequential-family orders fold the product into the accumulator directly (possibly
  // with FMA contraction); tree/blocked/strided orders materialize rounded products
  // first, matching how tiled GPU kernels stage operands through registers.
  // The fixed 8-lane tree stages one rounding per product whether the profile fuses or
  // not (fl(a*b + 0) == fl(a*b) as a summand: a lane accumulator starting at +0 can
  // never become -0, so the sign of an exact-zero product is absorbed identically), so
  // vector-eligible profiles share one SIMD-dispatched kernel for both FMA policies.
  if (vector_eligible()) {
    return simd::DotStrided8(a, stride_a, b, stride_b, n);
  }
  auto product = [&](int64_t i) -> float { return a[i * stride_a] * b[i * stride_b]; };
  switch (order) {
    case AccumulationOrder::kSequential: {
      float acc = 0.0f;
      if (fma) {
        for (int64_t i = 0; i < n; ++i) {
          acc = std::fmaf(a[i * stride_a], b[i * stride_b], acc);
        }
      } else {
        for (int64_t i = 0; i < n; ++i) {
          acc += product(i);
        }
      }
      return acc;
    }
    case AccumulationOrder::kReversed: {
      float acc = 0.0f;
      if (fma) {
        for (int64_t i = n; i > 0; --i) {
          acc = std::fmaf(a[(i - 1) * stride_a], b[(i - 1) * stride_b], acc);
        }
      } else {
        for (int64_t i = n; i > 0; --i) {
          acc += product(i - 1);
        }
      }
      return acc;
    }
    case AccumulationOrder::kPairwiseTree:
    case AccumulationOrder::kBlocked:
    case AccumulationOrder::kStrided: {
      std::vector<float> prods(static_cast<size_t>(n));
      if (fma) {
        // Contracted product staging: round-to-nearest of the exact product is what
        // FMA-based tiles feed the tree; emulate with fmaf against zero.
        for (int64_t i = 0; i < n; ++i) {
          prods[static_cast<size_t>(i)] = std::fmaf(a[i * stride_a], b[i * stride_b], 0.0f);
        }
      } else {
        for (int64_t i = 0; i < n; ++i) {
          prods[static_cast<size_t>(i)] = product(i);
        }
      }
      return Accumulate(prods);
    }
  }
  TAO_CHECK(false) << "unreachable";
  return 0.0f;
}

// Intrinsics. exp/tanh/erf route through the pinned vmath polynomials for EVERY
// profile and flavour: those three back the vectorized hot loops (softmax, gelu,
// tanh/silu activations), and vmath's scalar and AVX2 bodies are bitwise identical by
// construction, so all simulated devices now agree bit for bit on them — reductions
// remain the sole cross-device nondeterminism source for transcendental-bearing ops.
// The remaining intrinsics keep the two libm flavours (float-native vs
// compute-in-double-then-round), modelling the last-ulp divergence the CUDA math
// library is permitted across architectures.
float DeviceProfile::Exp(float x) const { return vmath::Exp(x); }

float DeviceProfile::Log(float x) const {
  return intrinsics == IntrinsicFlavor::kFloatNative
             ? std::log(x)
             : static_cast<float>(std::log(static_cast<double>(x)));
}

float DeviceProfile::Sin(float x) const {
  return intrinsics == IntrinsicFlavor::kFloatNative
             ? std::sin(x)
             : static_cast<float>(std::sin(static_cast<double>(x)));
}

float DeviceProfile::Cos(float x) const {
  return intrinsics == IntrinsicFlavor::kFloatNative
             ? std::cos(x)
             : static_cast<float>(std::cos(static_cast<double>(x)));
}

float DeviceProfile::Tanh(float x) const { return vmath::Tanh(x); }

float DeviceProfile::Sqrt(float x) const {
  // sqrt is correctly rounded in IEEE-754 on both paths.
  return std::sqrt(x);
}

float DeviceProfile::Rsqrt(float x) const {
  return intrinsics == IntrinsicFlavor::kFloatNative
             ? 1.0f / std::sqrt(x)
             : static_cast<float>(1.0 / std::sqrt(static_cast<double>(x)));
}

float DeviceProfile::Pow(float x, float y) const {
  return intrinsics == IntrinsicFlavor::kFloatNative
             ? std::pow(x, y)
             : static_cast<float>(std::pow(static_cast<double>(x), static_cast<double>(y)));
}

float DeviceProfile::Erf(float x) const { return vmath::Erf(x); }

// ULP table for intrinsic terms in theoretical bounds, mirroring the CUDA C
// Programming Guide's math accuracy table the paper uses. exp/tanh/erf now state the
// vmath polynomials' conservative maxima versus the infinitely precise result
// (empirically <= 2/3/5 ulp; stated as 4/4/8 so bounds stay sound with margin — all
// devices agree BITWISE on these three, so the cross-device deviation they bound is
// zero and the wider radius costs nothing in dispute power). The rest keep the CUDA
// table values (log 1 ulp, sin/cos 2 ulp, sqrt correctly rounded, rsqrt 2 ulp,
// pow 2 ulp); bounds must hold for every admissible device, so templates query the
// profile's stated maxima.
double DeviceProfile::ExpUlp() const { return 4.0; }
double DeviceProfile::LogUlp() const { return 1.0; }
double DeviceProfile::TanhUlp() const { return 4.0; }
double DeviceProfile::SinCosUlp() const { return 2.0; }
double DeviceProfile::SqrtUlp() const { return 0.5; }
double DeviceProfile::RsqrtUlp() const { return 2.0; }
double DeviceProfile::PowUlp() const { return 2.0; }
double DeviceProfile::ErfUlp() const { return 8.0; }

const DeviceProfile& DeviceRegistry::Reference() {
  static const DeviceProfile kReference{
      .name = "reference",
      .order = AccumulationOrder::kSequential,
      .block = 0,
      .fma = false,
      .intrinsics = IntrinsicFlavor::kFloatNative,
  };
  return kReference;
}

const std::vector<DeviceProfile>& DeviceRegistry::Fleet() {
  static const std::vector<DeviceProfile> kFleet = {
      DeviceProfile{.name = "H100",
                    .order = AccumulationOrder::kPairwiseTree,
                    .block = 0,
                    .fma = true,
                    .intrinsics = IntrinsicFlavor::kDoubleRounded},
      DeviceProfile{.name = "A100",
                    .order = AccumulationOrder::kBlocked,
                    .block = 128,
                    .fma = true,
                    .intrinsics = IntrinsicFlavor::kFloatNative},
      DeviceProfile{.name = "RTX4090",
                    .order = AccumulationOrder::kBlocked,
                    .block = 32,
                    .fma = false,
                    .intrinsics = IntrinsicFlavor::kFloatNative},
      // kStrided(8) is the fixed 8-lane tree: the fleet's vector-eligible profile.
      DeviceProfile{.name = "RTX6000",
                    .order = AccumulationOrder::kStrided,
                    .block = 8,
                    .fma = true,
                    .intrinsics = IntrinsicFlavor::kFloatNative},
  };
  return kFleet;
}

std::string FleetSignature(std::span<const DeviceProfile> fleet) {
  // The vmath version token leads the signature: the pinned transcendental
  // polynomials are part of every device's arithmetic, so a coefficient change is a
  // fleet change — calibrations published against a different vmath generation must
  // be rejected by the v2 loader exactly like a device-composition change.
  std::string sig = vmath::kVmathVersion;
  for (const DeviceProfile& d : fleet) {
    // Block only participates in the arithmetic for blocked/strided orders.
    const int64_t block =
        d.order == AccumulationOrder::kBlocked || d.order == AccumulationOrder::kStrided
            ? d.block
            : 0;
    static const char* kOrderTokens[] = {"seq", "rev", "tree", "blocked", "strided"};
    if (!sig.empty()) {
      sig += ';';
    }
    sig += d.name;
    sig += ':';
    sig += kOrderTokens[static_cast<int>(d.order)];
    sig += ':';
    sig += std::to_string(block);
    sig += d.fma ? ":fma1:" : ":fma0:";
    sig += d.intrinsics == IntrinsicFlavor::kDoubleRounded ? "dbl" : "fn";
  }
  return sig;
}

const DeviceProfile& DeviceRegistry::ByName(const std::string& name) {
  if (name == "reference") {
    return Reference();
  }
  for (const DeviceProfile& d : Fleet()) {
    if (d.name == name) {
      return d;
    }
  }
  TAO_CHECK(false) << "unknown device " << name;
  return Reference();
}

}  // namespace tao
