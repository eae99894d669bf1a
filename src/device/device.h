// Simulated heterogeneous accelerators.
//
// The TAO paper runs on four NVIDIA GPUs whose vendor kernels legitimately reorder
// floating-point reductions and fuse multiply-adds; that reordering is the *only*
// property of the hardware the protocol interacts with (Sec. 1: "cross-platform
// nondeterminism is intrinsic"). We reproduce it faithfully in software: a
// `DeviceProfile` fixes an accumulation order (sequential, reversed, pairwise tree,
// blocked, strided/interleaved — all orderings that real warp/tile schedules induce),
// an FMA contraction policy, and an intrinsic evaluation flavour. Running the same
// FP32 operator under two profiles yields bitwise-different results whose deviation is
// exactly IEEE-754 non-associativity, the same mechanism as real GPUs, with the same
// ~u·sqrt(k) relative magnitudes.
//
// Every reduction in the operator library (src/ops) routes through this interface, so
// a model executed on DeviceRegistry::Fleet() exhibits per-operator cross-device error
// distributions that the calibration pipeline (src/calib) measures, exactly as the
// paper's offline calibration does across its GPU fleet.

#ifndef TAO_SRC_DEVICE_DEVICE_H_
#define TAO_SRC_DEVICE_DEVICE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace tao {

// How a device's kernels order the partial sums of a reduction.
enum class AccumulationOrder {
  kSequential,    // strict left-to-right; the canonical reference order
  kReversed,      // right-to-left
  kPairwiseTree,  // recursive pairwise halving (tree reduction)
  kBlocked,       // per-block sequential partials, then sequential across partials
  kStrided,       // S interleaved accumulators (warp-lane style), then combine
};

// How a device evaluates transcendental intrinsics (CUDA math functions are allowed
// vendor-specific ULP error; we model two table entries: a float-native path and a
// compute-in-double-then-round path, which differ in the last ulp). Exp/Tanh/Erf are
// exempt: they route through the pinned vmath polynomials (src/device/vmath.h) on
// every profile so the vectorized hot loops stay bitwise reproducible; the flavour
// still differentiates Log/Sin/Cos/Rsqrt/Pow.
enum class IntrinsicFlavor {
  kFloatNative,
  kDoubleRounded,
};

struct DeviceProfile {
  std::string name;
  AccumulationOrder order = AccumulationOrder::kSequential;
  // Block size for kBlocked, accumulator count for kStrided; ignored otherwise.
  int64_t block = 128;
  // Whether multiply-accumulate steps contract to fused multiply-add (one rounding).
  bool fma = false;
  IntrinsicFlavor intrinsics = IntrinsicFlavor::kFloatNative;

  // True when this profile's reduction order is exactly the fixed 8-lane tree a vector
  // unit executes natively (kStrided with block == 8). Only such profiles may split ONE
  // reduction across vector lanes (Accumulate, and DotStrided over a contiguous row);
  // splitting any other order would reassociate it. The dense kernels of every profile
  // vectorize across outputs instead, one whole reduction per lane (simd::DotLanes).
  bool vector_eligible() const {
    return order == AccumulationOrder::kStrided && block == 8;
  }

  // --- Reductions -----------------------------------------------------------------
  // Sum of `xs` in this device's order. This is the sole source of cross-device
  // nondeterminism for reductions.
  float Accumulate(std::span<const float> xs) const;
  // Inner product <a, b> in this device's order and FMA policy.
  float Dot(std::span<const float> a, std::span<const float> b) const;
  // Strided inner product for matmul inner loops: a[i*stride_a], b[i*stride_b]. This is
  // the reference semantics simd::DotLanes reproduces eight outputs at a time.
  float DotStrided(const float* a, int64_t stride_a, const float* b, int64_t stride_b,
                   int64_t n) const;

  // --- Intrinsics -----------------------------------------------------------------
  float Exp(float x) const;
  float Log(float x) const;
  float Sin(float x) const;
  float Cos(float x) const;
  float Tanh(float x) const;
  float Sqrt(float x) const;
  float Rsqrt(float x) const;
  float Pow(float x, float y) const;
  float Erf(float x) const;

  // Maximum ULP error of each intrinsic under this profile, mirroring the CUDA math
  // table the paper cites for theoretical-bound construction.
  double ExpUlp() const;
  double LogUlp() const;
  double TanhUlp() const;
  double SinCosUlp() const;
  double SqrtUlp() const;
  double RsqrtUlp() const;
  double PowUlp() const;
  double ErfUlp() const;
};

// Canonical single-token signature of a fleet's *arithmetic*: a leading vmath
// version token (the pinned transcendental polynomials every profile shares — see
// src/device/vmath.h) followed by one entry per device (name, accumulation order,
// block, FMA policy, intrinsic flavour). Thresholds are calibrated against a
// specific fleet, so serialized threshold files embed this signature and the loader
// can detect that the arithmetic changed underneath a published calibration (which
// requires recalibrating) — whether by fleet composition or by a vmath generation
// bump. Block is encoded only for the blocked and strided orders, the ones it
// changes.
std::string FleetSignature(std::span<const DeviceProfile> fleet);

// The calibration fleet (stand-ins for RTX 4090, RTX 6000, A100, H100) plus the
// canonical reference profile used for deterministic re-execution.
class DeviceRegistry {
 public:
  // Canonical order: strict sequential, no FMA, float-native intrinsics. Challenger
  // re-execution and leaf adjudication use this profile.
  static const DeviceProfile& Reference();
  // The four-device heterogeneous fleet used for calibration and proposer execution.
  static const std::vector<DeviceProfile>& Fleet();
  // Lookup by name (includes "reference"); aborts on unknown name.
  static const DeviceProfile& ByName(const std::string& name);
};

}  // namespace tao

#endif  // TAO_SRC_DEVICE_DEVICE_H_
