// Vectorized kernel backend with runtime dispatch.
//
// The paper's constraint is that commitments hash exact FP32 values, so a fast kernel
// is only admissible if it is *bitwise-reproducible* across runs and across hosts
// (a scalar machine re-executing a claim must reproduce the proposer's vector output
// bit for bit). The backend achieves this by construction. A single reduction is
// vectorized only under one FIXED reduction tree — eight strided lane accumulators
// followed by a fixed sequential lane combine — which is exactly the arithmetic of
// `AccumulationOrder::kStrided` with `block = 8` (the RTX6000 profile). One AVX2 ymm
// register holds the eight lanes, so the vector loop and the scalar loop perform the
// *same additions in the same order*; they can only differ in speed. A vector unit
// cannot split one reduction of the other orders (kSequential, kReversed,
// kPairwiseTree, kBlocked, kStrided with block != 8) across lanes without
// reassociating it, so the dense kernels vectorize across outputs instead: DotLanes
// runs up to eight whole reductions side by side, one per lane, each in the profile's
// own order, for every profile.
//
// Dispatch is decided once at startup from CPUID (plus the TAO_DISABLE_SIMD
// environment escape hatch) and reported through LogSimdBackendOnce() and the
// service-metrics counter `backend/simd_avx2`, so deployed hosts record which backend
// served their commitments. The elementwise helpers at the bottom are exact (one IEEE
// rounding per element, no ordering freedom), so they are safe for EVERY profile and
// backend, not just vector-eligible ones.

#ifndef TAO_SRC_DEVICE_SIMD_H_
#define TAO_SRC_DEVICE_SIMD_H_

#include <cstdint>
#include <optional>

namespace tao {

struct DeviceProfile;  // src/device/device.h

enum class SimdBackend {
  kScalar,  // portable fixed-tree loops; the always-correct fallback
  kAvx2,    // AVX2 (8 x FP32 lanes); bitwise identical to kScalar by construction
};

// True when this build + this CPU can execute the backend at all.
bool SimdBackendSupported(SimdBackend backend);

// The backend every vector-eligible primitive routes through. Resolution order:
// test/bench override (ForceSimdBackend) > TAO_DISABLE_SIMD env > CPUID detection.
// The detected value is cached after the first call.
SimdBackend ActiveSimdBackend();

const char* SimdBackendName(SimdBackend backend);

// Overrides the dispatch decision (tests and the scalar-vs-SIMD bench columns).
// Forcing an unsupported backend aborts; pass std::nullopt to restore detection.
void ForceSimdBackend(std::optional<SimdBackend> backend);

// RAII override for tests: forces `backend` for the scope, restores the previous
// override on destruction.
class ScopedSimdBackend {
 public:
  explicit ScopedSimdBackend(SimdBackend backend);
  ~ScopedSimdBackend();
  ScopedSimdBackend(const ScopedSimdBackend&) = delete;
  ScopedSimdBackend& operator=(const ScopedSimdBackend&) = delete;

 private:
  std::optional<SimdBackend> previous_;
};

// Writes one "kernel backend: <name>" line to stderr the first time it is called
// (the service layer calls it at startup so deployed hosts log the live backend).
void LogSimdBackendOnce();

namespace simd {

// --- Fixed-tree reductions (vector-eligible profiles only) --------------------------
//
// Both functions implement kStrided(block=8) exactly: n <= 8 falls back to the strict
// sequential sum (matching the scalar profile's small-n rule), larger n accumulate
// into eight lanes (lane j folds elements j, j+8, j+16, ... in index order) and the
// lanes combine left to right. Results are bitwise identical between the scalar and
// AVX2 implementations for every input, including remainder tails (n % 8 != 0),
// unaligned bases, and negative/denormal data.

// Sum of x[0..n) under the fixed 8-lane tree.
float SumStrided8(const float* x, int64_t n);

// Inner product sum_i a[i*stride_a] * b[i*stride_b] under the fixed 8-lane tree.
// Each product is rounded once before entering the tree (this also matches the
// staged-FMA profiles: fl(a*b + 0) == fl(a*b) as a summand — the sign of an exact
// zero product cannot propagate through lane accumulators that start at +0). The AVX2
// backend vectorizes contiguous operands (stride_a == stride_b == 1); strided operands
// take the scalar loop on every backend.
float DotStrided8(const float* a, int64_t stride_a, const float* b, int64_t stride_b,
                  int64_t n);

// --- Multi-output inner products (every profile) ------------------------------------

// Outputs per DotLanes call: one per AVX2 lane.
inline constexpr int64_t kLanes = 8;

// Up to kLanes inner products sharing the `a` operand, bit for bit equal to
//   out[l] = device.DotStrided(a, stride_a, b + l * lane_stride, stride_b, n)
// for l < lanes, on every profile and backend. The one dense inner-product path of
// matmul, bmm, linear and conv2d. On AVX2+FMA hosts every profile computes all lanes
// at once: lane l performs exactly the IEEE operations of the profile's scalar
// reduction of output l (same staged products, same association order, same operand
// order), and lanes past `lanes` are masked so they never read b. One case keeps
// per-lane DotStrided calls: a vector_eligible() profile whose lanes are contiguous
// rows (stride_b == 1), where the fixed 8-lane tree vectorizes inside each row. The
// scalar backend and CPUs without FMA also evaluate the lanes one by one through
// DotStrided.
void DotLanes(const DeviceProfile& device, const float* a, int64_t stride_a,
              const float* b, int64_t lane_stride, int64_t stride_b, int64_t n,
              int64_t lanes, float* out);

// Packs a row-major [rows, k] matrix into groups of kLanes interleaved rows:
// packed[(g * k + p) * kLanes + l] = w[(g * kLanes + l) * k + p], zero past the last
// row. Group g then feeds DotLanes(device, a, 1, packed + g * kLanes * k, 1, kLanes,
// k, lanes, out) with one contiguous vector per index. `packed` holds
// ceil(rows / kLanes) * kLanes * k floats.
void PackLanes(const float* w, int64_t rows, int64_t k, float* packed);

// --- Exact elementwise helpers (safe for every profile and backend) -----------------
//
// One IEEE-754 rounding per listed operation, evaluated in the documented order, so
// scalar and vector execution agree bitwise element by element. NaN handling matches
// the scalar idioms they replace (see Relu / RowMax).

void AddVec(const float* a, const float* b, float* out, int64_t n);   // a[i] + b[i]
void SubVec(const float* a, const float* b, float* out, int64_t n);   // a[i] - b[i]
void MulVec(const float* a, const float* b, float* out, int64_t n);   // a[i] * b[i]
void DivVec(const float* a, const float* b, float* out, int64_t n);   // a[i] / b[i]

// out[i] = x[i] > 0 ? x[i] : 0 (NaN maps to 0, -0 maps to +0 — the scalar idiom).
void Relu(const float* x, float* out, int64_t n);

// out[i] = -x[i] (exact sign-bit flip, NaN payloads included)
void Neg(const float* x, float* out, int64_t n);

// out[i] = x[i] - s
void SubScalar(const float* x, float s, float* out, int64_t n);
// out[i] = x[i] / s
void DivScalar(const float* x, float s, float* out, int64_t n);
// out[i] = x[i] * x[i]
void Square(const float* x, float* out, int64_t n);
// t = x[i] - mean; out[i] = t * t
void CenterSquare(const float* x, float mean, float* out, int64_t n);
// out[i] = ((x[i] - mean) * inv) * w[i] + b[i]   (layer_norm epilogue)
void NormAffine(const float* x, float mean, float inv, const float* w, const float* b,
                float* out, int64_t n);
// out[i] = ((x[i] - mean) * inv) * w + b         (group_norm per-channel epilogue)
void NormAffineScalar(const float* x, float mean, float inv, float w, float b,
                      float* out, int64_t n);
// out[i] = (x[i] - sub) * scale + bias           (batch_norm epilogue)
void AffineScalar(const float* x, float sub, float scale, float bias, float* out,
                  int64_t n);
// out[i] = (x[i] * inv) * w[i]                   (rms_norm epilogue)
void ScaleWeight(const float* x, float inv, const float* w, float* out, int64_t n);

// Running-maximum fold max(...max(max(-inf, x[0]), x[1])..., x[n-1]) with the scalar
// NaN rule (NaN operands are skipped). The vector fold may return the other zero sign
// when the maximum is a signed-zero tie; callers (softmax) are insensitive to it
// because fl(x - (+0)) and fl(x - (-0)) feed exp() identically for every committed
// output.
float RowMax(const float* x, int64_t n);

}  // namespace simd
}  // namespace tao

#endif  // TAO_SRC_DEVICE_SIMD_H_
