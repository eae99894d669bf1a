#include "src/device/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/device/device.h"
#include "src/util/check.h"

// The AVX2 paths are compiled behind a target attribute so the translation unit builds
// on any host; they are only *called* after __builtin_cpu_supports("avx2") says the
// instructions exist. Non-x86 builds (and non-GNU compilers) compile the scalar
// implementations only and ActiveSimdBackend() reports kScalar.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TAO_SIMD_X86 1
#include <immintrin.h>
#else
#define TAO_SIMD_X86 0
#endif

#if TAO_SIMD_X86
#define TAO_TARGET_AVX2 __attribute__((target("avx2")))
// The lane kernels of every profile share one target because a target cannot vary by
// template argument. Their unfused vmulps/vaddps pairs stay unfused because the build
// pins -ffp-contract=off (see the top-level CMakeLists).
#define TAO_TARGET_AVX2_FMA __attribute__((target("avx2,fma")))
#endif

namespace tao {
namespace {

// -1 = no override; otherwise the int value of the forced SimdBackend.
std::atomic<int> g_forced_backend{-1};

bool CpuHasAvx2() {
#if TAO_SIMD_X86
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool CpuHasFma() {
#if TAO_SIMD_X86
  return __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool SimdDisabledByEnv() {
  const char* env = std::getenv("TAO_DISABLE_SIMD");
  if (env == nullptr || env[0] == '\0') {
    return false;
  }
  return !(env[0] == '0' && env[1] == '\0');
}

SimdBackend DetectBackend() {
  if (SimdDisabledByEnv()) {
    return SimdBackend::kScalar;
  }
  return CpuHasAvx2() ? SimdBackend::kAvx2 : SimdBackend::kScalar;
}

}  // namespace

bool SimdBackendSupported(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kScalar:
      return true;
    case SimdBackend::kAvx2:
      return CpuHasAvx2();
  }
  return false;
}

SimdBackend ActiveSimdBackend() {
  const int forced = g_forced_backend.load(std::memory_order_relaxed);
  if (forced >= 0) {
    return static_cast<SimdBackend>(forced);
  }
  static const SimdBackend detected = DetectBackend();
  return detected;
}

namespace {

// The lane kernels use the AVX2 backend plus FMA; a CPU without FMA runs every
// profile's lanes through the scalar reference.
bool LaneKernelsActive() {
  static const bool has_fma = CpuHasFma();
  return has_fma && ActiveSimdBackend() == SimdBackend::kAvx2;
}

}  // namespace

const char* SimdBackendName(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kScalar:
      return "scalar";
    case SimdBackend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

void ForceSimdBackend(std::optional<SimdBackend> backend) {
  if (!backend.has_value()) {
    g_forced_backend.store(-1, std::memory_order_relaxed);
    return;
  }
  TAO_CHECK(SimdBackendSupported(*backend))
      << "cannot force unsupported backend " << SimdBackendName(*backend);
  g_forced_backend.store(static_cast<int>(*backend), std::memory_order_relaxed);
}

ScopedSimdBackend::ScopedSimdBackend(SimdBackend backend) {
  const int forced = g_forced_backend.load(std::memory_order_relaxed);
  if (forced >= 0) {
    previous_ = static_cast<SimdBackend>(forced);
  }
  ForceSimdBackend(backend);
}

ScopedSimdBackend::~ScopedSimdBackend() { ForceSimdBackend(previous_); }

void LogSimdBackendOnce() {
  static const bool logged = [] {
    const SimdBackend b = ActiveSimdBackend();
    std::fprintf(stderr, "tao: kernel backend: %s%s\n", SimdBackendName(b),
                 SimdDisabledByEnv() ? " (TAO_DISABLE_SIMD)" : "");
    return true;
  }();
  (void)logged;
}

namespace simd {
namespace {

// ---- Fixed-tree reduction implementations ------------------------------------------
//
// The scalar and AVX2 bodies below are intentionally the same algorithm written twice:
// eight lane accumulators (one ymm register), a full-block loop, scalar tail additions
// into the extracted lanes, then a left-to-right lane combine. Tails are handled with
// scalar adds after extracting the lanes rather than with a masked vector add: adding
// a masked +0.0 to a lane holding -0.0 would flip it to +0.0 and break bitwise
// equality with the scalar profile.

float SumStrided8Scalar(const float* x, int64_t n) {
  float lanes[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  for (int64_t i = 0; i < n; ++i) {
    lanes[i & 7] += x[i];
  }
  float total = 0.0f;
  for (int j = 0; j < 8; ++j) {
    total += lanes[j];
  }
  return total;
}

float DotStrided8Scalar(const float* a, int64_t stride_a, const float* b,
                        int64_t stride_b, int64_t n) {
  float lanes[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  for (int64_t i = 0; i < n; ++i) {
    lanes[i & 7] += a[i * stride_a] * b[i * stride_b];
  }
  float total = 0.0f;
  for (int j = 0; j < 8; ++j) {
    total += lanes[j];
  }
  return total;
}

#if TAO_SIMD_X86

TAO_TARGET_AVX2 float CombineLanesAvx2(__m256 acc, const float* x, int64_t vec_n,
                                       int64_t n) {
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (int64_t i = vec_n; i < n; ++i) {
    lanes[i & 7] += x[i];
  }
  float total = 0.0f;
  for (int j = 0; j < 8; ++j) {
    total += lanes[j];
  }
  return total;
}

TAO_TARGET_AVX2 float SumStrided8Avx2(const float* x, int64_t n) {
  __m256 acc = _mm256_setzero_ps();
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(x + i));
  }
  return CombineLanesAvx2(acc, x, vec_n, n);
}

TAO_TARGET_AVX2 float DotContiguousAvx2(const float* a, const float* b, int64_t n) {
  __m256 acc = _mm256_setzero_ps();
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    // vmulps + vaddps, never an FMA into the accumulator: each product takes its own
    // rounding before entering the lane sum, exactly as the staged scalar products do.
    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (int64_t i = vec_n; i < n; ++i) {
    lanes[i & 7] += a[i] * b[i];
  }
  float total = 0.0f;
  for (int j = 0; j < 8; ++j) {
    total += lanes[j];
  }
  return total;
}

#endif  // TAO_SIMD_X86

}  // namespace

float SumStrided8(const float* x, int64_t n) {
  if (n <= 8) {
    // The kStrided profile sums short inputs strictly sequentially.
    float acc = 0.0f;
    for (int64_t i = 0; i < n; ++i) {
      acc += x[i];
    }
    return acc;
  }
#if TAO_SIMD_X86
  if (ActiveSimdBackend() == SimdBackend::kAvx2) {
    return SumStrided8Avx2(x, n);
  }
#endif
  return SumStrided8Scalar(x, n);
}

float DotStrided8(const float* a, int64_t stride_a, const float* b, int64_t stride_b,
                  int64_t n) {
  if (n <= 8) {
    float acc = 0.0f;
    for (int64_t i = 0; i < n; ++i) {
      acc += a[i * stride_a] * b[i * stride_b];
    }
    return acc;
  }
#if TAO_SIMD_X86
  if (ActiveSimdBackend() == SimdBackend::kAvx2 && stride_a == 1 && stride_b == 1) {
    return DotContiguousAvx2(a, b, n);
  }
#endif
  return DotStrided8Scalar(a, stride_a, b, stride_b, n);
}

// ---- Multi-output lane kernels -----------------------------------------------------
//
// Lane l of every vector below carries output l, so each lane runs one whole scalar
// reduction of DeviceProfile::DotStrided: the same staged products, the same
// association order and the same operand order. Nothing is reassociated across lanes,
// which is why every order vectorizes this way, and no buffer grows with n.

#if TAO_SIMD_X86

// The per-order kernels stay out of line: inlined into the dispatcher, GCC kept the
// chain accumulators in a stack slot, tripling the latency of every step.
#define TAO_LANE_ORDER TAO_TARGET_AVX2_FMA __attribute__((noinline))

namespace {

// b operands of eight whole lanes at consecutive addresses: lane l reads b[l + i*step].
struct RowLanes {
  const float* b;
  int64_t step;

  TAO_TARGET_AVX2_FMA __m256 Load(int64_t i) const { return _mm256_loadu_ps(b + i * step); }
};

// Gather offsets are 32-bit element offsets; keep a wide safety margin.
constexpr int64_t kMaxGatherStride = int64_t{1} << 27;

// Lane l reads b[offsets[l] + i*step]; masked-off lanes (l >= lanes) are never read.
struct GatherLanes {
  const float* b;
  int64_t step;
  __m256i offsets;
  __m256 mask;

  TAO_TARGET_AVX2_FMA __m256 Load(int64_t i) const {
    return _mm256_mask_i32gather_ps(_mm256_setzero_ps(), b + i * step, offsets, mask, 4);
  }
};

// The product DotStrided stages for the tree, blocked and strided orders: fl(a*b), or
// fmaf(a, b, 0) on fused profiles.
template <bool kFma, class Lanes>
TAO_TARGET_AVX2_FMA inline __m256 StagedProduct(const float* a, int64_t stride_a,
                                                const Lanes& b, int64_t i) {
  const __m256 va = _mm256_set1_ps(a[i * stride_a]);
  if constexpr (kFma) {
    return _mm256_fmadd_ps(va, b.Load(i), _mm256_setzero_ps());
  } else {
    return _mm256_mul_ps(va, b.Load(i));
  }
}

// ((+0 + p[begin]) + p[begin + step]) + ... over indices < end.
template <bool kFma, class Lanes>
TAO_TARGET_AVX2_FMA inline __m256 StagedSum(const float* a, int64_t stride_a,
                                            const Lanes& b, int64_t begin, int64_t end,
                                            int64_t step) {
  __m256 acc = _mm256_setzero_ps();
  for (int64_t i = begin; i < end; i += step) {
    acc = _mm256_add_ps(acc, StagedProduct<kFma>(a, stride_a, b, i));
  }
  return acc;
}

// kSequential / kReversed fold every product into one accumulator:
// acc = fmaf(a, b, acc) on fused profiles, acc + fl(a*b) otherwise.
template <bool kFma, class Lanes>
TAO_LANE_ORDER __m256 ChainLanes(const float* a, int64_t stride_a, const Lanes& b, int64_t n,
                                 bool reversed) {
  const int64_t step = reversed ? -1 : 1;
  __m256 acc = _mm256_setzero_ps();
  for (int64_t t = 0, i = reversed ? n - 1 : 0; t < n; ++t, i += step) {
    if constexpr (kFma) {
      acc = _mm256_fmadd_ps(_mm256_set1_ps(a[i * stride_a]), b.Load(i), acc);
    } else {
      acc = _mm256_add_ps(acc, StagedProduct<false>(a, stride_a, b, i));
    }
  }
  return acc;
}

// SumPairwise over a fixed-size run of staged products, unrolled at compile time.
template <int64_t kN, bool kFma, class Lanes>
TAO_TARGET_AVX2_FMA inline __m256 TreeLeaves(const float* a, int64_t stride_a,
                                             const Lanes& b, int64_t begin) {
  if constexpr (kN == 1) {
    return StagedProduct<kFma>(a, stride_a, b, begin);
  } else {
    constexpr int64_t kHalf = kN / 2;
    return _mm256_add_ps(TreeLeaves<kHalf, kFma>(a, stride_a, b, begin),
                         TreeLeaves<kN - kHalf, kFma>(a, stride_a, b, begin + kHalf));
  }
}

// TreeLeaves<n> for a run length n <= kN known only at run time.
template <int64_t kN, bool kFma, class Lanes>
TAO_TARGET_AVX2_FMA inline __m256 TreeUnrolled(const float* a, int64_t stride_a,
                                               const Lanes& b, int64_t begin, int64_t n) {
  if constexpr (kN == 0) {
    return _mm256_setzero_ps();
  } else {
    return n == kN ? TreeLeaves<kN, kFma>(a, stride_a, b, begin)
                   : TreeUnrolled<kN - 1, kFma>(a, stride_a, b, begin, n);
  }
}

// kPairwiseTree: SumPairwise's floor(n/2) split on lane vectors, recursing down to
// runs of at most 16 that are evaluated unrolled. A one-product leaf is the product
// itself, not +0 + product, which is why fused profiles must stage fmaf(a, b, 0) here:
// it turns an exact -0 product into +0 just as the reference does.
template <bool kFma, class Lanes>
TAO_LANE_ORDER __m256 TreeLanes(const float* a, int64_t stride_a, const Lanes& b,
                                int64_t begin, int64_t n) {
  if (n <= 16) {
    return TreeUnrolled<16, kFma>(a, stride_a, b, begin, n);
  }
  const int64_t half = n / 2;
  return _mm256_add_ps(TreeLanes<kFma>(a, stride_a, b, begin, half),
                       TreeLanes<kFma>(a, stride_a, b, begin + half, n - half));
}

// kBlocked: a +0-seeded partial per block, added in order into a +0-seeded total.
template <bool kFma, class Lanes>
TAO_LANE_ORDER __m256 BlockedLanes(const float* a, int64_t stride_a, const Lanes& b,
                                   int64_t n, int64_t block) {
  __m256 acc = _mm256_setzero_ps();
  for (int64_t begin = 0; begin < n;) {
    const int64_t end = begin + std::min(block, n - begin);
    acc = _mm256_add_ps(acc, StagedSum<kFma>(a, stride_a, b, begin, end, 1));
    begin = end;
  }
  return acc;
}

// kStrided(S): n <= S sums sequentially; otherwise accumulator j folds indices
// j, j + S, ... and the S accumulators combine left to right. Finishing one
// accumulator before starting the next performs the same additions as interleaving
// them, without S live registers.
template <bool kFma, class Lanes>
TAO_LANE_ORDER __m256 StridedLanes(const float* a, int64_t stride_a, const Lanes& b,
                                   int64_t n, int64_t accumulators) {
  if (n <= accumulators) {
    return StagedSum<kFma>(a, stride_a, b, 0, n, 1);
  }
  __m256 total = _mm256_setzero_ps();
  for (int64_t j = 0; j < accumulators; ++j) {
    total = _mm256_add_ps(total, StagedSum<kFma>(a, stride_a, b, j, n, accumulators));
  }
  return total;
}

template <bool kFma, class Lanes>
TAO_TARGET_AVX2_FMA void ReduceLanes(const DeviceProfile& device, const float* a,
                                     int64_t stride_a, const Lanes& b, int64_t n,
                                     int64_t lanes, float* out) {
  __m256 sums = _mm256_setzero_ps();
  switch (device.order) {
    case AccumulationOrder::kSequential:
      sums = ChainLanes<kFma>(a, stride_a, b, n, /*reversed=*/false);
      break;
    case AccumulationOrder::kReversed:
      sums = ChainLanes<kFma>(a, stride_a, b, n, /*reversed=*/true);
      break;
    case AccumulationOrder::kPairwiseTree:
      sums = TreeLanes<kFma>(a, stride_a, b, 0, n);
      break;
    case AccumulationOrder::kBlocked:
      sums = BlockedLanes<kFma>(a, stride_a, b, n, device.block);
      break;
    case AccumulationOrder::kStrided:
      sums = StridedLanes<kFma>(a, stride_a, b, n, device.block);
      break;
  }
  alignas(32) float lane_sums[kLanes];
  _mm256_store_ps(lane_sums, sums);
  std::copy(lane_sums, lane_sums + lanes, out);
}

template <bool kFma>
TAO_TARGET_AVX2_FMA void DotLanesAvx2(const DeviceProfile& device, const float* a,
                                      int64_t stride_a, const float* b,
                                      int64_t lane_stride, int64_t stride_b, int64_t n,
                                      int64_t lanes, float* out) {
  if (lane_stride == 1 && lanes == kLanes) {
    ReduceLanes<kFma>(device, a, stride_a, RowLanes{b, stride_b}, n, lanes, out);
    return;
  }
  const __m256i lane_ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const GatherLanes gathered{
      b, stride_b,
      _mm256_mullo_epi32(lane_ids, _mm256_set1_epi32(static_cast<int32_t>(lane_stride))),
      _mm256_castsi256_ps(
          _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int32_t>(lanes)), lane_ids))};
  ReduceLanes<kFma>(device, a, stride_a, gathered, n, lanes, out);
}

}  // namespace

#endif  // TAO_SIMD_X86

void DotLanes(const DeviceProfile& device, const float* a, int64_t stride_a,
              const float* b, int64_t lane_stride, int64_t stride_b, int64_t n,
              int64_t lanes, float* out) {
  TAO_CHECK(lanes >= 1 && lanes <= kLanes) << "DotLanes takes 1 to 8 lanes, got " << lanes;
#if TAO_SIMD_X86
  // Blocked and strided orders with block <= 0 take the reference, which rejects them.
  const bool has_block = device.order == AccumulationOrder::kBlocked ||
                         device.order == AccumulationOrder::kStrided;
  // A vector-eligible profile whose lanes are contiguous rows (stride_b == 1) keeps one
  // DotStrided per lane: its fixed 8-lane tree already vectorizes inside each row, where
  // the lane kernels would gather one element per row per index (WideMlp's one-row
  // 4 MB layer ran ~3x slower that way).
  const bool rows_vectorize = device.vector_eligible() && stride_b == 1;
  if (!rows_vectorize && (!has_block || device.block > 0) && lane_stride > 0 &&
      lane_stride <= kMaxGatherStride && LaneKernelsActive()) {
    if (device.fma) {
      DotLanesAvx2<true>(device, a, stride_a, b, lane_stride, stride_b, n, lanes, out);
    } else {
      DotLanesAvx2<false>(device, a, stride_a, b, lane_stride, stride_b, n, lanes, out);
    }
    return;
  }
#endif
  for (int64_t l = 0; l < lanes; ++l) {
    out[l] = device.DotStrided(a, stride_a, b + l * lane_stride, stride_b, n);
  }
}

void PackLanes(const float* w, int64_t rows, int64_t k, float* packed) {
  const int64_t groups = (rows + kLanes - 1) / kLanes;
  for (int64_t g = 0; g < groups; ++g) {
    float* dst = packed + g * kLanes * k;
    for (int64_t l = 0; l < kLanes; ++l) {
      const int64_t row = g * kLanes + l;
      for (int64_t p = 0; p < k; ++p) {
        dst[p * kLanes + l] = row < rows ? w[row * k + p] : 0.0f;
      }
    }
  }
}

// ---- Exact elementwise helpers -----------------------------------------------------
//
// Each helper performs exactly the listed IEEE operations per element, so the scalar
// and AVX2 bodies agree bitwise and the dispatch choice is unobservable in outputs.

#if TAO_SIMD_X86

namespace {

TAO_TARGET_AVX2 void AddVecAvx2(const float* a, const float* b, float* out, int64_t n) {
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = a[i] + b[i];
  }
}

TAO_TARGET_AVX2 void SubVecAvx2(const float* a, const float* b, float* out, int64_t n) {
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = a[i] - b[i];
  }
}

TAO_TARGET_AVX2 void MulVecAvx2(const float* a, const float* b, float* out, int64_t n) {
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = a[i] * b[i];
  }
}

TAO_TARGET_AVX2 void DivVecAvx2(const float* a, const float* b, float* out, int64_t n) {
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_div_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = a[i] / b[i];
  }
}

TAO_TARGET_AVX2 void ReluAvx2(const float* x, float* out, int64_t n) {
  // max_ps(x, 0) returns the second operand (0) for NaN and for -0 vs +0 ties, which
  // is exactly the scalar `x > 0 ? x : 0` result.
  const __m256 zero = _mm256_setzero_ps();
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
}

TAO_TARGET_AVX2 void NegAvx2(const float* x, float* out, int64_t n) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_xor_ps(_mm256_loadu_ps(x + i), sign));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = -x[i];
  }
}

TAO_TARGET_AVX2 void SubScalarAvx2(const float* x, float s, float* out, int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_sub_ps(_mm256_loadu_ps(x + i), vs));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = x[i] - s;
  }
}

TAO_TARGET_AVX2 void DivScalarAvx2(const float* x, float s, float* out, int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_div_ps(_mm256_loadu_ps(x + i), vs));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = x[i] / s;
  }
}

TAO_TARGET_AVX2 void SquareAvx2(const float* x, float* out, int64_t n) {
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    _mm256_storeu_ps(out + i, _mm256_mul_ps(v, v));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = x[i] * x[i];
  }
}

TAO_TARGET_AVX2 void CenterSquareAvx2(const float* x, float mean, float* out, int64_t n) {
  const __m256 vm = _mm256_set1_ps(mean);
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    const __m256 t = _mm256_sub_ps(_mm256_loadu_ps(x + i), vm);
    _mm256_storeu_ps(out + i, _mm256_mul_ps(t, t));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    const float t = x[i] - mean;
    out[i] = t * t;
  }
}

TAO_TARGET_AVX2 void NormAffineAvx2(const float* x, float mean, float inv,
                                    const float* w, const float* b, float* out,
                                    int64_t n) {
  const __m256 vm = _mm256_set1_ps(mean);
  const __m256 vi = _mm256_set1_ps(inv);
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    const __m256 norm = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), vm), vi);
    const __m256 scaled = _mm256_mul_ps(norm, _mm256_loadu_ps(w + i));
    _mm256_storeu_ps(out + i, _mm256_add_ps(scaled, _mm256_loadu_ps(b + i)));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = ((x[i] - mean) * inv) * w[i] + b[i];
  }
}

TAO_TARGET_AVX2 void NormAffineScalarAvx2(const float* x, float mean, float inv, float w,
                                          float b, float* out, int64_t n) {
  const __m256 vm = _mm256_set1_ps(mean);
  const __m256 vi = _mm256_set1_ps(inv);
  const __m256 vw = _mm256_set1_ps(w);
  const __m256 vb = _mm256_set1_ps(b);
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    const __m256 norm = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), vm), vi);
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_mul_ps(norm, vw), vb));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = ((x[i] - mean) * inv) * w + b;
  }
}

TAO_TARGET_AVX2 void AffineScalarAvx2(const float* x, float sub, float scale, float bias,
                                      float* out, int64_t n) {
  const __m256 vsub = _mm256_set1_ps(sub);
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vbias = _mm256_set1_ps(bias);
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    const __m256 t = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), vsub), vscale);
    _mm256_storeu_ps(out + i, _mm256_add_ps(t, vbias));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = (x[i] - sub) * scale + bias;
  }
}

TAO_TARGET_AVX2 void ScaleWeightAvx2(const float* x, float inv, const float* w,
                                     float* out, int64_t n) {
  const __m256 vi = _mm256_set1_ps(inv);
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    const __m256 t = _mm256_mul_ps(_mm256_loadu_ps(x + i), vi);
    _mm256_storeu_ps(out + i, _mm256_mul_ps(t, _mm256_loadu_ps(w + i)));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = (x[i] * inv) * w[i];
  }
}

TAO_TARGET_AVX2 float RowMaxAvx2(const float* x, int64_t n) {
  const int64_t vec_n = n & ~int64_t{7};
  __m256 acc = _mm256_set1_ps(-INFINITY);
  for (int64_t i = 0; i < vec_n; i += 8) {
    // Operand order matters: max_ps returns the second operand when the first is NaN,
    // so putting x first skips NaNs exactly like the scalar std::max fold.
    acc = _mm256_max_ps(_mm256_loadu_ps(x + i), acc);
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  float m = -INFINITY;
  for (int j = 0; j < 8; ++j) {
    m = std::max(m, lanes[j]);
  }
  for (int64_t i = vec_n; i < n; ++i) {
    m = std::max(m, x[i]);
  }
  return m;
}

}  // namespace

#define TAO_SIMD_DISPATCH(avx2_call, scalar_body)            \
  do {                                                       \
    if (ActiveSimdBackend() == SimdBackend::kAvx2) {         \
      avx2_call;                                             \
      return;                                                \
    }                                                        \
    scalar_body;                                             \
  } while (0)

#else  // !TAO_SIMD_X86

#define TAO_SIMD_DISPATCH(avx2_call, scalar_body) \
  do {                                            \
    scalar_body;                                  \
  } while (0)

#endif  // TAO_SIMD_X86

void AddVec(const float* a, const float* b, float* out, int64_t n) {
  TAO_SIMD_DISPATCH(AddVecAvx2(a, b, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = a[i] + b[i];
    }
  });
}

void SubVec(const float* a, const float* b, float* out, int64_t n) {
  TAO_SIMD_DISPATCH(SubVecAvx2(a, b, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = a[i] - b[i];
    }
  });
}

void MulVec(const float* a, const float* b, float* out, int64_t n) {
  TAO_SIMD_DISPATCH(MulVecAvx2(a, b, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = a[i] * b[i];
    }
  });
}

void DivVec(const float* a, const float* b, float* out, int64_t n) {
  TAO_SIMD_DISPATCH(DivVecAvx2(a, b, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = a[i] / b[i];
    }
  });
}

void Relu(const float* x, float* out, int64_t n) {
  TAO_SIMD_DISPATCH(ReluAvx2(x, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = x[i] > 0.0f ? x[i] : 0.0f;
    }
  });
}

void Neg(const float* x, float* out, int64_t n) {
  TAO_SIMD_DISPATCH(NegAvx2(x, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = -x[i];
    }
  });
}

void SubScalar(const float* x, float s, float* out, int64_t n) {
  TAO_SIMD_DISPATCH(SubScalarAvx2(x, s, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = x[i] - s;
    }
  });
}

void DivScalar(const float* x, float s, float* out, int64_t n) {
  TAO_SIMD_DISPATCH(DivScalarAvx2(x, s, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = x[i] / s;
    }
  });
}

void Square(const float* x, float* out, int64_t n) {
  TAO_SIMD_DISPATCH(SquareAvx2(x, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = x[i] * x[i];
    }
  });
}

void CenterSquare(const float* x, float mean, float* out, int64_t n) {
  TAO_SIMD_DISPATCH(CenterSquareAvx2(x, mean, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      const float t = x[i] - mean;
      out[i] = t * t;
    }
  });
}

void NormAffine(const float* x, float mean, float inv, const float* w, const float* b,
                float* out, int64_t n) {
  TAO_SIMD_DISPATCH(NormAffineAvx2(x, mean, inv, w, b, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = ((x[i] - mean) * inv) * w[i] + b[i];
    }
  });
}

void NormAffineScalar(const float* x, float mean, float inv, float w, float b,
                      float* out, int64_t n) {
  TAO_SIMD_DISPATCH(NormAffineScalarAvx2(x, mean, inv, w, b, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = ((x[i] - mean) * inv) * w + b;
    }
  });
}

void AffineScalar(const float* x, float sub, float scale, float bias, float* out,
                  int64_t n) {
  TAO_SIMD_DISPATCH(AffineScalarAvx2(x, sub, scale, bias, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = (x[i] - sub) * scale + bias;
    }
  });
}

void ScaleWeight(const float* x, float inv, const float* w, float* out, int64_t n) {
  TAO_SIMD_DISPATCH(ScaleWeightAvx2(x, inv, w, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = (x[i] * inv) * w[i];
    }
  });
}

float RowMax(const float* x, int64_t n) {
#if TAO_SIMD_X86
  if (ActiveSimdBackend() == SimdBackend::kAvx2) {
    return RowMaxAvx2(x, n);
  }
#endif
  float m = -INFINITY;
  for (int64_t i = 0; i < n; ++i) {
    m = std::max(m, x[i]);
  }
  return m;
}

#undef TAO_SIMD_DISPATCH

}  // namespace simd
}  // namespace tao
