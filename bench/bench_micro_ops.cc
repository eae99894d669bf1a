// Operator-level microbenchmarks: per-op GFLOP/s under the scalar backend vs the
// runtime-dispatched SIMD backend, on the fleet's vector-eligible profile (RTX6000,
// kStrided with block 8 = the fixed 8-lane reduction tree), plus the dense kernels at
// the model zoo's shapes on every fleet profile and the reference, and SHA-256 /
// CRC-32 throughput over a 64 KB payload.
//
// The SIMD backend is only admissible because it is bitwise identical to the scalar
// fixed-tree loops (src/device/simd.h); the last column re-checks that here, on the
// exact tensors being timed — a speedup reported next to "equal" means the fast path
// produced the same commitment-relevant bits, not merely close values. On hosts
// without AVX2 (or with TAO_DISABLE_SIMD set) the SIMD columns repeat the scalar
// backend, and the speedup column reads ~1.0x.

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/crypto/sha256.h"
#include "src/device/device.h"
#include "src/device/simd.h"
#include "src/device/vmath.h"
#include "src/durability/framing.h"
#include "src/ops/op_kernel.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"
#include "src/util/table.h"

using namespace tao;

namespace {

// Times `body` with repeats adapted until the measured window is long enough to
// trust (>= ~40 ms), returning milliseconds per call.
double TimeLoop(const std::function<void()>& body) {
  body();  // warmup
  int reps = 1;
  for (;;) {
    Stopwatch watch;
    for (int i = 0; i < reps; ++i) {
      body();
    }
    const double elapsed = watch.ElapsedMillis();
    if (elapsed >= 40.0 || reps >= (1 << 20)) {
      return elapsed / reps;
    }
    reps *= 2;
  }
}

struct OpCase {
  std::string op;
  std::vector<Shape> shapes;
  Attrs attrs;
  float scale = 1.0f;
};

Tensor RandTensor(const Shape& shape, uint64_t seed, float scale) {
  Rng rng(seed);
  Tensor t(shape);
  auto v = t.mutable_values();
  for (float& x : v) {
    x = scale * static_cast<float>(rng.NextGaussian());
  }
  return t;
}

std::string ShapeString(const std::vector<Shape>& shapes) {
  std::string s;
  for (size_t i = 0; i < shapes.size() && i < 2; ++i) {
    if (i > 0) {
      s += " x ";
    }
    s += shapes[i].ToString();
  }
  return s;
}

// CRC-32 with one table lookup per byte: the classic loop, the reference for Crc32's
// slice-by-8 tables.
uint32_t Crc32Bytewise(std::span<const uint8_t> data) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (const uint8_t byte : data) {
    crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

bool Bitwise(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.values().size() * sizeof(float)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAllOps();
  bench::JsonSummary json(argc, argv, "micro_ops");
  LogSimdBackendOnce();
  const bool have_avx2 = SimdBackendSupported(SimdBackend::kAvx2);
  const SimdBackend fast =
      have_avx2 ? SimdBackend::kAvx2 : SimdBackend::kScalar;
  std::printf("=== Operator microbenchmarks: scalar vs %s backend ===\n\n",
              SimdBackendName(fast));
  if (!have_avx2) {
    std::printf("(AVX2 unavailable on this host/build: SIMD columns repeat the "
                "scalar backend)\n\n");
  }

  // The fleet's vector-eligible profile: every reduction below runs the fixed 8-lane
  // tree on both backends, and its dense kernels run the lane kernels like every other
  // profile's.
  const DeviceProfile& device = DeviceRegistry::ByName("RTX6000");

  std::vector<OpCase> cases;
  cases.push_back({"matmul", {Shape{128, 128}, Shape{128, 128}}, {}, 1.0f});
  cases.push_back({"matmul", {Shape{256, 256}, Shape{256, 256}}, {}, 1.0f});
  cases.push_back({"bmm", {Shape{8, 64, 64}, Shape{8, 64, 64}}, {}, 1.0f});
  cases.push_back({"linear", {Shape{256, 512}, Shape{512, 512}, Shape{512}}, {}, 1.0f});
  {
    Attrs a;
    a.Set("axis", static_cast<int64_t>(-1));
    cases.push_back({"softmax", {Shape{256, 1024}}, a, 3.0f});
  }
  {
    Attrs a;
    a.Set("eps", 1e-5);
    cases.push_back({"layer_norm", {Shape{256, 1024}, Shape{1024}, Shape{1024}}, a, 2.0f});
  }
  {
    Attrs a;
    a.Set("eps", 1e-6);
    cases.push_back({"rms_norm", {Shape{256, 1024}, Shape{1024}}, a, 1.0f});
  }
  {
    Attrs a;
    a.Set("axis", static_cast<int64_t>(-1));
    cases.push_back({"sum", {Shape{256, 4096}}, a, 1.0f});
  }
  // Transcendental ops route through src/device/vmath.h: the "scalar" column is
  // the vmath scalar recipe, the "simd" column its AVX2 twin (same arithmetic,
  // eight lanes at a time), so the bitwise column holds by construction.
  cases.push_back({"exp", {Shape{256, 1024}}, {}, 1.0f});
  cases.push_back({"tanh", {Shape{256, 1024}}, {}, 1.0f});
  cases.push_back({"gelu", {Shape{256, 1024}}, {}, 1.0f});
  cases.push_back({"silu", {Shape{256, 1024}}, {}, 1.0f});
  // Cache-resident sizes: at streaming sizes these ops are memory-bound and both
  // backends run at the same bandwidth.
  cases.push_back({"relu", {Shape{1 << 16}}, {}, 1.0f});
  cases.push_back({"add", {Shape{1 << 16}, Shape{1 << 16}}, {}, 1.0f});

  TablePrinter table({"op", "shape", "scalar GFLOP/s", "simd GFLOP/s", "speedup",
                      "bitwise"});
  for (const OpCase& c : cases) {
    const OpKernel& kernel = OpRegistry::Instance().Get(c.op);
    std::vector<Tensor> inputs;
    std::vector<Shape> input_shapes;
    for (size_t i = 0; i < c.shapes.size(); ++i) {
      inputs.push_back(RandTensor(c.shapes[i], 0x5eed + 17 * i, c.scale));
      input_shapes.push_back(c.shapes[i]);
    }
    const OpContext ctx{device, inputs, c.attrs};
    const Shape out_shape = kernel.InferShape(input_shapes, c.attrs);
    const double flops =
        static_cast<double>(kernel.Flops(input_shapes, out_shape, c.attrs));

    Tensor scalar_out, simd_out;
    double scalar_ms = 0.0, simd_ms = 0.0;
    {
      ScopedSimdBackend force(SimdBackend::kScalar);
      scalar_out = kernel.Forward(ctx);
      scalar_ms = TimeLoop([&] { (void)kernel.Forward(ctx); });
    }
    {
      ScopedSimdBackend force(fast);
      simd_out = kernel.Forward(ctx);
      simd_ms = TimeLoop([&] { (void)kernel.Forward(ctx); });
    }
    const double scalar_gfs = flops / (scalar_ms * 1e6);
    const double simd_gfs = flops / (simd_ms * 1e6);
    table.AddRow({c.op, ShapeString(c.shapes), TablePrinter::Fixed(scalar_gfs, 2),
                  TablePrinter::Fixed(simd_gfs, 2),
                  TablePrinter::Fixed(scalar_ms / simd_ms, 2) + "x",
                  Bitwise(scalar_out, simd_out) ? "equal" : "DIFFER"});
  }
  table.Print();

  // Device-primitive reductions: the raw fixed-tree kernels every op above leans on.
  std::printf("\ndevice primitives (n = 16384, RTX6000 fixed 8-lane tree):\n");
  std::vector<float> xs(1 << 14), ys(1 << 14);
  {
    Rng rng(0xacc);
    for (size_t i = 0; i < xs.size(); ++i) {
      xs[i] = static_cast<float>(rng.NextGaussian());
      ys[i] = static_cast<float>(rng.NextGaussian());
    }
  }
  TablePrinter prims({"primitive", "scalar GFLOP/s", "simd GFLOP/s", "speedup",
                      "bitwise"});
  const auto prim_row = [&](const char* name, double flops_per_call,
                            const std::function<float()>& body) {
    float scalar_val = 0.0f, simd_val = 0.0f;
    double scalar_ms = 0.0, simd_ms = 0.0;
    volatile float sink = 0.0f;
    {
      ScopedSimdBackend force(SimdBackend::kScalar);
      scalar_val = body();
      scalar_ms = TimeLoop([&] { sink = body(); });
    }
    {
      ScopedSimdBackend force(fast);
      simd_val = body();
      simd_ms = TimeLoop([&] { sink = body(); });
    }
    (void)sink;
    prims.AddRow({name, TablePrinter::Fixed(flops_per_call / (scalar_ms * 1e6), 2),
                  TablePrinter::Fixed(flops_per_call / (simd_ms * 1e6), 2),
                  TablePrinter::Fixed(scalar_ms / simd_ms, 2) + "x",
                  std::memcmp(&scalar_val, &simd_val, sizeof(float)) == 0
                      ? "equal"
                      : "DIFFER"});
  };
  const double n = static_cast<double>(xs.size());
  prim_row("Accumulate", n, [&] { return device.Accumulate(xs); });
  prim_row("DotStrided (contiguous)", 2 * n,
           [&] { return device.DotStrided(xs.data(), 1, ys.data(), 1,
                                          static_cast<int64_t>(xs.size())); });
  prims.Print();

  // --- Transcendental vector math (src/device/vmath.h) -----------------------------
  // Three columns per function: glibc libm (what the ops called before vmath),
  // the vmath scalar recipe, and its AVX2 twin. The two vmath columns are the SAME
  // arithmetic in the same order — the bitwise column re-checks that on the timed
  // buffers. GFLOP/s uses the nominal per-element op count of the vmath recipe.
  std::printf("\ntranscendental vector math (n = 16384, vmath fixed polynomials):\n");
  struct VmathCase {
    const char* name;
    double flops_per_elem;  // nominal: the vmath recipe's arithmetic op count
    std::function<void(const float*, float*, int64_t)> libm;
    void (*vmath)(const float*, float*, int64_t);
  };
  const std::vector<VmathCase> vmath_cases = {
      {"exp", 15.0,
       [](const float* x, float* o, int64_t n) {
         for (int64_t i = 0; i < n; ++i) o[i] = std::exp(x[i]);
       },
       &vmath::ExpVec},
      {"erf", 28.0,
       [](const float* x, float* o, int64_t n) {
         for (int64_t i = 0; i < n; ++i) o[i] = std::erf(x[i]);
       },
       &vmath::ErfVec},
      {"tanh", 26.0,
       [](const float* x, float* o, int64_t n) {
         for (int64_t i = 0; i < n; ++i) o[i] = std::tanh(x[i]);
       },
       &vmath::TanhVec},
      {"sigmoid", 18.0,
       [](const float* x, float* o, int64_t n) {
         for (int64_t i = 0; i < n; ++i) o[i] = 1.0f / (1.0f + std::exp(-x[i]));
       },
       &vmath::SigmoidVec},
      {"gelu", 32.0,
       [](const float* x, float* o, int64_t n) {
         for (int64_t i = 0; i < n; ++i) {
           o[i] = (0.5f * x[i]) * (1.0f + std::erf(x[i] * 0.70710678118654752440f));
         }
       },
       &vmath::GeluVec},
  };
  // Gaussian(0, 2) inputs: the activation range these functions actually see, with
  // occasional excursions into the clamp tails.
  std::vector<float> tx(1 << 14), to_libm(1 << 14), to_scalar(1 << 14), to_simd(1 << 14);
  {
    Rng rng(0x7a9c);
    for (float& v : tx) {
      v = 2.0f * static_cast<float>(rng.NextGaussian());
    }
  }
  bool vmath_bitwise_all = true;
  TablePrinter trans({"function", "libm GFLOP/s", "vmath scalar", "vmath simd",
                      "simd vs libm", "bitwise"});
  const int64_t tn = static_cast<int64_t>(tx.size());
  for (const VmathCase& c : vmath_cases) {
    const double flops = c.flops_per_elem * static_cast<double>(tn);
    const double libm_ms = TimeLoop([&] { c.libm(tx.data(), to_libm.data(), tn); });
    double scalar_ms = 0.0, simd_ms = 0.0;
    {
      ScopedSimdBackend force(SimdBackend::kScalar);
      c.vmath(tx.data(), to_scalar.data(), tn);
      scalar_ms = TimeLoop([&] { c.vmath(tx.data(), to_scalar.data(), tn); });
    }
    {
      ScopedSimdBackend force(fast);
      c.vmath(tx.data(), to_simd.data(), tn);
      simd_ms = TimeLoop([&] { c.vmath(tx.data(), to_simd.data(), tn); });
    }
    const bool bitwise = std::memcmp(to_scalar.data(), to_simd.data(),
                                     to_scalar.size() * sizeof(float)) == 0;
    vmath_bitwise_all = vmath_bitwise_all && bitwise;
    trans.AddRow({c.name, TablePrinter::Fixed(flops / (libm_ms * 1e6), 2),
                  TablePrinter::Fixed(flops / (scalar_ms * 1e6), 2),
                  TablePrinter::Fixed(flops / (simd_ms * 1e6), 2),
                  TablePrinter::Fixed(libm_ms / simd_ms, 2) + "x",
                  bitwise ? "equal" : "DIFFER"});
    json.AddBool(std::string(c.name) + "_bitwise", bitwise);
    json.Add(std::string(c.name) + "_simd_speedup_vs_libm", libm_ms / simd_ms);
  }
  trans.Print();
  json.AddBool("vmath_bitwise_all", vmath_bitwise_all);

  // Op-level: softmax and gelu against a scalar-libm baseline (the recipe the ops
  // used BEFORE vmath, written out here since the tree no longer contains it).
  std::printf("\nop-level vs scalar-libm baseline (256x1024):\n");
  TablePrinter oplvl({"op", "libm ms", "vmath scalar ms", "vmath simd ms",
                      "simd vs libm", "bitwise"});
  const Tensor act_in = RandTensor(Shape{256, 1024}, 0xf00d, 3.0f);
  bool op_bitwise_all = true;
  const auto op_vs_libm = [&](const char* name, const OpKernel& kernel,
                              const Attrs& attrs,
                              const std::function<void()>& libm_body) {
    const std::vector<Tensor> inputs = {act_in};
    const OpContext ctx{device, inputs, attrs};
    const double libm_ms = TimeLoop(libm_body);
    Tensor scalar_out, simd_out;
    double scalar_ms = 0.0, simd_ms = 0.0;
    {
      ScopedSimdBackend force(SimdBackend::kScalar);
      scalar_out = kernel.Forward(ctx);
      scalar_ms = TimeLoop([&] { (void)kernel.Forward(ctx); });
    }
    {
      ScopedSimdBackend force(fast);
      simd_out = kernel.Forward(ctx);
      simd_ms = TimeLoop([&] { (void)kernel.Forward(ctx); });
    }
    const bool bitwise = Bitwise(scalar_out, simd_out);
    op_bitwise_all = op_bitwise_all && bitwise;
    oplvl.AddRow({name, TablePrinter::Fixed(libm_ms, 3),
                  TablePrinter::Fixed(scalar_ms, 3), TablePrinter::Fixed(simd_ms, 3),
                  TablePrinter::Fixed(libm_ms / simd_ms, 2) + "x",
                  bitwise ? "equal" : "DIFFER"});
    json.Add(std::string(name) + "_op_simd_speedup_vs_libm", libm_ms / simd_ms);
  };
  {
    // Softmax the way the op computed it pre-vmath: row max, exp(x - max) via
    // libm, accumulate, divide.
    const int64_t rows = 256, cols = 1024;
    std::vector<float> out(static_cast<size_t>(rows * cols));
    const auto xv = act_in.values();
    Attrs attrs;
    attrs.Set("axis", static_cast<int64_t>(-1));
    op_vs_libm("softmax", OpRegistry::Instance().Get("softmax"), attrs, [&] {
      for (int64_t r = 0; r < rows; ++r) {
        const float* x = xv.data() + r * cols;
        float* o = out.data() + static_cast<size_t>(r * cols);
        float m = x[0];
        for (int64_t i = 1; i < cols; ++i) m = x[i] > m ? x[i] : m;
        float sum = 0.0f;
        for (int64_t i = 0; i < cols; ++i) {
          o[i] = std::exp(x[i] - m);
          sum += o[i];
        }
        const float inv = 1.0f / sum;
        for (int64_t i = 0; i < cols; ++i) o[i] *= inv;
      }
    });
  }
  {
    const int64_t n_elems = 256 * 1024;
    std::vector<float> out(static_cast<size_t>(n_elems));
    const auto xv = act_in.values();
    op_vs_libm("gelu", OpRegistry::Instance().Get("gelu"), Attrs{}, [&] {
      for (int64_t i = 0; i < n_elems; ++i) {
        out[static_cast<size_t>(i)] =
            (0.5f * xv[i]) * (1.0f + std::erf(xv[i] * 0.70710678118654752440f));
      }
    });
  }
  oplvl.Print();
  json.AddBool("op_bitwise_all", op_bitwise_all);

  // --- Dense kernels on every profile ---------------------------------------------
  // The model zoo's dense shapes on each fleet profile and the reference. The scalar
  // column is the per-output DotStrided reference; the dispatched column runs the lane
  // kernels (one output per lane) on every profile, except RTX6000's in-place weight
  // rows (WideMlp's one-row linear), which run the 8-lane tree row by row.
  std::printf("\ndense kernels per profile (scalar reference vs %s dispatch):\n",
              SimdBackendName(fast));
  std::vector<DeviceProfile> profiles = DeviceRegistry::Fleet();
  profiles.push_back(DeviceRegistry::Reference());
  Attrs same_pad, no_pad;
  same_pad.Set("stride", static_cast<int64_t>(1));
  same_pad.Set("padding", static_cast<int64_t>(1));
  no_pad.Set("stride", static_cast<int64_t>(1));
  no_pad.Set("padding", static_cast<int64_t>(0));
  const std::vector<std::pair<const char*, OpCase>> dense = {
      {"bert", {"linear", {Shape{24, 48}, Shape{96, 48}, Shape{96}}, {}, 1.0f}},
      {"bert", {"linear", {Shape{1, 48}, Shape{16, 48}, Shape{16}}, {}, 1.0f}},
      {"bert", {"matmul", {Shape{24, 48}, Shape{48, 96}}, {}, 1.0f}},
      {"bert", {"bmm", {Shape{4, 24, 12}, Shape{4, 12, 24}}, {}, 1.0f}},
      {"resnet", {"conv2d", {Shape{1, 3, 32, 32}, Shape{8, 3, 3, 3}, Shape{8}}, same_pad, 1.0f}},
      {"resnet", {"conv2d", {Shape{1, 8, 16, 16}, Shape{8, 8, 3, 3}, Shape{8}}, same_pad, 1.0f}},
      {"resnet", {"conv2d", {Shape{1, 16, 16, 16}, Shape{32, 16, 1, 1}, Shape{32}}, no_pad, 1.0f}},
      {"wide", {"linear", {Shape{1, 16384}, Shape{64, 16384}, Shape{64}}, {}, 1.0f}},
  };
  bool lanes_bitwise_all = true;
  TablePrinter dense_table({"model", "op", "shape", "profile", "scalar ref ms",
                            "dispatched ms", "speedup", "bitwise"});
  for (const auto& [model, c] : dense) {
    const OpKernel& kernel = OpRegistry::Instance().Get(c.op);
    std::vector<Tensor> inputs;
    for (size_t i = 0; i < c.shapes.size(); ++i) {
      inputs.push_back(RandTensor(c.shapes[i], 0xd3e5 + 17 * i, c.scale));
    }
    for (const DeviceProfile& profile : profiles) {
      const OpContext ctx{profile, inputs, c.attrs};
      Tensor scalar_out, fast_out;
      double scalar_ms = 0.0, fast_ms = 0.0;
      {
        ScopedSimdBackend force(SimdBackend::kScalar);
        scalar_out = kernel.Forward(ctx);
        scalar_ms = TimeLoop([&] { (void)kernel.Forward(ctx); });
      }
      {
        ScopedSimdBackend force(fast);
        fast_out = kernel.Forward(ctx);
        fast_ms = TimeLoop([&] { (void)kernel.Forward(ctx); });
      }
      const bool bitwise = Bitwise(scalar_out, fast_out);
      lanes_bitwise_all = lanes_bitwise_all && bitwise;
      dense_table.AddRow({model, c.op, ShapeString(c.shapes), profile.name,
                          TablePrinter::Fixed(scalar_ms, 4), TablePrinter::Fixed(fast_ms, 4),
                          TablePrinter::Fixed(scalar_ms / fast_ms, 2) + "x",
                          bitwise ? "equal" : "DIFFER"});
    }
  }
  dense_table.Print();
  json.AddBool("lanes_bitwise_all", lanes_bitwise_all);

  // --- Hashing -------------------------------------------------------------------
  // SHA-256 (commitments) and CRC-32 (wire frames, changelog records) over 64 KB, the
  // size of a WideMlp claim's input. SHA-256's scalar column forces the scalar rounds
  // and its dispatched column runs the SHA-NI kernel where the CPU has one. CRC-32 has
  // one implementation, slice-by-8; its scalar column is the bytewise table loop.
  std::vector<uint8_t> payload(64 << 10);
  {
    Rng rng(0x5a7);
    for (uint8_t& byte : payload) {
      byte = static_cast<uint8_t>(rng.NextU64());
    }
  }
  const double payload_mb = static_cast<double>(payload.size()) / 1e6;
  const auto mb_per_s = [&](double ms) { return payload_mb / (ms * 1e-3); };
  Digest sha_scalar{}, sha_fast{};
  double sha_scalar_ms = 0.0, sha_fast_ms = 0.0;
  bool sha_ni = false;
  {
    ScopedSimdBackend force(SimdBackend::kScalar);
    sha_scalar = Sha256::Hash(payload);
    sha_scalar_ms = TimeLoop([&] { (void)Sha256::Hash(payload); });
  }
  {
    ScopedSimdBackend force(fast);
    sha_ni = Sha256::UsesShaNi();
    sha_fast = Sha256::Hash(payload);
    sha_fast_ms = TimeLoop([&] { (void)Sha256::Hash(payload); });
  }
  const uint32_t crc_bytewise = Crc32Bytewise(payload);
  const uint32_t crc_slice8 = Crc32(payload);
  volatile uint32_t crc_sink = 0;  // keeps the timed loops from being elided
  const double crc_bytewise_ms = TimeLoop([&] { crc_sink = Crc32Bytewise(payload); });
  const double crc_slice8_ms = TimeLoop([&] { crc_sink = Crc32(payload); });
  const bool sha_bitwise = sha_scalar == sha_fast;
  const bool crc_bitwise = crc_bytewise == crc_slice8;
  std::printf("\nhashing over 64 KB (scalar vs dispatched; SHA-256 dispatch: %s):\n",
              sha_ni ? "sha-ni" : "scalar rounds");
  TablePrinter hash_table({"hash", "scalar MB/s", "dispatched MB/s", "speedup", "bitwise"});
  hash_table.AddRow({"sha256", TablePrinter::Fixed(mb_per_s(sha_scalar_ms), 0),
                     TablePrinter::Fixed(mb_per_s(sha_fast_ms), 0),
                     TablePrinter::Fixed(sha_scalar_ms / sha_fast_ms, 2) + "x",
                     sha_bitwise ? "equal" : "DIFFER"});
  hash_table.AddRow({"crc32 (bytewise / slice-by-8)",
                     TablePrinter::Fixed(mb_per_s(crc_bytewise_ms), 0),
                     TablePrinter::Fixed(mb_per_s(crc_slice8_ms), 0),
                     TablePrinter::Fixed(crc_bytewise_ms / crc_slice8_ms, 2) + "x",
                     crc_bitwise ? "equal" : "DIFFER"});
  hash_table.Print();
  json.Add("sha256_scalar_mb_s", mb_per_s(sha_scalar_ms));
  json.Add("sha256_dispatched_mb_s", mb_per_s(sha_fast_ms));
  json.AddBool("sha256_sha_ni", sha_ni);
  json.Add("crc32_bytewise_mb_s", mb_per_s(crc_bytewise_ms));
  json.Add("crc32_slice8_mb_s", mb_per_s(crc_slice8_ms));
  json.AddBool("hash_bitwise_all", sha_bitwise && crc_bitwise);

  std::printf("\nDeterminism note: every \"equal\" above is bitwise FP32 equality on\n"
              "the timed tensors (digest and CRC equality in the hashing table). The\n"
              "SIMD backend is not an approximation — it is the same fixed reduction\n"
              "tree (and, for transcendentals, the same fixed polynomial arithmetic)\n"
              "executed eight lanes at a time, so commitments (C0 digests), traces,\n"
              "and verdicts are independent of the backend.\n");
  return json.Write() ? 0 : 1;
}
