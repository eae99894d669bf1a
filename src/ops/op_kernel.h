// Operator kernel interface: each primitive tensor operator (a node kind in the traced
// graph) implements
//   * Forward      — FP32 execution routed through a DeviceProfile (the nondeterminism
//                    surface), mirroring unmodified vendor kernels;
//   * Bound        — the operator-local theoretical IEEE-754 error template of Sec. 3.1
//                    (FP64, per output element), in deterministic or probabilistic mode;
//   * Vjp          — vector-Jacobian product for the gradient-based attacks of Sec. 4;
//   * Flops        — FLOP accounting for DCR / cost-ratio metrics (Table 3).
//
// Bounds are *not* propagated across operators (the paper turns composition into
// localization); a template accounts only for error propagated within its own
// sub-steps plus fresh rounding.

#ifndef TAO_SRC_OPS_OP_KERNEL_H_
#define TAO_SRC_OPS_OP_KERNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/device/device.h"
#include "src/ops/attrs.h"
#include "src/ops/fperror.h"
#include "src/tensor/tensor.h"

namespace tao {

class ParallelFor;   // src/runtime/parallel_for.h
class TensorArena;   // src/runtime/arena.h

struct OpContext {
  const DeviceProfile& device;
  const std::vector<Tensor>& inputs;
  const Attrs& attrs;
  // Intra-op parallelism handle threaded through by the runtime executor, which
  // passes it only to operators of at least kMinForkFlops; null means run
  // sequentially. Kernels may only split loops whose iterations write disjoint output
  // ranges, so results stay bitwise identical for any thread count.
  const ParallelFor* parallel = nullptr;
  // Output allocator; null means fresh heap allocation. Arena-served buffers are not
  // zeroed: a kernel using AllocateOutput must write every output element.
  TensorArena* arena = nullptr;

  // Runs fn(begin, end) over disjoint chunks of [0, n) — on the runtime pool when a
  // handle is present, inline otherwise.
  void For(int64_t n, const std::function<void(int64_t, int64_t)>& fn,
           int64_t grain = 1) const;

  // Allocates the kernel's output tensor, recycling a dead intermediate if possible.
  Tensor AllocateOutput(Shape shape) const;

  // Per-kernel workspace allocation (e.g. a conv receptive-field gather buffer or a
  // softmax exp row). Same allocator as AllocateOutput; the point of the distinct
  // name is the contract: a workspace is RETURNED via Recycle when the chunk is
  // done, so it cycles through the arena even in trace-retaining runs where no
  // output ever dies. Not zeroed; overwrite before reading.
  Tensor AllocateScratch(Shape shape) const;
  // Offers a finished workspace back for reuse (no-op without an arena).
  void Recycle(Tensor&& scratch) const;
};

struct BoundContext {
  const DeviceProfile& device;
  const std::vector<Tensor>& inputs;
  const Tensor& output;
  const Attrs& attrs;
  BoundMode mode = BoundMode::kProbabilistic;
  double lambda = kDefaultLambda;
  // Same contract as OpContext::parallel (bounds are per-element FP64 arithmetic, so
  // outer-loop splitting is always bitwise safe).
  const ParallelFor* parallel = nullptr;
  // FP64 scratch allocator for bound templates; null means fresh heap allocation.
  // Bound runs RETAIN every value and bound tensor (full traces), so this handle is
  // the only recycling such a run gets: per-chunk scratch (|e|, eps rows, abs-patch
  // gathers) drawn here and Recycled at chunk end cycles through the arena's double
  // pool instead of hammering the system allocator once per chunk.
  TensorArena* arena = nullptr;

  void For(int64_t n, const std::function<void(int64_t, int64_t)>& fn,
           int64_t grain = 1) const;

  // Allocates an FP64 tensor (bound scratch; also usable for the bound result).
  // Arena-served buffers are not zeroed: overwrite every element before reading.
  DTensor AllocateScratch(Shape shape) const;
  // Offers finished scratch back for reuse (no-op without an arena).
  void Recycle(DTensor&& scratch) const;
};

struct VjpContext {
  const std::vector<Tensor>& inputs;
  const Tensor& output;
  const Tensor& grad_output;
  const Attrs& attrs;
};

class OpKernel {
 public:
  virtual ~OpKernel() = default;

  virtual std::string name() const = 0;

  // Output shape given input shapes; used for tracing and validation.
  virtual Shape InferShape(const std::vector<Shape>& input_shapes, const Attrs& attrs) const = 0;

  virtual Tensor Forward(const OpContext& ctx) const = 0;

  // Same-shape-as-output element-wise theoretical error bound tau_theo (FP64). The
  // default is the zero bound, correct for pure data movement.
  virtual DTensor Bound(const BoundContext& ctx) const;

  // Gradients with respect to each input (same order/shapes as inputs). The default
  // aborts; only operators reachable by the attack graphs need differentiability.
  virtual std::vector<Tensor> Vjp(const VjpContext& ctx) const;

  // Floating-point operation count of Forward; data movement counts 0.
  virtual int64_t Flops(const std::vector<Shape>& input_shapes, const Shape& output_shape,
                        const Attrs& attrs) const;
};

// Global kernel registry; kernels are registered once at startup (RegisterAllOps) and
// looked up by graph executors by op name.
class OpRegistry {
 public:
  static OpRegistry& Instance();

  void Register(std::unique_ptr<OpKernel> kernel);
  const OpKernel& Get(const std::string& name) const;
  bool Contains(const std::string& name) const;
  std::vector<std::string> Names() const;

 private:
  OpRegistry() = default;
  std::map<std::string, std::unique_ptr<OpKernel>> kernels_;
};

// Registers every kernel in src/ops; idempotent.
void RegisterAllOps();

// Registration entry points implemented by the per-family translation units.
void RegisterElementwiseOps(OpRegistry& registry);
void RegisterActivationOps(OpRegistry& registry);
void RegisterSoftmaxOps(OpRegistry& registry);
void RegisterNormalizationOps(OpRegistry& registry);
void RegisterMatmulOps(OpRegistry& registry);
void RegisterConvOps(OpRegistry& registry);
void RegisterPoolingOps(OpRegistry& registry);
void RegisterReductionOps(OpRegistry& registry);
void RegisterStructuralOps(OpRegistry& registry);

}  // namespace tao

#endif  // TAO_SRC_OPS_OP_KERNEL_H_
