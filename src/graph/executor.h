// Graph execution with per-node traces and optional theoretical-bound co-execution
// (the paper's "FX-based co-execution": one traced run yields both values and tau_theo
// per operator). The device profile parameterizes every reduction/intrinsic, so running
// the same graph under two profiles reproduces cross-device FP divergence.
//
// Execution runs on the parallel runtime layer (src/runtime/). Claims, not operators,
// are the unit of parallelism: a batched run's lanes are tasks of one ParallelFor over
// the shared ThreadPool, and inside a lane the operators run in canonical topological
// order on one thread. Only an operator of at least kMinForkFlops receives the
// ParallelFor handle through OpContext and splits its outer loop. A TensorArena
// recycles dead intermediates in output-only runs. The protocol invariant is bitwise
// determinism: traces are identical for every num_threads and arena setting, because
// thread count only decides which thread runs a lane and repartitions loop iterations
// whose outputs are disjoint — commitments and bound checks hash exact values, so this
// is load-bearing, not cosmetic (see docs/runtime.md).

#ifndef TAO_SRC_GRAPH_EXECUTOR_H_
#define TAO_SRC_GRAPH_EXECUTOR_H_

#include <functional>
#include <vector>

#include "src/device/device.h"
#include "src/graph/graph.h"
#include "src/ops/fperror.h"
#include "src/runtime/arena.h"

namespace tao {

// Per-node results of one traced run. `values[id]` is defined for every node (inputs
// and params included); `bounds[id]` only when bounds were requested and the node is an
// operator.
struct ExecutionTrace {
  std::vector<Tensor> values;
  std::vector<DTensor> bounds;
  bool has_bounds = false;

  const Tensor& value(NodeId id) const { return values[static_cast<size_t>(id)]; }
  const DTensor& bound(NodeId id) const { return bounds[static_cast<size_t>(id)]; }
};

struct ExecutorOptions {
  bool with_bounds = false;
  BoundMode bound_mode = BoundMode::kProbabilistic;
  double lambda = kDefaultLambda;

  // --- runtime policy ---------------------------------------------------------------
  // Worker count including the calling thread. 1 = the seed's sequential interpreter
  // (exact baseline); >1 runs a batch's lanes concurrently on the shared pool and
  // splits the loops of operators of at least kMinForkFlops. Values and bounds are
  // bitwise identical either way.
  int num_threads = 1;
  // Recycle intermediates whose last consumer has executed through a TensorArena.
  // Only effective on the output-only path (RunOutput): full traces retain every
  // value, so nothing is ever dead there.
  bool reuse_buffers = false;
};

class Executor {
 public:
  Executor(const Graph& graph, const DeviceProfile& device)
      : graph_(graph), device_(device) {}

  // Runs the whole graph on `inputs` (one tensor per graph input, in declaration
  // order). Returns the full trace.
  ExecutionTrace Run(const std::vector<Tensor>& inputs, const ExecutorOptions& options = {}) const;

  // Convenience: runs and returns only the output tensor. This path honors
  // `options.reuse_buffers` (dead intermediates are released to the arena as the
  // schedule advances); `arena_stats`, when non-null, receives the arena's
  // allocation/recycle counters for the run.
  Tensor RunOutput(const std::vector<Tensor>& inputs, const ExecutorOptions& options = {},
                   TensorArena::Stats* arena_stats = nullptr) const;

  // Overrides applied after each node executes: the malicious proposer of Sec. 4 adds
  // a perturbation Delta_v to the output of node `id` before downstream consumers see
  // it. The perturbed tensor is what lands in the trace (and what gets committed).
  struct Perturbation {
    NodeId node = -1;
    Tensor delta;
  };

  ExecutionTrace RunPerturbed(const std::vector<Tensor>& inputs,
                              const std::vector<Perturbation>& perturbations,
                              const ExecutorOptions& options = {}) const;

  // --- batched execution --------------------------------------------------------------
  // One lane of a batched run: an independent execution of this graph with its own
  // inputs, optional perturbations, and device profile, sharing the graph's weights
  // (and, with `reuse_buffers`, one TensorArena) with every other lane. A lane is one
  // pool task: its operators run in order on one thread, while other lanes run on
  // other threads.
  struct BatchItem {
    const std::vector<Tensor>* inputs = nullptr;
    const std::vector<Perturbation>* perturbations = nullptr;  // null = none
    const DeviceProfile* device = nullptr;  // null = the executor's device
    // Retain every node's value (Run semantics). When false the lane is output-only
    // (RunOutput semantics) and its dead intermediates can be arena-recycled.
    bool keep_values = false;
    // Runs on the lane's thread right after the lane's last operator, while other
    // lanes may still be executing — the natural place for per-claim commitment
    // checks. Receives the lane index and the lane's trace.
    std::function<void(size_t item, const ExecutionTrace&)> on_complete;
  };

  // Executes every lane, each as one task of a ParallelFor over the cohort. With
  // num_threads <= 1 this is exactly the lanes run back-to-back in order (the
  // sequential baseline); with more threads lanes run concurrently, and a single lane
  // runs on the caller. Values are bitwise identical either way, per lane, to an
  // individual Run/RunOutput call with the same options. `arena_stats` aggregates the
  // shared arena's counters across every recycling lane.
  std::vector<ExecutionTrace> RunBatch(const std::vector<BatchItem>& items,
                                       const ExecutorOptions& options = {},
                                       TensorArena::Stats* arena_stats = nullptr) const;

  // Convenience: output-only batched run over B input sets on the executor's device.
  // Element i is bitwise identical to RunOutput(batch_inputs[i], options).
  std::vector<Tensor> RunOutputBatch(const std::vector<std::vector<Tensor>>& batch_inputs,
                                     const ExecutorOptions& options = {},
                                     TensorArena::Stats* arena_stats = nullptr) const;

 private:
  ExecutionTrace RunInternal(const std::vector<Tensor>& inputs,
                             const std::vector<Perturbation>& perturbations,
                             const ExecutorOptions& options, bool keep_values,
                             TensorArena::Stats* arena_stats) const;

  const Graph& graph_;
  const DeviceProfile& device_;
};

}  // namespace tao

#endif  // TAO_SRC_GRAPH_EXECUTOR_H_
