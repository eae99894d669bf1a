#include "src/graph/executor.h"

#include <memory>
#include <utility>

#include "src/runtime/parallel_for.h"
#include "src/runtime/thread_pool.h"
#include "src/util/check.h"

namespace tao {

ExecutionTrace Executor::Run(const std::vector<Tensor>& inputs,
                             const ExecutorOptions& options) const {
  return RunInternal(inputs, {}, options, /*keep_values=*/true, nullptr);
}

Tensor Executor::RunOutput(const std::vector<Tensor>& inputs, const ExecutorOptions& options,
                           TensorArena::Stats* arena_stats) const {
  ExecutorOptions output_only = options;
  output_only.with_bounds = false;  // bounds require the full trace
  const ExecutionTrace trace =
      RunInternal(inputs, {}, output_only, /*keep_values=*/false, arena_stats);
  return trace.value(graph_.output());
}

ExecutionTrace Executor::RunPerturbed(const std::vector<Tensor>& inputs,
                                      const std::vector<Perturbation>& perturbations,
                                      const ExecutorOptions& options) const {
  return RunInternal(inputs, perturbations, options, /*keep_values=*/true, nullptr);
}

ExecutionTrace Executor::RunInternal(const std::vector<Tensor>& inputs,
                                     const std::vector<Perturbation>& perturbations,
                                     const ExecutorOptions& options, bool keep_values,
                                     TensorArena::Stats* arena_stats) const {
  std::vector<BatchItem> items(1);
  items[0].inputs = &inputs;
  items[0].perturbations = perturbations.empty() ? nullptr : &perturbations;
  items[0].keep_values = keep_values;
  std::vector<ExecutionTrace> traces = RunBatch(items, options, arena_stats);
  return std::move(traces[0]);
}

std::vector<Tensor> Executor::RunOutputBatch(
    const std::vector<std::vector<Tensor>>& batch_inputs, const ExecutorOptions& options,
    TensorArena::Stats* arena_stats) const {
  std::vector<BatchItem> items(batch_inputs.size());
  for (size_t i = 0; i < batch_inputs.size(); ++i) {
    items[i].inputs = &batch_inputs[i];
  }
  ExecutorOptions output_only = options;
  output_only.with_bounds = false;
  const std::vector<ExecutionTrace> traces = RunBatch(items, output_only, arena_stats);
  std::vector<Tensor> outputs;
  outputs.reserve(traces.size());
  for (const ExecutionTrace& trace : traces) {
    outputs.push_back(trace.value(graph_.output()));
  }
  return outputs;
}

std::vector<ExecutionTrace> Executor::RunBatch(const std::vector<BatchItem>& items,
                                               const ExecutorOptions& options,
                                               TensorArena::Stats* arena_stats) const {
  const size_t num_items = items.size();
  std::vector<ExecutionTrace> traces(num_items);
  if (num_items == 0) {
    return traces;
  }

  const size_t num_nodes = static_cast<size_t>(graph_.num_nodes());
  const std::vector<NodeId>& ops = graph_.op_nodes();
  for (size_t i = 0; i < num_items; ++i) {
    const BatchItem& item = items[i];
    TAO_CHECK(item.inputs != nullptr);
    TAO_CHECK_EQ(item.inputs->size(), graph_.input_nodes().size());
    ExecutionTrace& trace = traces[i];
    trace.values.resize(num_nodes);
    if (options.with_bounds && item.keep_values) {
      trace.bounds.resize(num_nodes);
      trace.has_bounds = true;
    }
    for (size_t j = 0; j < item.inputs->size(); ++j) {
      const NodeId id = graph_.input_nodes()[j];
      TAO_CHECK((*item.inputs)[j].shape() == graph_.node(id).shape)
          << "lane " << i << " input " << j << " shape "
          << (*item.inputs)[j].shape().ToString() << " != declared "
          << graph_.node(id).shape.ToString();
      trace.values[static_cast<size_t>(id)] = (*item.inputs)[j];
    }
    // Weights are shared: the copies below alias the graph's storage.
    for (const NodeId id : graph_.param_nodes()) {
      trace.values[static_cast<size_t>(id)] = graph_.node(id).value;
    }
  }

  // num_threads == 1 leaves the pool null: lanes and loops all run on the caller.
  ThreadPool* pool = options.num_threads > 1 ? &ThreadPool::Shared() : nullptr;
  const ParallelFor parallel(pool, options.num_threads);

  // One arena serves every recycling lane, so a buffer dying in one lane can be
  // adopted by another. VALUE reuse is only sound when dead intermediates really
  // die: full-trace lanes retain every value and never recycle outputs. The arena
  // still exists for pure keep-values runs under `reuse_buffers`, because kernels
  // recycle their per-chunk WORKSPACES (and bound scratch, via BoundContext)
  // through it even when every node value is retained.
  std::unique_ptr<TensorArena> arena;
  // Consumer edges per node id: a lane that recycles counts down its own copy, and
  // a node's value dies when its count reaches zero.
  std::vector<int32_t> base_uses;
  if (options.reuse_buffers) {
    arena = std::make_unique<TensorArena>();
    base_uses.assign(num_nodes, 0);
    for (const NodeId id : ops) {
      for (const NodeId in : graph_.node(id).inputs) {
        ++base_uses[static_cast<size_t>(in)];
      }
    }
  }

  const NodeId output = graph_.output();
  // Runs one lane's operators in canonical topological order on the calling thread,
  // then its epilogue. Each lane writes only its own trace.
  const auto run_lane = [&](size_t lane) {
    const BatchItem& item = items[lane];
    ExecutionTrace& trace = traces[lane];
    const DeviceProfile& device = item.device != nullptr ? *item.device : device_;
    const bool release_dead = !item.keep_values && options.reuse_buffers;
    std::vector<int32_t> remaining_uses;
    if (release_dead) {
      remaining_uses = base_uses;
    }
    for (const NodeId id : ops) {
      const Node& node = graph_.node(id);
      const OpKernel& kernel = OpRegistry::Instance().Get(node.op);
      // Only an operator large enough to repay a fork splits across the pool.
      const ParallelFor* op_parallel =
          pool != nullptr && node.flops >= kMinForkFlops ? &parallel : nullptr;
      {
        std::vector<Tensor> op_inputs;
        op_inputs.reserve(node.inputs.size());
        for (const NodeId in : node.inputs) {
          op_inputs.push_back(trace.values[static_cast<size_t>(in)]);
        }
        const OpContext ctx{device, op_inputs, node.attrs, op_parallel, arena.get()};
        Tensor out = kernel.Forward(ctx);
        TAO_CHECK(out.shape() == node.shape)
            << node.label << ": forward produced " << out.shape().ToString()
            << ", expected " << node.shape.ToString();

        if (options.with_bounds && item.keep_values) {
          const BoundContext bctx{device,     op_inputs,          out,
                                  node.attrs, options.bound_mode, options.lambda,
                                  op_parallel, arena.get()};
          trace.bounds[static_cast<size_t>(id)] = kernel.Bound(bctx);
        }

        // Adversarial injection happens after the operator completes, before the
        // tensor is published to downstream consumers (Sec. 4.2: h_v <- h_v + Delta_v).
        if (item.perturbations != nullptr) {
          for (const Perturbation& p : *item.perturbations) {
            if (p.node == id) {
              TAO_CHECK(p.delta.shape() == out.shape());
              Tensor perturbed = out.Clone();
              auto pv = perturbed.mutable_values();
              const auto dv = p.delta.values();
              for (size_t v = 0; v < pv.size(); ++v) {
                pv[v] += dv[v];
              }
              out = perturbed;
            }
          }
        }
        trace.values[static_cast<size_t>(id)] = std::move(out);
        // op_inputs goes out of scope here: its aliases must die before the release
        // step below, or a dead input would look live and escape recycling.
      }
      if (release_dead) {
        for (const NodeId in : node.inputs) {
          if (--remaining_uses[static_cast<size_t>(in)] != 0) {
            continue;
          }
          if (graph_.node(in).kind != NodeKind::kOp || in == output) {
            continue;  // caller/graph-owned storage, or the value we must return
          }
          arena->Recycle(std::move(trace.values[static_cast<size_t>(in)]));
          trace.values[static_cast<size_t>(in)] = Tensor();
        }
      }
    }
    if (item.on_complete) {
      item.on_complete(lane, trace);
    }
  };

  // Claims, not operators, are the unit of parallelism: each lane is one task of a
  // ParallelFor over the cohort, so a single lane runs on the caller.
  parallel(static_cast<int64_t>(num_items), [&](int64_t begin, int64_t end) {
    for (int64_t lane = begin; lane < end; ++lane) {
      run_lane(static_cast<size_t>(lane));
    }
  });

  if (arena_stats != nullptr && arena != nullptr) {
    *arena_stats = arena->stats();
  }
  return traces;
}

}  // namespace tao
