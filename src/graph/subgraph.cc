#include "src/graph/subgraph.h"

#include <set>

#include "src/runtime/parallel_for.h"
#include "src/runtime/thread_pool.h"
#include "src/util/check.h"

namespace tao {

Frontier ComputeFrontier(const Graph& graph, const Slice& slice) {
  TAO_CHECK(slice.begin >= 0 && slice.end <= graph.num_ops() && slice.begin < slice.end)
      << "bad slice [" << slice.begin << "," << slice.end << ")";
  const std::vector<NodeId>& ops = graph.op_nodes();
  std::set<NodeId> members;
  for (int64_t i = slice.begin; i < slice.end; ++i) {
    members.insert(ops[static_cast<size_t>(i)]);
  }

  Frontier frontier;
  std::set<NodeId> live_in_seen;
  std::set<NodeId> param_seen;
  for (int64_t i = slice.begin; i < slice.end; ++i) {
    const Node& node = graph.node(ops[static_cast<size_t>(i)]);
    for (const NodeId in : node.inputs) {
      if (members.count(in) > 0) {
        continue;
      }
      const Node& producer = graph.node(in);
      if (producer.kind == NodeKind::kParam) {
        if (param_seen.insert(in).second) {
          frontier.params.push_back(in);
        }
      } else if (live_in_seen.insert(in).second) {
        frontier.live_in.push_back(in);
      }
    }
  }

  // Out(S): members consumed by any node after the slice, plus the graph output.
  std::set<NodeId> consumed_outside;
  for (const Node& node : graph.nodes()) {
    if (node.kind != NodeKind::kOp || members.count(node.id) > 0) {
      continue;
    }
    for (const NodeId in : node.inputs) {
      if (members.count(in) > 0) {
        consumed_outside.insert(in);
      }
    }
  }
  for (int64_t i = slice.begin; i < slice.end; ++i) {
    const NodeId id = ops[static_cast<size_t>(i)];
    if (consumed_outside.count(id) > 0 || id == graph.output()) {
      frontier.live_out.push_back(id);
    }
  }
  return frontier;
}

std::vector<Slice> PartitionSlice(const Slice& slice, int64_t n) {
  TAO_CHECK_GT(n, 1);
  const int64_t total = slice.size();
  const int64_t children = std::min(n, total);
  std::vector<Slice> parts;
  parts.reserve(static_cast<size_t>(children));
  const int64_t base = total / children;
  const int64_t remainder = total % children;
  int64_t cursor = slice.begin;
  for (int64_t j = 0; j < children; ++j) {
    const int64_t len = base + (j < remainder ? 1 : 0);
    parts.push_back(Slice{cursor, cursor + len});
    cursor += len;
  }
  TAO_CHECK_EQ(cursor, slice.end);
  return parts;
}

std::map<NodeId, Tensor> ExecuteSlice(const Graph& graph, const DeviceProfile& device,
                                      const Slice& slice,
                                      const std::map<NodeId, Tensor>& boundary,
                                      int num_threads) {
  const std::vector<NodeId>& ops = graph.op_nodes();
  ThreadPool* pool = num_threads > 1 ? &ThreadPool::Shared() : nullptr;
  const ParallelFor parallel(pool, num_threads);
  const ParallelFor* parallel_handle = pool != nullptr ? &parallel : nullptr;
  std::map<NodeId, Tensor> values;
  for (int64_t i = slice.begin; i < slice.end; ++i) {
    const Node& node = graph.node(ops[static_cast<size_t>(i)]);
    const OpKernel& kernel = OpRegistry::Instance().Get(node.op);
    std::vector<Tensor> op_inputs;
    op_inputs.reserve(node.inputs.size());
    for (const NodeId in : node.inputs) {
      const auto local = values.find(in);
      if (local != values.end()) {
        op_inputs.push_back(local->second);
        continue;
      }
      const Node& producer = graph.node(in);
      if (producer.kind == NodeKind::kParam) {
        op_inputs.push_back(producer.value);
        continue;
      }
      const auto external = boundary.find(in);
      TAO_CHECK(external != boundary.end())
          << "missing live-in tensor for node " << in << " (" << producer.label << ")";
      op_inputs.push_back(external->second);
    }
    // The executor's rule: only an operator large enough to repay a fork splits.
    const ParallelFor* op_parallel =
        node.flops >= kMinForkFlops ? parallel_handle : nullptr;
    const OpContext ctx{device, op_inputs, node.attrs, op_parallel};
    values[node.id] = kernel.Forward(ctx);
  }
  return values;
}

int64_t SliceFlops(const Graph& graph, const Slice& slice) {
  const std::vector<NodeId>& ops = graph.op_nodes();
  int64_t total = 0;
  for (int64_t i = slice.begin; i < slice.end; ++i) {
    total += graph.NodeFlops(ops[static_cast<size_t>(i)]);
  }
  return total;
}

}  // namespace tao
