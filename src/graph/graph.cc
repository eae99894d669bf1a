#include "src/graph/graph.h"

#include <sstream>

#include "src/util/check.h"

namespace tao {

NodeId Graph::AddInput(const std::string& label, Shape shape) {
  Node node;
  node.id = static_cast<NodeId>(nodes_.size());
  node.kind = NodeKind::kInput;
  node.op = "input";
  node.label = label;
  node.shape = std::move(shape);
  input_nodes_.push_back(node.id);
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

NodeId Graph::AddParam(const std::string& label, Tensor value) {
  Node node;
  node.id = static_cast<NodeId>(nodes_.size());
  node.kind = NodeKind::kParam;
  node.op = "param";
  node.label = label;
  node.shape = value.shape();
  node.value = std::move(value);
  param_nodes_.push_back(node.id);
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

NodeId Graph::AddOp(const std::string& op, const std::string& label, std::vector<NodeId> inputs,
                    Attrs attrs) {
  const OpKernel& kernel = OpRegistry::Instance().Get(op);
  std::vector<Shape> input_shapes;
  input_shapes.reserve(inputs.size());
  for (const NodeId in : inputs) {
    TAO_CHECK(in >= 0 && in < static_cast<NodeId>(nodes_.size()))
        << "bad input node id " << in << " for op " << label;
    input_shapes.push_back(nodes_[static_cast<size_t>(in)].shape);
  }
  Node node;
  node.id = static_cast<NodeId>(nodes_.size());
  node.kind = NodeKind::kOp;
  node.op = op;
  node.label = label;
  node.inputs = std::move(inputs);
  node.shape = kernel.InferShape(input_shapes, attrs);
  node.flops = kernel.Flops(input_shapes, node.shape, attrs);
  node.attrs = std::move(attrs);
  op_nodes_.push_back(node.id);
  nodes_.push_back(std::move(node));
  // By default the newest op is the graph output; SetOutput can override.
  output_ = nodes_.back().id;
  return nodes_.back().id;
}

void Graph::SetOutput(NodeId id) {
  TAO_CHECK(id >= 0 && id < static_cast<NodeId>(nodes_.size()));
  TAO_CHECK(nodes_[static_cast<size_t>(id)].kind == NodeKind::kOp);
  output_ = id;
}

NodeId Graph::output() const {
  TAO_CHECK_GE(output_, 0) << "graph has no output";
  return output_;
}

const Node& Graph::node(NodeId id) const {
  TAO_CHECK(id >= 0 && id < static_cast<NodeId>(nodes_.size())) << "bad node id " << id;
  return nodes_[static_cast<size_t>(id)];
}

int64_t Graph::TotalFlops() const {
  int64_t total = 0;
  for (const NodeId id : op_nodes_) {
    total += NodeFlops(id);
  }
  return total;
}

std::string Graph::NodeSignature(NodeId id) const {
  const Node& n = node(id);
  std::ostringstream out;
  out << "name=" << n.label << ";kind=" << static_cast<int>(n.kind) << ";op=" << n.op
      << ";inputs=[";
  for (size_t i = 0; i < n.inputs.size(); ++i) {
    if (i > 0) {
      out << " ";
    }
    out << n.inputs[i];
  }
  out << "];attrs={" << n.attrs.Canonical() << "};shape=" << n.shape.ToString();
  return out.str();
}

}  // namespace tao
