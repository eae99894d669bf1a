// Operator-granular dataflow graph IR (the analogue of the paper's FX-traced PyTorch
// graph, Sec. 2.2 Phase 0). Nodes are appended in execution order, so node-id order IS
// the canonical topological order the dispute game partitions over. Three node kinds:
//   kInput — user-provided tensors (the x in y = G(x));
//   kParam — committed weights, merkleized into r_w;
//   kOp    — primitive tensor operators dispatched through the OpRegistry.

#ifndef TAO_SRC_GRAPH_GRAPH_H_
#define TAO_SRC_GRAPH_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/ops/attrs.h"
#include "src/ops/op_kernel.h"
#include "src/tensor/tensor.h"

namespace tao {

using NodeId = int32_t;

enum class NodeKind { kInput, kParam, kOp };

struct Node {
  NodeId id = -1;
  NodeKind kind = NodeKind::kOp;
  std::string op;     // kernel name for kOp nodes; "input"/"param" otherwise
  std::string label;  // human-readable name, e.g. "layer3.attn.softmax"
  std::vector<NodeId> inputs;
  Attrs attrs;
  Shape shape;   // output shape
  Tensor value;  // parameter payload for kParam nodes
  // FLOPs of one forward execution of this operator (0 for inputs and params),
  // computed once by AddOp.
  int64_t flops = 0;
};

class Graph {
 public:
  Graph() { RegisterAllOps(); }

  NodeId AddInput(const std::string& label, Shape shape);
  NodeId AddParam(const std::string& label, Tensor value);
  // Infers the output shape via the kernel registry and validates input arity.
  NodeId AddOp(const std::string& op, const std::string& label, std::vector<NodeId> inputs,
               Attrs attrs = {});

  void SetOutput(NodeId id);
  NodeId output() const;

  const Node& node(NodeId id) const;
  int64_t num_nodes() const { return static_cast<int64_t>(nodes_.size()); }
  const std::vector<Node>& nodes() const { return nodes_; }

  // Ids of operator nodes in canonical topological order (the set V of the paper).
  const std::vector<NodeId>& op_nodes() const { return op_nodes_; }
  int64_t num_ops() const { return static_cast<int64_t>(op_nodes_.size()); }

  // Ids of input / parameter nodes in insertion order.
  const std::vector<NodeId>& input_nodes() const { return input_nodes_; }
  const std::vector<NodeId>& param_nodes() const { return param_nodes_; }

  // FLOPs of one forward execution (sum of per-operator kernel FLOP counts).
  int64_t TotalFlops() const;
  int64_t NodeFlops(NodeId id) const { return node(id).flops; }

  // Canonical operator signature sigma(n) = canon(label, kind, op, inputs, attrs);
  // hashed into the graph-structure Merkle tree r_g (Sec. 5.2).
  std::string NodeSignature(NodeId id) const;

 private:
  std::vector<Node> nodes_;
  std::vector<NodeId> op_nodes_;
  std::vector<NodeId> input_nodes_;
  std::vector<NodeId> param_nodes_;
  NodeId output_ = -1;
};

}  // namespace tao

#endif  // TAO_SRC_GRAPH_GRAPH_H_
