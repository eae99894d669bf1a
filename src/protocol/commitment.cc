#include "src/protocol/commitment.h"

#include <algorithm>

#include "src/crypto/canonical.h"
#include "src/util/check.h"

namespace tao {
namespace {

// Weight leaves are ordered by lexicographically sorted parameter label (the paper
// sorts state_dict keys); graph leaves by node id (canonical topological order).
std::vector<std::pair<std::string, NodeId>> SortedParams(const Graph& graph) {
  std::vector<std::pair<std::string, NodeId>> params;
  for (const NodeId id : graph.param_nodes()) {
    params.emplace_back(graph.node(id).label, id);
  }
  std::sort(params.begin(), params.end());
  return params;
}

// Also records each parameter's leaf position in `index` when one is given.
std::vector<Digest> WeightLeaves(const Graph& graph, std::map<NodeId, size_t>* index) {
  std::vector<Digest> leaves;
  for (const auto& [label, id] : SortedParams(graph)) {
    if (index != nullptr) {
      (*index)[id] = leaves.size();
    }
    leaves.push_back(HashTensor(graph.node(id).value));
  }
  return leaves;
}

// One leaf per node, at the node's id (ids are positions in nodes()).
std::vector<Digest> SignatureLeaves(const Graph& graph) {
  std::vector<Digest> leaves;
  for (const Node& node : graph.nodes()) {
    leaves.push_back(HashSignature(graph.NodeSignature(node.id)));
  }
  return leaves;
}

bool SameLeaves(const MerkleTree& tree, const std::vector<Digest>& leaves) {
  if (leaves.size() != tree.leaf_count()) {
    return false;
  }
  for (size_t i = 0; i < leaves.size(); ++i) {
    if (leaves[i] != tree.leaf(i)) {
      return false;
    }
  }
  return true;
}

}  // namespace

ModelCommitment::ModelCommitment(const Graph& graph, const ThresholdSet& thresholds)
    : weight_tree_(WeightLeaves(graph, &weight_leaf_index_)),
      graph_tree_(SignatureLeaves(graph)),
      threshold_root_(thresholds.CommitRoot()) {}

bool ModelCommitment::Matches(const Graph& graph) const {
  return SameLeaves(weight_tree_, WeightLeaves(graph, nullptr)) &&
         SameLeaves(graph_tree_, SignatureLeaves(graph));
}

size_t ModelCommitment::WeightLeafIndex(NodeId id) const {
  const auto it = weight_leaf_index_.find(id);
  TAO_CHECK(it != weight_leaf_index_.end()) << "node " << id << " is not a parameter";
  return it->second;
}

size_t ModelCommitment::GraphLeafIndex(NodeId id) const {
  TAO_CHECK(HasGraphLeaf(id)) << "unknown node " << id;
  return static_cast<size_t>(id);
}

bool ModelCommitment::HasGraphLeaf(NodeId id) const {
  return id >= 0 && static_cast<size_t>(id) < graph_tree_.leaf_count();
}

MerkleProof ModelCommitment::ProveWeight(NodeId id) const {
  return weight_tree_.ProveInclusion(WeightLeafIndex(id));
}

MerkleProof ModelCommitment::ProveSignature(NodeId id) const {
  return graph_tree_.ProveInclusion(GraphLeafIndex(id));
}

bool ModelCommitment::VerifyWeight(const Graph& /*graph*/, NodeId id,
                                   const MerkleProof& proof) const {
  const auto it = weight_leaf_index_.find(id);
  return it != weight_leaf_index_.end() &&
         MerkleTree::VerifyInclusion(weight_tree_.root(), weight_tree_.leaf(it->second), proof);
}

bool ModelCommitment::VerifySignature(const Graph& /*graph*/, NodeId id,
                                      const MerkleProof& proof) const {
  return HasGraphLeaf(id) &&
         MerkleTree::VerifyInclusion(graph_tree_.root(), graph_tree_.leaf(static_cast<size_t>(id)),
                                     proof);
}

std::string ResultMeta::Canonical() const {
  return "device=" + device + ";kernel=" + kernel_version + ";dtype=" + dtype +
         ";window=" + std::to_string(challenge_window);
}

Digest ComputeResultCommitment(const ModelCommitment& commitment,
                               const std::vector<Tensor>& inputs, const Tensor& output,
                               const ResultMeta& meta) {
  Sha256 ctx;
  const Digest rw = commitment.weight_root();
  const Digest rg = commitment.graph_root();
  ctx.Update(std::span<const uint8_t>(rw.data(), rw.size()));
  ctx.Update(std::span<const uint8_t>(rg.data(), rg.size()));
  const Digest hx = HashTensorList(inputs);
  ctx.Update(std::span<const uint8_t>(hx.data(), hx.size()));
  const Digest hy = HashTensor(output);
  ctx.Update(std::span<const uint8_t>(hy.data(), hy.size()));
  ctx.Update(meta.Canonical());
  return ctx.Finalize();
}

Digest ComputeInterfaceHash(const std::vector<Tensor>& tensors) {
  return HashTensorList(tensors);
}

}  // namespace tao
