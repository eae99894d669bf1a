// Model and result commitments (Sec. 2.2 Phase 0-1, Sec. 5.2).
//
// Phase 0: the model owner merkleizes weight tensors (root r_w, leaves sorted by
// parameter name), operator signatures (root r_g), and calibrated thresholds (root
// r_e). Phase 1: for each request the proposer posts
//   C0 = H(r_w || r_g || H(x) || H(y) || meta)
// where meta encodes device type, kernel versions, dtypes, and the challenge window.

#ifndef TAO_SRC_PROTOCOL_COMMITMENT_H_
#define TAO_SRC_PROTOCOL_COMMITMENT_H_

#include <map>
#include <string>
#include <vector>

#include "src/calib/threshold.h"
#include "src/crypto/merkle.h"
#include "src/graph/graph.h"

namespace tao {

class ModelCommitment {
 public:
  // Builds the weight and graph Merkle trees; thresholds provide r_e.
  ModelCommitment(const Graph& graph, const ThresholdSet& thresholds);

  const Digest& weight_root() const { return weight_tree_.root(); }     // r_w
  const Digest& graph_root() const { return graph_tree_.root(); }       // r_g
  const Digest& threshold_root() const { return threshold_root_; }      // r_e

  // Leaf index of a parameter node in the weight tree / of any node in the graph tree.
  size_t WeightLeafIndex(NodeId id) const;
  size_t GraphLeafIndex(NodeId id) const;

  // True when `graph` re-derives every stored leaf: the same weight and signature
  // digests, in the same count and order. Node ids are bound through the signature
  // leaves: an id is a position in nodes() and its leaf hashes that node's label and
  // kind, so equal leaves also give every node the same leaf index. This hashes the
  // whole artifact; ModelRegistry::Commit runs it once per model.
  bool Matches(const Graph& graph) const;

  MerkleProof ProveWeight(NodeId id) const;
  MerkleProof ProveSignature(NodeId id) const;

  // Check `proof` from the STORED leaf digest of `id` up to r_w / r_g; false for a node
  // with no leaf in that tree. Nothing is re-hashed and `graph` is not read: it must be
  // the artifact the commitment was built from or matched at Commit.
  bool VerifyWeight(const Graph& graph, NodeId id, const MerkleProof& proof) const;
  bool VerifySignature(const Graph& graph, NodeId id, const MerkleProof& proof) const;

 private:
  bool HasGraphLeaf(NodeId id) const;

  // Note: the index map is populated by the weight-tree builder during member
  // initialization, so it must be declared (and thus constructed) first.
  std::map<NodeId, size_t> weight_leaf_index_;
  MerkleTree weight_tree_;
  MerkleTree graph_tree_;  // one leaf per node, at the node's id
  Digest threshold_root_;
};

struct ResultMeta {
  std::string device;
  std::string kernel_version = "tao-0.1";
  std::string dtype = "fp32";
  uint64_t challenge_window = 100;  // logical ticks

  std::string Canonical() const;
};

// C0 = H(r_w || r_g || H(x) || H(y) || meta).
Digest ComputeResultCommitment(const ModelCommitment& commitment,
                               const std::vector<Tensor>& inputs, const Tensor& output,
                               const ResultMeta& meta);

// Interface commitment h_D for a list of boundary tensors (Sec. 5.2).
Digest ComputeInterfaceHash(const std::vector<Tensor>& tensors);

}  // namespace tao

#endif  // TAO_SRC_PROTOCOL_COMMITMENT_H_
