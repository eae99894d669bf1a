#include "src/crypto/merkle.h"

#include "src/util/check.h"

namespace tao {

MerkleTree::MerkleTree(std::vector<Digest> leaves) : leaf_count_(leaves.size()) {
  if (leaves.empty()) {
    root_ = Sha256::Hash(std::string());
    return;
  }
  levels_.push_back(std::move(leaves));
  while (levels_.back().size() > 1) {
    const std::vector<Digest>& below = levels_.back();
    std::vector<Digest> level;
    level.reserve((below.size() + 1) / 2);
    for (size_t i = 0; i < below.size(); i += 2) {
      const Digest& left = below[i];
      const Digest& right = (i + 1 < below.size()) ? below[i + 1] : below[i];
      level.push_back(HashPair(left, right));
    }
    levels_.push_back(std::move(level));
  }
  root_ = levels_.back()[0];
}

const Digest& MerkleTree::leaf(size_t index) const {
  TAO_CHECK_LT(index, leaf_count_);
  return levels_[0][index];
}

MerkleProof MerkleTree::ProveInclusion(size_t leaf_index) const {
  TAO_CHECK_LT(leaf_index, leaf_count_);
  MerkleProof proof;
  proof.leaf_index = leaf_index;
  size_t index = leaf_index;
  for (size_t level = 0; level + 1 < levels_.size(); ++level) {
    const std::vector<Digest>& nodes = levels_[level];
    const size_t sibling_index = (index % 2 == 0) ? index + 1 : index - 1;
    MerkleProofStep step;
    // Odd tail: the node is paired with itself.
    step.sibling = (sibling_index < nodes.size()) ? nodes[sibling_index] : nodes[index];
    step.sibling_on_right = (index % 2 == 0);
    proof.path.push_back(step);
    index /= 2;
  }
  return proof;
}

bool MerkleTree::VerifyInclusion(const Digest& root, const Digest& leaf,
                                 const MerkleProof& proof) {
  Digest running = leaf;
  for (const MerkleProofStep& step : proof.path) {
    running = step.sibling_on_right ? HashPair(running, step.sibling)
                                    : HashPair(step.sibling, running);
  }
  return running == root;
}

}  // namespace tao
