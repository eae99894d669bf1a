// Merkle trees over leaf digests with logarithmic inclusion proofs.
//
// TAO commits to weight tensors (root r_w), graph operator signatures (root r_g), and
// calibrated thresholds (root r_e) as Merkle trees (Sec. 5.2); dispute rounds carry
// inclusion proofs for every leaf a subgraph references, which the coordinator verifies
// and meters (Fig. 8 counts these checks).

#ifndef TAO_SRC_CRYPTO_MERKLE_H_
#define TAO_SRC_CRYPTO_MERKLE_H_

#include <cstddef>
#include <vector>

#include "src/crypto/sha256.h"

namespace tao {

// One sibling digest along the leaf-to-root path.
struct MerkleProofStep {
  Digest sibling;
  // True when the sibling is the right child (i.e. the running hash is the left input).
  bool sibling_on_right = false;
};

struct MerkleProof {
  size_t leaf_index = 0;
  std::vector<MerkleProofStep> path;
};

class MerkleTree {
 public:
  // Builds a tree over the given leaf digests. Odd nodes at a level are promoted by
  // duplicating the last digest (Bitcoin-style padding). Empty input is permitted and
  // yields the hash of the empty string as root.
  explicit MerkleTree(std::vector<Digest> leaves);

  const Digest& root() const { return root_; }
  size_t leaf_count() const { return leaf_count_; }
  // The stored digest of leaf `index` (< leaf_count()).
  const Digest& leaf(size_t index) const;

  MerkleProof ProveInclusion(size_t leaf_index) const;

  // Verifies that `leaf` at `proof.leaf_index` is included under `root`.
  static bool VerifyInclusion(const Digest& root, const Digest& leaf, const MerkleProof& proof);

 private:
  size_t leaf_count_ = 0;
  // levels_[0] = leaves, levels_.back() = {root}.
  std::vector<std::vector<Digest>> levels_;
  Digest root_;
};

}  // namespace tao

#endif  // TAO_SRC_CRYPTO_MERKLE_H_
