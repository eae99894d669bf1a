// Tests for SHA-256 (against FIPS 180-4 known-answer vectors, on the scalar rounds and
// the SHA-NI kernel), canonical hashing, and Merkle trees with inclusion proofs.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/crypto/canonical.h"
#include "src/crypto/merkle.h"
#include "src/crypto/sha256.h"
#include "src/device/simd.h"
#include "src/util/rng.h"

namespace tao {
namespace {

// Runs each test once on the scalar rounds and once on the SHA-NI kernel (AVX2 backend
// on a CPU with the SHA extensions); the second run is skipped where the kernel cannot
// execute.
class Sha256PathTest : public ::testing::TestWithParam<SimdBackend> {
 protected:
  void SetUp() override {
    const SimdBackend backend = GetParam();
    if (!SimdBackendSupported(backend)) {
      GTEST_SKIP() << "CPU lacks " << SimdBackendName(backend)
                   << ": the SHA-NI kernel is not reachable here";
    }
    force_.emplace(backend);
    if (backend == SimdBackend::kScalar) {
      ASSERT_FALSE(Sha256::UsesShaNi());
    } else if (!Sha256::UsesShaNi()) {
      GTEST_SKIP() << "CPU lacks the SHA extensions: only the scalar rounds run here";
    }
  }

 private:
  std::optional<ScopedSimdBackend> force_;
};

INSTANTIATE_TEST_SUITE_P(Paths, Sha256PathTest,
                         ::testing::Values(SimdBackend::kScalar, SimdBackend::kAvx2),
                         [](const ::testing::TestParamInfo<SimdBackend>& info) {
                           return info.param == SimdBackend::kScalar ? std::string("scalar")
                                                                     : std::string("sha_ni");
                         });

TEST_P(Sha256PathTest, KnownAnswerEmpty) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(std::string())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST_P(Sha256PathTest, KnownAnswerAbc) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST_P(Sha256PathTest, KnownAnswerTwoBlockMessage) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(
                std::string("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST_P(Sha256PathTest, KnownAnswerMillionA) {
  const std::string chunk(1000, 'a');
  Sha256 ctx;
  for (int i = 0; i < 1000; ++i) {
    ctx.Update(chunk);
  }
  const std::string expected =
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
  EXPECT_EQ(DigestToHex(ctx.Finalize()), expected);
  EXPECT_EQ(DigestToHex(Sha256::Hash(std::string(1000000, 'a'))), expected);
}

TEST_P(Sha256PathTest, StreamingMatchesOneShot) {
  const std::string msg = "tolerance-aware optimistic verification";
  Sha256 ctx;
  ctx.Update(msg.substr(0, 10));
  ctx.Update(msg.substr(10));
  EXPECT_EQ(DigestToHex(ctx.Finalize()), DigestToHex(Sha256::Hash(msg)));
}

TEST_P(Sha256PathTest, RandomChunkSplitsMatchOneShotAndTheScalarRounds) {
  Rng rng(0x5a256);
  for (size_t length = 0; length <= 1100; ++length) {
    std::vector<uint8_t> message(length);
    for (uint8_t& byte : message) {
      byte = static_cast<uint8_t>(rng.NextU64());
    }
    const std::span<const uint8_t> all(message);
    Digest scalar;
    {
      ScopedSimdBackend force(SimdBackend::kScalar);
      scalar = Sha256::Hash(all);
    }
    const Digest one_shot = Sha256::Hash(all);

    // Chunks mostly under a block, sometimes several blocks long, with empty spans
    // (whose data() is null) interleaved.
    Sha256 ctx;
    for (size_t offset = 0; offset < length;) {
      if (rng.NextBounded(4) == 0) {
        ctx.Update(std::span<const uint8_t>());
      }
      const uint64_t max_chunk = rng.NextBounded(2) == 0 ? 70 : 300;
      const size_t take = std::min<size_t>(length - offset, rng.NextBounded(max_chunk + 1));
      ctx.Update(all.subspan(offset, take));
      offset += take;
    }
    ctx.Update(std::span<const uint8_t>());
    ASSERT_EQ(DigestToHex(ctx.Finalize()), DigestToHex(one_shot)) << "length " << length;
    ASSERT_EQ(DigestToHex(one_shot), DigestToHex(scalar)) << "length " << length;
  }
}

// A fixed [128, 128] tensor holding the element bit patterns a byte codec must carry
// unchanged — -0.0, NaNs with payloads, denormals and +inf — among ordinary values.
Tensor PinnedTensor() {
  std::vector<float> values(16384);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<float>(static_cast<int>((i * 37) % 1001) - 500) / 7.0f;
  }
  const auto set_bits = [&](size_t i, uint32_t bits) {
    std::memcpy(&values[i], &bits, sizeof(bits));
  };
  set_bits(0, 0x80000000u);      // -0.0
  set_bits(1, 0x7FC0BEEFu);      // quiet NaN with a payload
  set_bits(2, 0x00000001u);      // smallest positive denormal
  set_bits(3, 0xFF800123u);      // negative signalling NaN with a payload
  set_bits(8191, 0x807FFFFFu);   // largest negative denormal
  set_bits(16383, 0x7F800000u);  // +inf
  return Tensor(Shape{128, 128}, std::move(values));
}

// Every commitment ever published hashes canonical bytes this way, so these digests
// are fixed: a change that moves one is wrong and must not re-pin it.
TEST_P(Sha256PathTest, HashTensorMatchesPinnedDigests) {
  EXPECT_EQ(DigestToHex(HashTensor(PinnedTensor())),
            "52063e5384f8080bdf770f88e9a71417c90a9f40e735f733bb1b281c211804bb");
  EXPECT_EQ(DigestToHex(HashTensor(Tensor(Shape{0}))),
            "c363a7bc246a6180ed9330821f26c31b9a43d94a8462e5d95d8d6face2253822");
}

TEST_P(Sha256PathTest, HashTensorIsTheHashOfCanonicalBytes) {
  for (const Tensor& t : {PinnedTensor(), Tensor(Shape{0}), Tensor(Shape{}),
                          Tensor::Arange(17).WithShape(Shape{1, 17})}) {
    EXPECT_EQ(DigestToHex(HashTensor(t)), DigestToHex(Sha256::Hash(CanonicalBytes(t))))
        << t.shape().ToString();
  }
}

TEST(CanonicalTest, HashSensitiveToValues) {
  Tensor a = Tensor::Full(Shape{4}, 1.0f);
  Tensor b = a.Clone();
  EXPECT_EQ(DigestToHex(HashTensor(a)), DigestToHex(HashTensor(b)));
  b.mutable_values()[3] = std::nextafterf(1.0f, 2.0f);
  EXPECT_NE(DigestToHex(HashTensor(a)), DigestToHex(HashTensor(b)));
}

TEST(CanonicalTest, HashSensitiveToShape) {
  const Tensor a = Tensor::Arange(6).WithShape(Shape{2, 3});
  const Tensor b = Tensor::Arange(6).WithShape(Shape{3, 2});
  EXPECT_NE(DigestToHex(HashTensor(a)), DigestToHex(HashTensor(b)));
}

TEST(CanonicalTest, TensorListOrderMatters) {
  const Tensor a = Tensor::Full(Shape{2}, 1.0f);
  const Tensor b = Tensor::Full(Shape{2}, 2.0f);
  EXPECT_NE(DigestToHex(HashTensorList({a, b})), DigestToHex(HashTensorList({b, a})));
}

std::vector<Digest> MakeLeaves(size_t n, uint64_t seed = 99) {
  Rng rng(seed);
  std::vector<Digest> leaves;
  leaves.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string s = "leaf-" + std::to_string(rng.NextU64());
    leaves.push_back(Sha256::Hash(s));
  }
  return leaves;
}

TEST(MerkleTest, SingleLeafRootIsLeaf) {
  const auto leaves = MakeLeaves(1);
  const MerkleTree tree(leaves);
  EXPECT_EQ(tree.root(), leaves[0]);
}

TEST(MerkleTest, InclusionProofsVerifyForAllLeaves) {
  for (const size_t n : {1u, 2u, 3u, 4u, 7u, 8u, 33u, 100u}) {
    const auto leaves = MakeLeaves(n, n);
    const MerkleTree tree(leaves);
    for (size_t i = 0; i < n; ++i) {
      const MerkleProof proof = tree.ProveInclusion(i);
      EXPECT_TRUE(MerkleTree::VerifyInclusion(tree.root(), leaves[i], proof))
          << "n=" << n << " leaf=" << i;
    }
  }
}

TEST(MerkleTest, WrongLeafFailsVerification) {
  const auto leaves = MakeLeaves(8);
  const MerkleTree tree(leaves);
  const MerkleProof proof = tree.ProveInclusion(3);
  EXPECT_FALSE(MerkleTree::VerifyInclusion(tree.root(), leaves[4], proof));
}

TEST(MerkleTest, TamperedProofFailsVerification) {
  const auto leaves = MakeLeaves(16);
  const MerkleTree tree(leaves);
  MerkleProof proof = tree.ProveInclusion(5);
  proof.path[1].sibling[0] ^= 0x01;
  EXPECT_FALSE(MerkleTree::VerifyInclusion(tree.root(), leaves[5], proof));
}

TEST(MerkleTest, RootChangesWhenAnyLeafChanges) {
  auto leaves = MakeLeaves(10);
  const MerkleTree before(leaves);
  leaves[7][0] ^= 0xff;
  const MerkleTree after(leaves);
  EXPECT_NE(DigestToHex(before.root()), DigestToHex(after.root()));
}

TEST(MerkleTest, ProofDepthIsLogarithmic) {
  const auto leaves = MakeLeaves(64);
  const MerkleTree tree(leaves);
  EXPECT_EQ(tree.ProveInclusion(0).path.size(), 6u);
}

class MerkleParamTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MerkleParamTest, AllProofsRoundTrip) {
  const size_t n = GetParam();
  const auto leaves = MakeLeaves(n, 1000 + n);
  const MerkleTree tree(leaves);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(MerkleTree::VerifyInclusion(tree.root(), leaves[i], tree.ProveInclusion(i)));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleParamTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace tao
