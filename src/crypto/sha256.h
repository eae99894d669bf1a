// SHA-256 (FIPS 180-4), implemented from scratch.
//
// The TAO protocol hashes weight tensors, operator signatures, tensor interfaces, and
// commitment tuples with SHA-256 (Sec. 2.2, Sec. 5.2). A streaming context is exposed
// so large tensors can be hashed without copying: Update compresses whole 64-byte
// blocks straight from the caller's bytes and buffers only a trailing partial block.
//
// Compression dispatches like the kernel backend (src/device/simd.h): on x86-64 CPUs
// with the SHA extensions it runs a SHA-NI kernel while ActiveSimdBackend() is kAvx2,
// and the portable scalar rounds otherwise (TAO_DISABLE_SIMD=1, a forced kScalar
// backend, other CPUs). Both compute the same function, so digests never depend on
// the host.

#ifndef TAO_SRC_CRYPTO_SHA256_H_
#define TAO_SRC_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace tao {

using Digest = std::array<uint8_t, 32>;

class Sha256 {
 public:
  Sha256();

  void Update(std::span<const uint8_t> data);
  void Update(const std::string& data);
  // Finalizes and returns the digest. The context must not be reused afterwards.
  Digest Finalize();

  static Digest Hash(std::span<const uint8_t> data);
  static Digest Hash(const std::string& data);

  // True when compression currently runs the SHA-NI kernel rather than the scalar
  // rounds (tests and benches use it to label and check both paths).
  static bool UsesShaNi();

 private:
  std::array<uint32_t, 8> state_;
  std::array<uint8_t, 64> buffer_;
  uint64_t bit_length_ = 0;
  size_t buffer_size_ = 0;
  bool finalized_ = false;
};

// Lowercase hex encoding of a digest.
std::string DigestToHex(const Digest& digest);

// Concatenate-and-hash of two digests; the Merkle internal-node combiner.
Digest HashPair(const Digest& left, const Digest& right);

}  // namespace tao

#endif  // TAO_SRC_CRYPTO_SHA256_H_
