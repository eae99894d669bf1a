// Canonical serialization ("canon(·)" in the paper) and hashing of tensors and
// operator signatures. Canonical bytes encode dtype tag, rank, dims, and raw
// little-endian element bytes so that two bitwise-identical tensors hash equal and any
// value/shape/dtype change breaks the digest (Sec. 5.2).
//
// The layout, little-endian throughout:
//
//     header:   u32 dtype tag (0 = f32) | u32 rank | u64 dim, rank times
//     elements: numel FP32 bit patterns, in storage order
//
// On the little-endian targets this repository builds for, the element bytes are the
// tensor's own storage, so hashing and encoding move them in bulk without a copy.

#ifndef TAO_SRC_CRYPTO_CANONICAL_H_
#define TAO_SRC_CRYPTO_CANONICAL_H_

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/tensor/tensor.h"

namespace tao {

static_assert(std::endian::native == std::endian::little,
              "canonical element bytes are the FP32 storage; a big-endian target needs "
              "a byte swap when hashing, encoding and decoding them");
static_assert(sizeof(float) == 4 && std::numeric_limits<float>::is_iec559,
              "canonical elements are IEEE-754 binary32");

// Canonical byte encoding of a tensor.
std::vector<uint8_t> CanonicalBytes(const Tensor& tensor);

// Appends CanonicalBytes(tensor) to `out`.
void AppendCanonicalBytes(std::vector<uint8_t>& out, const Tensor& tensor);

// SHA-256 of CanonicalBytes(tensor), streamed from the tensor's storage.
Digest HashTensor(const Tensor& tensor);

// Hash of an ordered list of tensors: H(H(t0) || H(t1) || ...). Used for the interface
// commitments h_In / h_Out of a subgraph.
Digest HashTensorList(const std::vector<Tensor>& tensors);

// Hash a canonical operator signature string sigma(n).
Digest HashSignature(const std::string& signature);

// Appends primitive values to a byte buffer in little-endian order.
void AppendU32(std::vector<uint8_t>& buffer, uint32_t value);
void AppendU64(std::vector<uint8_t>& buffer, uint64_t value);

}  // namespace tao

#endif  // TAO_SRC_CRYPTO_CANONICAL_H_
