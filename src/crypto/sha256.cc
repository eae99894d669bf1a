#include "src/crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "src/device/simd.h"
#include "src/util/check.h"

// The SHA-NI kernel is compiled behind a target attribute so the translation unit
// builds on any host; it is only called after __builtin_cpu_supports("sha") says the
// instructions exist. Other targets compile the scalar rounds only.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TAO_SHA_X86 1
#include <immintrin.h>
#else
#define TAO_SHA_X86 0
#endif

namespace tao {
namespace {

constexpr size_t kBlockBytes = 64;

alignas(16) constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
};

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// The FIPS 180-4 rounds, one block at a time: the reference and the fallback.
void CompressScalar(uint32_t* state, const uint8_t* blocks, size_t count) {
  for (; count > 0; --count, blocks += kBlockBytes) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if TAO_SHA_X86

// The same rounds on the SHA extensions. The state lives in two registers as
// (A, B, E, F) and (C, D, G, H); each sha256rnds2 performs two rounds, and
// sha256msg1/msg2 extend the message schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void CompressShaNi(uint32_t* state,
                                                          const uint8_t* blocks,
                                                          size_t count) {
  // Byte-reverses each 32-bit word: message words are big-endian.
  const __m128i kByteSwap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; count > 0; --count, blocks += kBlockBytes) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // msg[j % 4] holds schedule words w[4j .. 4j + 3], lowest word first.
    __m128i msg[4];
    for (int j = 0; j < 4; ++j) {
      msg[j] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * j)), kByteSwap);
    }
#pragma GCC unroll 16
    for (int j = 0; j < 16; ++j) {
      __m128i wk = _mm_add_epi32(
          msg[j % 4], _mm_load_si128(reinterpret_cast<const __m128i*>(kRoundConstants + 4 * j)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (j < 12) {
        // w[4j + 16 ..] = w[t - 16] + s0(w[t - 15]) + w[t - 7] + s1(w[t - 2]).
        const __m128i partial = _mm_add_epi32(
            _mm_sha256msg1_epu32(msg[j % 4], msg[(j + 1) % 4]),
            _mm_alignr_epi8(msg[(j + 3) % 4], msg[(j + 2) % 4], 4));
        msg[j % 4] = _mm_sha256msg2_epu32(partial, msg[(j + 3) % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // TAO_SHA_X86

bool CpuHasSha() {
#if TAO_SHA_X86
  return __builtin_cpu_supports("sha");
#else
  return false;
#endif
}

bool ShaNiActive() {
  static const bool has_sha = CpuHasSha();
  return has_sha && ActiveSimdBackend() == SimdBackend::kAvx2;
}

// Compresses `count` consecutive 64-byte blocks into `state`.
void Compress(uint32_t* state, const uint8_t* blocks, size_t count) {
#if TAO_SHA_X86
  if (ShaNiActive()) {
    CompressShaNi(state, blocks, count);
    return;
  }
#endif
  CompressScalar(state, blocks, count);
}

}  // namespace

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

bool Sha256::UsesShaNi() { return ShaNiActive(); }

void Sha256::Update(std::span<const uint8_t> data) {
  TAO_CHECK(!finalized_);
  if (data.empty()) {
    return;  // an empty span may carry a null data()
  }
  bit_length_ += static_cast<uint64_t>(data.size()) * 8;
  const uint8_t* bytes = data.data();
  size_t size = data.size();
  if (buffer_size_ > 0) {
    const size_t take = std::min(size, kBlockBytes - buffer_size_);
    std::memcpy(buffer_.data() + buffer_size_, bytes, take);
    buffer_size_ += take;
    bytes += take;
    size -= take;
    if (buffer_size_ < kBlockBytes) {
      return;
    }
    Compress(state_.data(), buffer_.data(), 1);
    buffer_size_ = 0;
  }
  const size_t blocks = size / kBlockBytes;
  Compress(state_.data(), bytes, blocks);
  buffer_size_ = size - blocks * kBlockBytes;
  std::memcpy(buffer_.data(), bytes + blocks * kBlockBytes, buffer_size_);
}

void Sha256::Update(const std::string& data) {
  Update(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(data.data()), data.size()));
}

Digest Sha256::Finalize() {
  TAO_CHECK(!finalized_);
  finalized_ = true;
  // Append 0x80, pad with zeros, then the 64-bit big-endian bit length.
  buffer_[buffer_size_++] = 0x80;
  if (buffer_size_ > 56) {
    std::memset(buffer_.data() + buffer_size_, 0, buffer_.size() - buffer_size_);
    Compress(state_.data(), buffer_.data(), 1);
    buffer_size_ = 0;
  }
  std::memset(buffer_.data() + buffer_size_, 0, 56 - buffer_size_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_length_ >> (56 - 8 * i));
  }
  Compress(state_.data(), buffer_.data(), 1);

  Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest[4 * i + 0] = static_cast<uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

Digest Sha256::Hash(std::span<const uint8_t> data) {
  Sha256 ctx;
  ctx.Update(data);
  return ctx.Finalize();
}

Digest Sha256::Hash(const std::string& data) {
  Sha256 ctx;
  ctx.Update(data);
  return ctx.Finalize();
}

std::string DigestToHex(const Digest& digest) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (const uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

Digest HashPair(const Digest& left, const Digest& right) {
  Sha256 ctx;
  ctx.Update(std::span<const uint8_t>(left.data(), left.size()));
  ctx.Update(std::span<const uint8_t>(right.data(), right.size()));
  return ctx.Finalize();
}

}  // namespace tao
