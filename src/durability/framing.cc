#include "src/durability/framing.h"

#include <array>
#include <cstring>

namespace tao {
namespace {

// Slice-by-8 tables for the reflected polynomial 0xEDB88320: kCrcTables[0] is the
// classic bytewise table, and kCrcTables[k][b] is the CRC register after byte b is
// followed by k zero bytes, so eight table lookups advance the CRC by eight bytes.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

uint32_t LoadU32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

uint32_t ReadU32At(std::span<const uint8_t> data, size_t offset) {
  return LoadU32Le(data.data() + offset);
}

}  // namespace

uint32_t Crc32(std::span<const uint8_t> data) {
  const CrcTables& t = kCrcTables;
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadU32Le(p) ^ crc;
    const uint32_t hi = LoadU32Le(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

void AppendU32Le(std::vector<uint8_t>& out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

void AppendU64Le(std::vector<uint8_t>& out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

void AppendI64Le(std::vector<uint8_t>& out, int64_t value) {
  AppendU64Le(out, static_cast<uint64_t>(value));
}

void AppendF64Le(std::vector<uint8_t>& out, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  AppendU64Le(out, bits);
}

bool ByteReader::ReadU32(uint32_t& value) {
  if (remaining() < 4) {
    return false;
  }
  value = ReadU32At(data_, offset_);
  offset_ += 4;
  return true;
}

bool ByteReader::ReadU64(uint64_t& value) {
  if (remaining() < 8) {
    return false;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[offset_ + static_cast<size_t>(i)]) << (8 * i);
  }
  value = v;
  offset_ += 8;
  return true;
}

bool ByteReader::ReadI64(int64_t& value) {
  uint64_t bits;
  if (!ReadU64(bits)) {
    return false;
  }
  value = static_cast<int64_t>(bits);
  return true;
}

bool ByteReader::ReadF64(double& value) {
  uint64_t bits;
  if (!ReadU64(bits)) {
    return false;
  }
  std::memcpy(&value, &bits, sizeof(value));
  return true;
}

bool ByteReader::ReadBytes(std::span<uint8_t> out) {
  if (remaining() < out.size()) {
    return false;
  }
  if (out.empty()) {
    return true;  // an empty span may carry a null data()
  }
  std::memcpy(out.data(), data_.data() + offset_, out.size());
  offset_ += out.size();
  return true;
}

void AppendFrame(std::vector<uint8_t>& out, std::span<const uint8_t> payload) {
  const auto length = static_cast<uint32_t>(payload.size());
  AppendU32Le(out, length);
  AppendU32Le(out, length ^ kLengthCheckXor);
  AppendU32Le(out, Crc32(payload));
  out.insert(out.end(), payload.begin(), payload.end());
}

FrameStatus DecodeFrame(std::span<const uint8_t> data, size_t& offset,
                        std::span<const uint8_t>& payload) {
  if (offset == data.size()) {
    return FrameStatus::kEnd;
  }
  if (data.size() - offset < kFrameHeaderBytes) {
    return FrameStatus::kTorn;  // partial header: byte-prefix of an append
  }
  const uint32_t length = ReadU32At(data, offset);
  const uint32_t length_check = ReadU32At(data, offset + 4);
  if ((length ^ kLengthCheckXor) != length_check || length > kMaxRecordPayloadBytes) {
    // A torn append preserves the byte-prefix of the frame, so a complete header
    // with an inconsistent length can only come from in-place corruption.
    return FrameStatus::kCorrupt;
  }
  if (data.size() - offset - kFrameHeaderBytes < length) {
    return FrameStatus::kTorn;  // payload cut short at EOF
  }
  const uint32_t crc = ReadU32At(data, offset + 8);
  const std::span<const uint8_t> body = data.subspan(offset + kFrameHeaderBytes, length);
  if (Crc32(body) != crc) {
    return FrameStatus::kCorrupt;
  }
  payload = body;
  offset += kFrameHeaderBytes + length;
  return FrameStatus::kOk;
}

void AppendFileHeader(std::vector<uint8_t>& out, const char magic[8],
                      const FileHeader& header) {
  const size_t start = out.size();
  out.insert(out.end(), magic, magic + 8);
  AppendU32Le(out, 1);  // version
  AppendU64Le(out, header.shard);
  AppendU64Le(out, header.num_shards);
  AppendU64Le(out, header.model_id);
  AppendU64Le(out, header.base_record);
  const std::span<const uint8_t> covered(out.data() + start + 8,
                                         kFileHeaderBytes - 8 - 4);
  AppendU32Le(out, Crc32(covered));
}

RecoveryCode DecodeFileHeader(std::span<const uint8_t> data, const char magic[8],
                              FileHeader& header, bool& torn) {
  torn = false;
  if (data.size() < kFileHeaderBytes) {
    torn = true;
    return RecoveryCode::kOk;
  }
  if (std::memcmp(data.data(), magic, 8) != 0) {
    return RecoveryCode::kBadHeader;
  }
  const std::span<const uint8_t> covered(data.data() + 8, kFileHeaderBytes - 8 - 4);
  if (Crc32(covered) != ReadU32At(data, kFileHeaderBytes - 4)) {
    return RecoveryCode::kBadHeader;
  }
  ByteReader reader(data.subspan(8));
  uint32_t version = 0;
  reader.ReadU32(version);
  if (version != 1) {
    return RecoveryCode::kBadHeader;
  }
  reader.ReadU64(header.shard);
  reader.ReadU64(header.num_shards);
  reader.ReadU64(header.model_id);
  reader.ReadU64(header.base_record);
  return RecoveryCode::kOk;
}

}  // namespace tao
