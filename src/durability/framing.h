// Byte-level framing of the write-ahead changelog and snapshot files.
//
// A changelog record is framed as
//
//     u32 length | u32 length_check (= length ^ kLengthCheckXor) | u32 crc32(payload)
//     | payload bytes
//
// all little-endian. The redundant length_check is what lets recovery distinguish a
// TORN tail (a crash mid-append leaves a byte-prefix of the intended frame, so a
// complete 12-byte header is always an intact header) from CORRUPTION (bit rot
// flips header or payload bytes in place): a torn write can shorten a frame but can
// never produce a full header whose length_check disagrees, so any such disagreement
// — like any CRC mismatch on a fully-present payload — is reported as a typed error
// instead of being silently truncated away. See docs/durability.md.

#ifndef TAO_SRC_DURABILITY_FRAMING_H_
#define TAO_SRC_DURABILITY_FRAMING_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/durability/options.h"

namespace tao {

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), computed slice-by-8: eight
// table lookups per eight bytes, the same values as the bytewise table algorithm.
uint32_t Crc32(std::span<const uint8_t> data);

inline constexpr uint32_t kLengthCheckXor = 0x5A17C0DEu;
inline constexpr size_t kFrameHeaderBytes = 12;
// Sanity ceiling on one record's payload; a frame claiming more is corrupt.
inline constexpr uint32_t kMaxRecordPayloadBytes = 16u << 20;

// Appends one framed record to `out`.
void AppendFrame(std::vector<uint8_t>& out, std::span<const uint8_t> payload);

// Outcome of decoding the frame at `data[offset...]`.
enum class FrameStatus {
  kOk,       // record decoded; offset advanced past it
  kTorn,     // the data ends mid-frame (byte-prefix of a frame): truncate here
  kCorrupt,  // full header/payload present but inconsistent: typed error
  kEnd,      // offset is exactly at the end: clean EOF
};

// Decodes one frame. On kOk, `payload` is set to the record's payload bytes
// (a view into `data`) and `offset` advances past the frame; on any other status
// `offset` is left at the frame start. Never reads out of bounds.
FrameStatus DecodeFrame(std::span<const uint8_t> data, size_t& offset,
                        std::span<const uint8_t>& payload);

// Little-endian primitive appends (the changelog's canonical scalar encoding; the
// tensor-level equivalents live in src/crypto/canonical.h).
void AppendU32Le(std::vector<uint8_t>& out, uint32_t value);
void AppendU64Le(std::vector<uint8_t>& out, uint64_t value);
void AppendI64Le(std::vector<uint8_t>& out, int64_t value);
// Doubles are persisted as their IEEE-754 bit pattern so restore is bitwise.
void AppendF64Le(std::vector<uint8_t>& out, double value);

// Bounds-checked little-endian reader. Every Read* returns false (leaving `value`
// untouched) instead of reading past the end — the decode fuzz tests drive this
// with arbitrary bytes, so out-of-bounds reads must be impossible by construction.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  bool ReadU32(uint32_t& value);
  bool ReadU64(uint64_t& value);
  bool ReadI64(int64_t& value);
  bool ReadF64(double& value);
  bool ReadBytes(std::span<uint8_t> out);

  size_t remaining() const { return data_.size() - offset_; }
  bool exhausted() const { return offset_ == data_.size(); }

 private:
  std::span<const uint8_t> data_;
  size_t offset_ = 0;
};

// Common header of the per-shard durability files. `kind` distinguishes the
// changelog ("TAOWAL01") from snapshots ("TAOSNAP1"); the shard layout and model id
// are validated at recovery so a file can never be replayed into the wrong state
// machine. `base_record` is the index of the file's first record (changelog) or the
// number of records the snapshot covers.
struct FileHeader {
  uint64_t shard = 0;
  uint64_t num_shards = 0;
  uint64_t model_id = 0;
  uint64_t base_record = 0;
};

inline constexpr size_t kFileHeaderBytes = 8 + 4 + 4 * 8 + 4;  // magic+ver+fields+crc

void AppendFileHeader(std::vector<uint8_t>& out, const char magic[8],
                      const FileHeader& header);

// Validates magic/version/CRC and decodes the fields. Returns kBadHeader on an
// unrecognized or corrupt header, kOk otherwise. A `data` shorter than a full
// header returns kTornHeader via `torn` (the caller decides whether that is a
// fresh/torn file to truncate or an error).
RecoveryCode DecodeFileHeader(std::span<const uint8_t> data, const char magic[8],
                              FileHeader& header, bool& torn);

}  // namespace tao

#endif  // TAO_SRC_DURABILITY_FRAMING_H_
