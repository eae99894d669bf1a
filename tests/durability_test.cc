// Durability suite (ISSUE 7): the write-ahead changelog, shard snapshots, and
// crash/corruption recovery of src/durability/.
//
// Layers, bottom up:
//
//   * Framing units: record round trips, the torn-vs-corrupt distinction (a torn
//     tail truncates; a full-but-inconsistent frame is a typed error), file headers.
//   * Codec units: every CoordinatorAction kind and the shard snapshot re-encode
//     canonically; short/overlong/non-canonical payloads are rejected.
//   * Decode fuzz (seed-parameterized, fuzz_graph_test.cc's pattern): mutated and
//     random payloads never crash, never read out of bounds, and are either
//     rejected or decode to a value that re-encodes to the exact accepted bytes —
//     "accept but differ" is impossible by construction.
//   * Crash injection on scripted state-machine workloads: the writer dies at each
//     CrashPoint; recovery must land on a bitwise-exact PREFIX of the scripted run
//     (snapshot + tail + torn-tail truncation), and continuing the script from that
//     prefix reconverges bitwise with the uninterrupted reference.
//   * Corruption: truncated tails recover; bit flips, bad magic, shard/model
//     mismatches, log gaps, and corrupt committed snapshots fail loudly with typed
//     RecoveryStatus codes; stale snapshot tmps are deleted, never loaded.
//   * Service integration: the live VerificationService pipeline over durable
//     coordinators for shards {1,4} x workers {1,4} — durable == in-memory bitwise,
//     recovery == original bitwise, and mid-run writer crashes recover to a prefix
//     of each lane's reconstructed action stream.

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/calib/calibrator.h"
#include "src/durability/changelog.h"
#include "src/durability/coordinator_log.h"
#include "src/durability/framing.h"
#include "src/durability/options.h"
#include "src/service/verification_service.h"
#include "src/util/rng.h"
#include "tests/replay_harness.h"
#include "tests/test_claims.h"

namespace tao {
namespace {

using Kind = CoordinatorAction::Kind;

// ------------------------------- shared helpers --------------------------------------

// Fresh per-test directory under the system temp root. The pid keeps two test
// processes on one host (e.g. a Release and a sanitizer build) out of each other's
// changelogs; the up-front removal means a re-run never sees a previous run's files.
std::string MakeTestDir(const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("tao_durability_" + std::to_string(::getpid()) + "_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!bytes.empty()) {
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  ASSERT_TRUE(out.good()) << path;
}

Digest TestDigest(uint64_t tag) {
  return Sha256::Hash("durability-claim-" + std::to_string(tag));
}

// --------------------------------- framing units -------------------------------------

// CRC-32 one bit at a time, straight from the reflected polynomial: the reference
// the slice-by-8 tables must reproduce.
uint32_t Crc32Bitwise(std::span<const uint8_t> data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (const uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, StandardCheckValueAndEmptyInput) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32({reinterpret_cast<const uint8_t*>(check.data()), check.size()}),
            0xCBF43926u);
  EXPECT_EQ(Crc32(std::span<const uint8_t>()), 0u);  // empty, null data()
}

TEST(Crc32Test, SliceBy8MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(0xc4c32);
  std::vector<uint8_t> bytes(8 + 300);
  for (uint8_t& byte : bytes) {
    byte = static_cast<uint8_t>(rng.NextU64());
  }
  for (size_t start = 0; start < 8; ++start) {
    for (size_t length = 0; length <= 300; ++length) {
      const std::span<const uint8_t> data(bytes.data() + start, length);
      ASSERT_EQ(Crc32(data), Crc32Bitwise(data)) << "start " << start << " length " << length;
    }
  }
}

TEST(FramingTest, FrameRoundTripsAndStreams) {
  std::vector<uint8_t> buffer;
  const std::vector<std::vector<uint8_t>> payloads = {
      {}, {0x42}, {1, 2, 3, 4, 5}, std::vector<uint8_t>(300, 0xAB)};
  for (const auto& payload : payloads) {
    AppendFrame(buffer, payload);
  }
  size_t offset = 0;
  for (const auto& want : payloads) {
    std::span<const uint8_t> got;
    ASSERT_EQ(DecodeFrame(buffer, offset, got), FrameStatus::kOk);
    EXPECT_EQ(std::vector<uint8_t>(got.begin(), got.end()), want);
  }
  std::span<const uint8_t> rest;
  EXPECT_EQ(DecodeFrame(buffer, offset, rest), FrameStatus::kEnd);
  EXPECT_EQ(offset, buffer.size());
}

TEST(FramingTest, EveryProperPrefixOfAFrameIsTornNotCorrupt) {
  std::vector<uint8_t> buffer;
  AppendFrame(buffer, std::vector<uint8_t>{10, 20, 30, 40});
  // A crash mid-append leaves a byte-prefix: every strict prefix must classify as
  // torn (truncate and continue), never as corruption.
  for (size_t keep = 0; keep < buffer.size(); ++keep) {
    const std::span<const uint8_t> cut(buffer.data(), keep);
    size_t offset = 0;
    std::span<const uint8_t> payload;
    const FrameStatus status = DecodeFrame(cut, offset, payload);
    if (keep == 0) {
      EXPECT_EQ(status, FrameStatus::kEnd) << "keep=" << keep;
    } else {
      EXPECT_EQ(status, FrameStatus::kTorn) << "keep=" << keep;
    }
    EXPECT_EQ(offset, 0u) << "keep=" << keep;
  }
}

TEST(FramingTest, HeaderAndPayloadBitFlipsAreCorrupt) {
  std::vector<uint8_t> frame;
  AppendFrame(frame, std::vector<uint8_t>{10, 20, 30, 40});
  for (const size_t at : {size_t{0}, size_t{4}, size_t{8}, kFrameHeaderBytes + 1}) {
    std::vector<uint8_t> flipped = frame;
    flipped[at] ^= 0x01;
    size_t offset = 0;
    std::span<const uint8_t> payload;
    EXPECT_EQ(DecodeFrame(flipped, offset, payload), FrameStatus::kCorrupt)
        << "flip at byte " << at;
    EXPECT_EQ(offset, 0u);
  }
  // An absurd claimed length (with a matching length_check, so the redundancy
  // cannot save us) is still rejected by the payload ceiling.
  std::vector<uint8_t> huge;
  AppendU32Le(huge, kMaxRecordPayloadBytes + 1);
  AppendU32Le(huge, (kMaxRecordPayloadBytes + 1) ^ kLengthCheckXor);
  AppendU32Le(huge, 0);
  size_t offset = 0;
  std::span<const uint8_t> payload;
  EXPECT_EQ(DecodeFrame(huge, offset, payload), FrameStatus::kCorrupt);
}

TEST(FramingTest, FileHeaderRoundTripAndValidation) {
  FileHeader header;
  header.shard = 3;
  header.num_shards = 8;
  header.model_id = 42;
  header.base_record = 1234;
  std::vector<uint8_t> bytes;
  AppendFileHeader(bytes, kChangelogMagic, header);
  ASSERT_EQ(bytes.size(), kFileHeaderBytes);

  FileHeader decoded;
  bool torn = false;
  EXPECT_EQ(DecodeFileHeader(bytes, kChangelogMagic, decoded, torn), RecoveryCode::kOk);
  EXPECT_FALSE(torn);
  EXPECT_EQ(decoded.shard, 3u);
  EXPECT_EQ(decoded.num_shards, 8u);
  EXPECT_EQ(decoded.model_id, 42u);
  EXPECT_EQ(decoded.base_record, 1234u);

  // Wrong magic (a snapshot file fed to the changelog reader) is a bad header.
  EXPECT_EQ(DecodeFileHeader(bytes, kSnapshotMagic, decoded, torn),
            RecoveryCode::kBadHeader);
  // Any single-byte flip breaks the header CRC (or the magic/version directly).
  for (size_t at = 0; at < bytes.size(); ++at) {
    std::vector<uint8_t> flipped = bytes;
    flipped[at] ^= 0x10;
    EXPECT_EQ(DecodeFileHeader(flipped, kChangelogMagic, decoded, torn),
              RecoveryCode::kBadHeader)
        << "flip at byte " << at;
  }
  // A short header is torn (fresh/interrupted file), not an error.
  const std::span<const uint8_t> cut(bytes.data(), kFileHeaderBytes - 1);
  EXPECT_EQ(DecodeFileHeader(cut, kChangelogMagic, decoded, torn), RecoveryCode::kOk);
  EXPECT_TRUE(torn);
}

// ---------------------------------- codec units --------------------------------------

// One sample of every action kind, fields chosen to exercise sign/width edges.
std::vector<CoordinatorAction> SampleActions() {
  std::vector<CoordinatorAction> actions;
  {
    CoordinatorAction a;
    a.kind = Kind::kSubmit;
    a.id = 7;
    a.c0 = TestDigest(7);
    a.challenge_window = 100;
    a.proposer_bond = 10.25;
    actions.push_back(a);
  }
  {
    CoordinatorAction a;
    a.kind = Kind::kTryFinalize;
    a.id = 7;
    actions.push_back(a);
  }
  {
    CoordinatorAction a;
    a.kind = Kind::kOpenChallenge;
    a.id = 1ull << 40;
    a.challenger_bond = -0.0;  // bitwise: -0.0 must survive, not become +0.0
    actions.push_back(a);
  }
  {
    CoordinatorAction a;
    a.kind = Kind::kPartition;
    a.id = 3;
    a.children = 4;
    actions.push_back(a);
  }
  {
    CoordinatorAction a;
    a.kind = Kind::kSelection;
    a.id = 3;
    a.selected_child = -1;
    actions.push_back(a);
  }
  {
    CoordinatorAction a;
    a.kind = Kind::kMerkleCheck;
    a.id = 3;
    a.proofs = 12;
    actions.push_back(a);
  }
  {
    CoordinatorAction a;
    a.kind = Kind::kTimeout;
    a.id = 3;
    a.proposer_timed_out = true;
    actions.push_back(a);
  }
  {
    CoordinatorAction a;
    a.kind = Kind::kLeafAdjudication;
    a.id = 3;
    a.proposer_guilty = true;
    a.challenger_share = 0.5;
    actions.push_back(a);
  }
  {
    CoordinatorAction a;
    a.kind = Kind::kChargeGas;
    a.id = 9;
    a.gas = -1234567;
    actions.push_back(a);
  }
  {
    CoordinatorAction a;
    a.kind = Kind::kAdvanceClock;
    a.ticks = 11;
    actions.push_back(a);
  }
  return actions;
}

TEST(ActionCodecTest, EveryKindRoundTripsCanonically) {
  for (const CoordinatorAction& action : SampleActions()) {
    const std::vector<uint8_t> bytes = EncodeAction(action);
    CoordinatorAction decoded;
    ASSERT_TRUE(DecodeAction(bytes, decoded))
        << "kind " << static_cast<uint32_t>(action.kind);
    // Canonical: the decode re-encodes to the identical byte string.
    EXPECT_EQ(EncodeAction(decoded), bytes)
        << "kind " << static_cast<uint32_t>(action.kind);
    EXPECT_EQ(decoded.kind, action.kind);
    EXPECT_EQ(decoded.id, action.id);
  }
  // -0.0 survives bitwise.
  CoordinatorAction open;
  open.kind = Kind::kOpenChallenge;
  open.challenger_bond = -0.0;
  CoordinatorAction decoded;
  ASSERT_TRUE(DecodeAction(EncodeAction(open), decoded));
  EXPECT_EQ(DoubleBits(decoded.challenger_bond), DoubleBits(-0.0));
}

TEST(ActionCodecTest, MalformedPayloadsAreRejected) {
  for (const CoordinatorAction& action : SampleActions()) {
    const std::vector<uint8_t> bytes = EncodeAction(action);
    // Every strict byte-prefix is too short for the kind's exact layout.
    for (size_t keep = 0; keep < bytes.size(); ++keep) {
      CoordinatorAction decoded;
      EXPECT_FALSE(DecodeAction(std::span(bytes.data(), keep), decoded))
          << "kind " << static_cast<uint32_t>(action.kind) << " keep=" << keep;
    }
    // Trailing garbage makes the payload overlong: rejected, not ignored.
    std::vector<uint8_t> extended = bytes;
    extended.push_back(0);
    CoordinatorAction decoded;
    EXPECT_FALSE(DecodeAction(extended, decoded));
  }
  // Unknown kind.
  std::vector<uint8_t> unknown;
  AppendU32Le(unknown, 999);
  CoordinatorAction decoded;
  EXPECT_FALSE(DecodeAction(unknown, decoded));
  // Non-canonical bool (2 is not a bool encoding).
  CoordinatorAction timeout;
  timeout.kind = Kind::kTimeout;
  timeout.id = 1;
  timeout.proposer_timed_out = true;
  std::vector<uint8_t> bytes = EncodeAction(timeout);
  bytes.back() = 2;
  EXPECT_FALSE(DecodeAction(bytes, decoded));
}

ShardSnapshotState SampleSnapshot() {
  ShardSnapshotState state;
  state.now = 123;
  state.submitted = 3;
  state.balances.proposer = -10.5;
  state.balances.challenger = 2.25;
  state.balances.treasury = 5.0;
  state.gas = 99999;
  for (uint64_t j = 0; j < 3; ++j) {
    ClaimRecord record;
    record.id = 1 + j * 4;
    record.model = 2;
    record.c0 = TestDigest(j);
    record.committed_at = 10 * j;
    record.challenge_window = 100;
    record.state = static_cast<ClaimState>(j % 5);
    record.proposer_bond = 10.0;
    record.challenger_bond = j == 0 ? -0.0 : 2.0;
    record.dispute_round = static_cast<int64_t>(j);
    record.round_deadline = 10 * j + 7;
    record.merkle_checks = 3 * static_cast<int64_t>(j);
    record.gas = 1000 + static_cast<int64_t>(j);
    state.claims.push_back(record);
  }
  return state;
}

TEST(SnapshotCodecTest, RoundTripsCanonically) {
  const ShardSnapshotState state = SampleSnapshot();
  const std::vector<uint8_t> bytes = EncodeShardSnapshot(state);
  ShardSnapshotState decoded;
  ASSERT_TRUE(DecodeShardSnapshot(bytes, decoded));
  EXPECT_EQ(EncodeShardSnapshot(decoded), bytes);
  EXPECT_EQ(decoded.now, state.now);
  EXPECT_EQ(decoded.submitted, state.submitted);
  EXPECT_EQ(DoubleBits(decoded.balances.proposer), DoubleBits(state.balances.proposer));
  ASSERT_EQ(decoded.claims.size(), state.claims.size());
  for (size_t j = 0; j < state.claims.size(); ++j) {
    ExpectClaimRecordsEqual(decoded.claims[j], state.claims[j],
                            "claim " + std::to_string(j));
  }
}

TEST(SnapshotCodecTest, MalformedPayloadsAreRejected) {
  const std::vector<uint8_t> bytes = EncodeShardSnapshot(SampleSnapshot());
  ShardSnapshotState decoded;
  for (const size_t keep : {size_t{0}, size_t{7}, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_FALSE(DecodeShardSnapshot(std::span(bytes.data(), keep), decoded))
        << "keep=" << keep;
  }
  std::vector<uint8_t> extended = bytes;
  extended.push_back(0);
  EXPECT_FALSE(DecodeShardSnapshot(extended, decoded));
  // Flip every byte and require that NO mutation is accepted-but-different (the
  // canonical re-encode catches any flip that still decodes — including claim
  // states pushed outside the enum range, which must be rejected outright).
  for (size_t at = 0; at < bytes.size(); ++at) {
    std::vector<uint8_t> flipped = bytes;
    flipped[at] ^= 0x80;
    ShardSnapshotState got;
    if (DecodeShardSnapshot(flipped, got)) {
      EXPECT_EQ(EncodeShardSnapshot(got), flipped) << "flip at byte " << at;
    }
  }
}

// ----------------------------------- decode fuzz -------------------------------------

class DurabilityFuzzTest : public ::testing::TestWithParam<uint64_t> {};

CoordinatorAction RandomAction(Rng& rng) {
  CoordinatorAction a;
  a.kind = static_cast<Kind>(1 + rng.NextBounded(10));
  a.id = rng.NextU64();
  for (auto& byte : a.c0) {
    byte = static_cast<uint8_t>(rng.NextU64());
  }
  a.challenge_window = rng.NextU64();
  // Raw bit patterns (including NaNs/infinities): the codec must carry any of them.
  a.proposer_bond = std::bit_cast<double>(rng.NextU64());
  a.challenger_bond = std::bit_cast<double>(rng.NextU64());
  a.children = static_cast<int64_t>(rng.NextU64());
  a.selected_child = static_cast<int64_t>(rng.NextU64());
  a.proofs = static_cast<int64_t>(rng.NextU64());
  a.proposer_timed_out = rng.NextBounded(2) == 1;
  a.proposer_guilty = rng.NextBounded(2) == 1;
  a.challenger_share = std::bit_cast<double>(rng.NextU64());
  a.gas = static_cast<int64_t>(rng.NextU64());
  a.ticks = rng.NextU64();
  return a;
}

// Core fuzz property for any canonical codec: for EVERY input — valid, mutated, or
// random soup — decode never crashes or reads out of bounds, and when it accepts,
// re-encoding reproduces the input bytes exactly. "Accept but decode differently"
// is therefore impossible: two distinct byte strings cannot decode to one value.
TEST_P(DurabilityFuzzTest, ActionDecodeIsTotalAndCanonical) {
  Rng rng(GetParam());
  for (int iteration = 0; iteration < 200; ++iteration) {
    const std::vector<uint8_t> bytes = EncodeAction(RandomAction(rng));
    CoordinatorAction decoded;
    ASSERT_TRUE(DecodeAction(bytes, decoded));
    ASSERT_EQ(EncodeAction(decoded), bytes);

    // Mutations of a valid encoding: flip a byte, truncate, or extend.
    std::vector<uint8_t> mutated = bytes;
    const uint64_t mode = rng.NextBounded(3);
    if (mode == 0 && !mutated.empty()) {
      mutated[rng.NextBounded(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBounded(8));
    } else if (mode == 1) {
      mutated.resize(rng.NextBounded(mutated.size() + 1));
    } else {
      mutated.push_back(static_cast<uint8_t>(rng.NextU64()));
    }
    CoordinatorAction from_mutated;
    if (DecodeAction(mutated, from_mutated)) {
      EXPECT_EQ(EncodeAction(from_mutated), mutated);
    }

    // Random soup of arbitrary length.
    std::vector<uint8_t> soup(rng.NextBounded(96));
    for (auto& byte : soup) {
      byte = static_cast<uint8_t>(rng.NextU64());
    }
    CoordinatorAction from_soup;
    if (DecodeAction(soup, from_soup)) {
      EXPECT_EQ(EncodeAction(from_soup), soup);
    }
  }
}

TEST_P(DurabilityFuzzTest, SnapshotDecodeIsTotalAndCanonical) {
  Rng rng(GetParam());
  for (int iteration = 0; iteration < 50; ++iteration) {
    ShardSnapshotState state;
    state.now = rng.NextU64();
    state.submitted = rng.NextU64();
    state.balances.proposer = std::bit_cast<double>(rng.NextU64());
    state.balances.challenger = std::bit_cast<double>(rng.NextU64());
    state.balances.treasury = std::bit_cast<double>(rng.NextU64());
    state.gas = static_cast<int64_t>(rng.NextU64());
    const uint64_t claims = rng.NextBounded(5);
    for (uint64_t j = 0; j < claims; ++j) {
      ClaimRecord record;
      record.id = rng.NextU64();
      record.model = rng.NextU64();
      for (auto& byte : record.c0) {
        byte = static_cast<uint8_t>(rng.NextU64());
      }
      record.committed_at = rng.NextU64();
      record.challenge_window = rng.NextU64();
      record.state = static_cast<ClaimState>(rng.NextBounded(5));
      record.proposer_bond = std::bit_cast<double>(rng.NextU64());
      record.challenger_bond = std::bit_cast<double>(rng.NextU64());
      record.dispute_round = static_cast<int64_t>(rng.NextU64());
      record.round_deadline = rng.NextU64();
      record.merkle_checks = static_cast<int64_t>(rng.NextU64());
      record.gas = static_cast<int64_t>(rng.NextU64());
      state.claims.push_back(record);
    }
    const std::vector<uint8_t> bytes = EncodeShardSnapshot(state);
    ShardSnapshotState decoded;
    ASSERT_TRUE(DecodeShardSnapshot(bytes, decoded));
    ASSERT_EQ(EncodeShardSnapshot(decoded), bytes);

    std::vector<uint8_t> mutated = bytes;
    const uint64_t mode = rng.NextBounded(3);
    if (mode == 0 && !mutated.empty()) {
      mutated[rng.NextBounded(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBounded(8));
    } else if (mode == 1) {
      mutated.resize(rng.NextBounded(mutated.size() + 1));
    } else {
      mutated.push_back(static_cast<uint8_t>(rng.NextU64()));
    }
    ShardSnapshotState from_mutated;
    if (DecodeShardSnapshot(mutated, from_mutated)) {
      EXPECT_EQ(EncodeShardSnapshot(from_mutated), mutated);
    }
  }
}

TEST_P(DurabilityFuzzTest, FrameStreamDecodeIsTotal) {
  Rng rng(GetParam());
  for (int iteration = 0; iteration < 100; ++iteration) {
    std::vector<uint8_t> stream;
    const uint64_t frames = rng.NextBounded(4);
    for (uint64_t f = 0; f < frames; ++f) {
      std::vector<uint8_t> payload(rng.NextBounded(40));
      for (auto& byte : payload) {
        byte = static_cast<uint8_t>(rng.NextU64());
      }
      AppendFrame(stream, payload);
    }
    // Mutate: flip some bytes and/or truncate.
    for (uint64_t flips = rng.NextBounded(4); flips > 0 && !stream.empty(); --flips) {
      stream[rng.NextBounded(stream.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBounded(8));
    }
    if (rng.NextBounded(2) == 0) {
      stream.resize(rng.NextBounded(stream.size() + 1));
    }
    // Walk the stream to a terminal status: the offset must only ever advance, stay
    // in bounds, and the walk must terminate (kTorn/kCorrupt/kEnd all stop it).
    size_t offset = 0;
    for (;;) {
      const size_t before = offset;
      std::span<const uint8_t> payload;
      const FrameStatus status = DecodeFrame(stream, offset, payload);
      if (status != FrameStatus::kOk) {
        EXPECT_EQ(offset, before);
        break;
      }
      ASSERT_GT(offset, before);
      ASSERT_LE(offset, stream.size());
      EXPECT_EQ(payload.size(), offset - before - kFrameHeaderBytes);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DurabilityFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// -------------------------- scripted crash-injection sweep ---------------------------
//
// Deterministic per-shard workloads expressed directly as CoordinatorAction scripts:
// applying script[i] issues exactly one public mutation, which logs exactly one
// changelog record — so "the log is a prefix of the run" becomes "recovered state
// equals a fresh run of the script's first total_records actions".

std::vector<CoordinatorAction> BuildShardScript(size_t shard, size_t num_shards,
                                                size_t claims) {
  std::vector<CoordinatorAction> script;
  const DisputeOptions dispute;  // window 100, bonds 10/2, share 0.5
  for (size_t j = 0; j < claims; ++j) {
    const ClaimId id = 1 + shard + j * num_shards;
    CoordinatorAction submit;
    submit.kind = Kind::kSubmit;
    submit.id = id;
    submit.c0 = TestDigest(id);
    submit.challenge_window = dispute.challenge_window;
    submit.proposer_bond = dispute.proposer_bond;
    script.push_back(submit);

    CoordinatorAction base;
    base.id = id;
    switch ((shard + j) % 4) {
      case 0: {  // unchallenged finalization
        CoordinatorAction advance = base;
        advance.kind = Kind::kAdvanceClock;
        advance.ticks = dispute.challenge_window;
        script.push_back(advance);
        CoordinatorAction finalize = base;
        finalize.kind = Kind::kTryFinalize;
        script.push_back(finalize);
        break;
      }
      case 1: {  // two-round dispute, proposer guilty
        CoordinatorAction open = base;
        open.kind = Kind::kOpenChallenge;
        open.challenger_bond = dispute.challenger_bond;
        script.push_back(open);
        for (int round = 0; round < 2; ++round) {
          CoordinatorAction partition = base;
          partition.kind = Kind::kPartition;
          partition.children = 4;
          partition.c0 = TestDigest(id);  // filler child hashes (not state)
          script.push_back(partition);
          CoordinatorAction merkle = base;
          merkle.kind = Kind::kMerkleCheck;
          merkle.proofs = 3;
          script.push_back(merkle);
          CoordinatorAction selection = base;
          selection.kind = Kind::kSelection;
          selection.selected_child = round;
          script.push_back(selection);
          CoordinatorAction tick = base;
          tick.kind = Kind::kAdvanceClock;
          tick.ticks = 1;
          script.push_back(tick);
        }
        CoordinatorAction leaf = base;
        leaf.kind = Kind::kLeafAdjudication;
        leaf.proposer_guilty = true;
        leaf.challenger_share = dispute.challenger_share;
        script.push_back(leaf);
        break;
      }
      case 2: {  // dispute decided by deadline timeout (round_timeout = 10)
        CoordinatorAction open = base;
        open.kind = Kind::kOpenChallenge;
        open.challenger_bond = dispute.challenger_bond;
        script.push_back(open);
        CoordinatorAction partition = base;
        partition.kind = Kind::kPartition;
        partition.children = 2;
        partition.c0 = TestDigest(id);
        script.push_back(partition);
        CoordinatorAction merkle = base;
        merkle.kind = Kind::kMerkleCheck;
        merkle.proofs = 1;
        script.push_back(merkle);
        CoordinatorAction advance = base;
        advance.kind = Kind::kAdvanceClock;
        advance.ticks = 11;  // past the refreshed round deadline
        script.push_back(advance);
        CoordinatorAction timeout = base;
        timeout.kind = Kind::kTimeout;
        timeout.proposer_timed_out = (j % 2 == 0);
        script.push_back(timeout);
        break;
      }
      default: {  // gas charge + dispute resolved in the proposer's favor
        CoordinatorAction charge = base;
        charge.kind = Kind::kChargeGas;
        charge.gas = 77 + static_cast<int64_t>(j);
        script.push_back(charge);
        CoordinatorAction open = base;
        open.kind = Kind::kOpenChallenge;
        open.challenger_bond = dispute.challenger_bond + 0.5;
        script.push_back(open);
        CoordinatorAction leaf = base;
        leaf.kind = Kind::kLeafAdjudication;
        leaf.proposer_guilty = false;
        leaf.challenger_share = dispute.challenger_share;
        script.push_back(leaf);
        break;
      }
    }
  }
  return script;
}

std::vector<std::vector<CoordinatorAction>> BuildScripts(size_t num_shards,
                                                         size_t claims) {
  std::vector<std::vector<CoordinatorAction>> scripts;
  scripts.reserve(num_shards);
  for (size_t shard = 0; shard < num_shards; ++shard) {
    scripts.push_back(BuildShardScript(shard, num_shards, claims));
  }
  return scripts;
}

// Issues script actions [begin, end) as public Coordinator calls — the same calls
// whose logging produced (or would produce) those records.
void ApplyScriptActions(Coordinator& coordinator, size_t shard,
                        const std::vector<CoordinatorAction>& script, size_t begin,
                        size_t end) {
  for (size_t i = begin; i < end; ++i) {
    const CoordinatorAction& a = script[i];
    switch (a.kind) {
      case Kind::kSubmit:
        EXPECT_EQ(coordinator.SubmitCommitment(a.c0, a.challenge_window,
                                               a.proposer_bond, shard),
                  a.id);
        break;
      case Kind::kTryFinalize:
        EXPECT_EQ(coordinator.TryFinalize(a.id), ClaimState::kFinalized);
        break;
      case Kind::kOpenChallenge:
        coordinator.OpenChallenge(a.id, a.challenger_bond);
        break;
      case Kind::kPartition:
        coordinator.RecordPartition(
            a.id, a.children,
            std::vector<Digest>(static_cast<size_t>(a.children), a.c0));
        break;
      case Kind::kSelection:
        coordinator.RecordSelection(a.id, a.selected_child);
        break;
      case Kind::kMerkleCheck:
        coordinator.RecordMerkleCheck(a.id, a.proofs);
        break;
      case Kind::kTimeout:
        coordinator.RecordTimeout(a.id, a.proposer_timed_out);
        break;
      case Kind::kLeafAdjudication:
        coordinator.RecordLeafAdjudication(a.id, a.proposer_guilty, a.challenger_share);
        break;
      case Kind::kChargeGas:
        coordinator.ChargeClaimGas(a.id, a.gas);
        break;
      case Kind::kAdvanceClock:
        // Any id homed to this shard selects its clock (1 + shard always is).
        coordinator.AdvanceTimeFor(1 + shard, a.ticks);
        break;
    }
  }
}

void ApplyAllScripts(Coordinator& coordinator,
                     const std::vector<std::vector<CoordinatorAction>>& scripts) {
  for (size_t shard = 0; shard < scripts.size(); ++shard) {
    ApplyScriptActions(coordinator, shard, scripts[shard], 0, scripts[shard].size());
  }
}

constexpr size_t kScriptClaims = 6;

// The crash-injection core. Runs the scripted workload on a durable coordinator
// whose writer dies at the `occurrence`-th hit of `point`, recovers from disk, and
// asserts the two halves of the acceptance criterion:
//   1. PREFIX: the recovered coordinator is bitwise a fresh run of each shard's
//      first `total_records` script actions (whatever the crash left on disk).
//   2. RECONVERGENCE: continuing each shard's script from that prefix on the
//      recovered (still durable) coordinator lands bitwise on the uninterrupted
//      reference.
void RunCrashCase(CrashPoint point, int occurrence, size_t num_shards,
                  const std::string& tag) {
  const std::string label = "point=" + std::string(CrashPointName(point)) +
                            " occurrence=" + std::to_string(occurrence) +
                            " shards=" + std::to_string(num_shards);
  const std::string dir = MakeTestDir(tag);
  const auto scripts = BuildScripts(num_shards, kScriptClaims);

  Coordinator reference(GasSchedule{}, /*round_timeout=*/10, num_shards);
  ApplyAllScripts(reference, scripts);

  DurabilityOptions options;
  options.directory = dir;
  options.fsync = FsyncPolicy::kNever;  // injection targets the writer, not the disk
  options.snapshot_interval_records = 5;
  std::atomic<int> hits{0};
  std::atomic<bool> fired{false};
  options.crash_hook = [&hits, &fired, point, occurrence](CrashPoint at, size_t) {
    if (at != point || ++hits != occurrence) {
      return false;
    }
    fired = true;
    return true;
  };
  {
    Coordinator durable(GasSchedule{}, /*round_timeout=*/10, num_shards,
                        /*model_id=*/0, options);
    ApplyAllScripts(durable, scripts);
    durable.FlushDurability();  // barrier completes even with a dead writer
  }
  ASSERT_TRUE(fired.load()) << label << ": the crash point never triggered";

  DurabilityOptions recovery_options;
  recovery_options.directory = dir;
  recovery_options.fsync = FsyncPolicy::kNever;
  recovery_options.snapshot_interval_records = 5;
  {
    RecoveryStatus status;
    Coordinator recovered(GasSchedule{}, /*round_timeout=*/10, num_shards,
                          /*model_id=*/0, recovery_options, &status);
    ASSERT_TRUE(status.ok()) << label << ": " << status.message;
    const RecoveryInfo& info = recovered.recovery_info();
    ASSERT_TRUE(info.recovered) << label;
    ASSERT_EQ(info.shards.size(), num_shards) << label;

    Coordinator prefix(GasSchedule{}, /*round_timeout=*/10, num_shards);
    for (size_t shard = 0; shard < num_shards; ++shard) {
      const uint64_t kept = info.shards[shard].total_records;
      ASSERT_LE(kept, scripts[shard].size()) << label << " shard=" << shard;
      ApplyScriptActions(prefix, shard, scripts[shard], 0, static_cast<size_t>(kept));
    }
    ExpectCoordinatorsBitwiseEqual(recovered, prefix, label + " [prefix]");

    for (size_t shard = 0; shard < num_shards; ++shard) {
      const uint64_t kept = info.shards[shard].total_records;
      ApplyScriptActions(recovered, shard, scripts[shard], static_cast<size_t>(kept),
                         scripts[shard].size());
    }
    ExpectCoordinatorsBitwiseEqual(recovered, reference, label + " [reconverged]");
  }  // join the recovered writer before deleting its directory
  std::filesystem::remove_all(dir);
}

TEST(CrashInjectionTest, EveryCrashPointRecoversToAPrefixAndReconverges) {
  int case_index = 0;
  for (const CrashPoint point :
       {CrashPoint::kPreFlush, CrashPoint::kMidRecord, CrashPoint::kPostSnapshotTmp,
        CrashPoint::kPreRename}) {
    for (const int occurrence : {1, 2}) {
      for (const size_t shards : {size_t{1}, size_t{4}}) {
        RunCrashCase(point, occurrence, shards,
                     "crash_" + std::to_string(case_index++));
      }
    }
  }
}

TEST(CrashInjectionTest, LateMidRecordCrashKeepsEarlierRecords) {
  // A deep occurrence: most of the log survives, the torn record truncates.
  RunCrashCase(CrashPoint::kMidRecord, /*occurrence=*/40, /*num_shards=*/4,
               "crash_late");
}

// ------------------------- uninterrupted durable equivalence -------------------------

TEST(DurabilityTest, InMemoryModeIsZeroCostDefault) {
  Coordinator coordinator(GasSchedule{}, /*round_timeout=*/10, /*num_shards=*/2);
  EXPECT_FALSE(coordinator.durable());
  EXPECT_FALSE(coordinator.recovery_info().recovered);
  const DurabilityStats stats = coordinator.durability_stats();
  EXPECT_EQ(stats.records_appended, 0);
  EXPECT_EQ(stats.bytes_appended, 0);
  coordinator.FlushDurability();  // no-op, must not crash
}

TEST(DurabilityTest, UninterruptedDurableRunMatchesInMemoryUnderEveryFsyncPolicy) {
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    const auto scripts = BuildScripts(shards, kScriptClaims);
    Coordinator reference(GasSchedule{}, /*round_timeout=*/10, shards);
    ApplyAllScripts(reference, scripts);
    size_t total_actions = 0;
    for (const auto& script : scripts) {
      total_actions += script.size();
    }

    int policy_index = 0;
    for (const FsyncPolicy policy :
         {FsyncPolicy::kNever, FsyncPolicy::kGroupCommit, FsyncPolicy::kEveryFlush}) {
      const std::string label = "shards=" + std::to_string(shards) +
                                " fsync=" + FsyncPolicyName(policy);
      const std::string dir = MakeTestDir("uninterrupted_" + std::to_string(shards) +
                                          "_" + std::to_string(policy_index++));
      DurabilityOptions options;
      options.directory = dir;
      options.fsync = policy;
      options.group_commit_interval_ms = 1;
      options.snapshot_interval_records = 7;
      {
        Coordinator durable(GasSchedule{}, /*round_timeout=*/10, shards,
                            /*model_id=*/0, options);
        ASSERT_TRUE(durable.durable()) << label;
        EXPECT_FALSE(durable.recovery_info().recovered) << label;  // fresh directory
        ApplyAllScripts(durable, scripts);
        // Durability must not perturb the state machine at all.
        ExpectCoordinatorsBitwiseEqual(durable, reference, label + " [live]");
        durable.FlushDurability();
        const DurabilityStats stats = durable.durability_stats();
        EXPECT_EQ(stats.records_appended, static_cast<int64_t>(total_actions)) << label;
        EXPECT_GT(stats.bytes_appended, 0) << label;
        EXPECT_GT(stats.flushes, 0) << label;
        EXPECT_GT(stats.snapshots_written, 0) << label;
        if (policy == FsyncPolicy::kNever) {
          EXPECT_EQ(stats.fsyncs, 0) << label;
        } else {
          EXPECT_GT(stats.fsyncs, 0) << label;
        }
      }
      RecoveryStatus status;
      Coordinator recovered(GasSchedule{}, /*round_timeout=*/10, shards,
                            /*model_id=*/0, options, &status);
      ASSERT_TRUE(status.ok()) << label << ": " << status.message;
      ASSERT_TRUE(recovered.recovery_info().recovered) << label;
      uint64_t recovered_records = 0;
      for (const ShardRecoveryInfo& shard_info : recovered.recovery_info().shards) {
        EXPECT_EQ(shard_info.snapshot_records + shard_info.replayed_records,
                  shard_info.total_records)
            << label;
        EXPECT_EQ(shard_info.truncated_bytes, 0u) << label;
        recovered_records += shard_info.total_records;
      }
      EXPECT_EQ(recovered_records, total_actions) << label;
      ExpectCoordinatorsBitwiseEqual(recovered, reference, label + " [recovered]");
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(DurabilityTest, GlobalAdvanceTimeLogsEveryShardClock) {
  const std::string dir = MakeTestDir("advance_all");
  DurabilityOptions options;
  options.directory = dir;
  options.fsync = FsyncPolicy::kNever;
  Coordinator reference(GasSchedule{}, /*round_timeout=*/10, /*num_shards=*/3);
  {
    Coordinator durable(GasSchedule{}, /*round_timeout=*/10, /*num_shards=*/3,
                        /*model_id=*/0, options);
    for (Coordinator* coordinator : {&durable, &reference}) {
      std::vector<ClaimId> ids;
      for (size_t shard = 0; shard < 3; ++shard) {
        ids.push_back(coordinator->SubmitCommitment(TestDigest(shard), 100, 10.0, shard));
      }
      coordinator->AdvanceTime(100);  // the one cross-shard mutation
      for (const ClaimId id : ids) {
        EXPECT_EQ(coordinator->TryFinalize(id), ClaimState::kFinalized);
      }
    }
    ExpectCoordinatorsBitwiseEqual(durable, reference, "advance-all [live]");
    durable.FlushDurability();
  }
  RecoveryStatus status;
  Coordinator recovered(GasSchedule{}, /*round_timeout=*/10, /*num_shards=*/3,
                        /*model_id=*/0, options, &status);
  ASSERT_TRUE(status.ok()) << status.message;
  ExpectCoordinatorsBitwiseEqual(recovered, reference, "advance-all [recovered]");
  std::filesystem::remove_all(dir);
}

// --------------------------------- corruption suite ----------------------------------

struct DurableRunFiles {
  std::string dir;
  std::vector<std::vector<CoordinatorAction>> scripts;
};

// One completed single-shard durable run with at least one committed snapshot and a
// non-empty changelog tail, closed cleanly. The corruption tests mutate its files.
DurableRunFiles MakeCompletedRun(const std::string& tag, size_t num_shards) {
  DurableRunFiles run;
  run.dir = MakeTestDir(tag);
  run.scripts = BuildScripts(num_shards, kScriptClaims);
  DurabilityOptions options;
  options.directory = run.dir;
  options.fsync = FsyncPolicy::kNever;
  options.snapshot_interval_records = 5;
  Coordinator durable(GasSchedule{}, /*round_timeout=*/10, num_shards, /*model_id=*/0,
                      options);
  ApplyAllScripts(durable, run.scripts);
  durable.FlushDurability();
  return run;
}

DurabilityOptions RecoverOptions(const std::string& dir) {
  DurabilityOptions options;
  options.directory = dir;
  options.fsync = FsyncPolicy::kNever;
  options.snapshot_interval_records = 5;
  return options;
}

TEST(CorruptionTest, TruncatedTailRecoversToAPrefix) {
  const DurableRunFiles run = MakeCompletedRun("trunc_tail", 1);
  const std::string log = ChangelogPath(run.dir, 0);
  std::vector<uint8_t> bytes = ReadFileBytes(log);
  ASSERT_GT(bytes.size(), kFileHeaderBytes + 5);
  bytes.resize(bytes.size() - 5);  // tear the final record mid-frame
  WriteFileBytes(log, bytes);

  RecoveryStatus status;
  Coordinator recovered(GasSchedule{}, 10, 1, 0, RecoverOptions(run.dir), &status);
  ASSERT_TRUE(status.ok()) << status.message;
  const ShardRecoveryInfo& info = recovered.recovery_info().shards[0];
  EXPECT_GT(info.truncated_bytes, 0u);
  ASSERT_LT(info.total_records, run.scripts[0].size());

  Coordinator prefix(GasSchedule{}, 10, 1);
  ApplyScriptActions(prefix, 0, run.scripts[0], 0,
                     static_cast<size_t>(info.total_records));
  ExpectCoordinatorsBitwiseEqual(recovered, prefix, "truncated tail");
  std::filesystem::remove_all(run.dir);
}

TEST(CorruptionTest, CutAtFrameBoundaryRecoversCleanly) {
  const DurableRunFiles run = MakeCompletedRun("trunc_boundary", 1);
  const std::string log = ChangelogPath(run.dir, 0);
  std::vector<uint8_t> bytes = ReadFileBytes(log);
  // Walk the frames and cut exactly after the second-to-last one.
  size_t offset = kFileHeaderBytes;
  size_t previous = offset;
  for (;;) {
    std::span<const uint8_t> payload;
    const size_t before = offset;
    if (DecodeFrame(bytes, offset, payload) != FrameStatus::kOk) {
      break;
    }
    previous = before;
  }
  bytes.resize(previous);
  WriteFileBytes(log, bytes);

  RecoveryStatus status;
  Coordinator recovered(GasSchedule{}, 10, 1, 0, RecoverOptions(run.dir), &status);
  ASSERT_TRUE(status.ok()) << status.message;
  const ShardRecoveryInfo& info = recovered.recovery_info().shards[0];
  EXPECT_EQ(info.truncated_bytes, 0u);  // a clean cut has no torn bytes
  Coordinator prefix(GasSchedule{}, 10, 1);
  ApplyScriptActions(prefix, 0, run.scripts[0], 0,
                     static_cast<size_t>(info.total_records));
  ExpectCoordinatorsBitwiseEqual(recovered, prefix, "boundary cut");
  std::filesystem::remove_all(run.dir);
}

TEST(CorruptionTest, PayloadBitFlipFailsLoudly) {
  const DurableRunFiles run = MakeCompletedRun("bitflip_payload", 1);
  const std::string log = ChangelogPath(run.dir, 0);
  std::vector<uint8_t> bytes = ReadFileBytes(log);
  bytes[kFileHeaderBytes + kFrameHeaderBytes + 2] ^= 0x40;  // first record's payload
  WriteFileBytes(log, bytes);

  RecoveryStatus status;
  Coordinator recovered(GasSchedule{}, 10, 1, 0, RecoverOptions(run.dir), &status);
  EXPECT_EQ(status.code, RecoveryCode::kCorruptRecord);
  EXPECT_FALSE(recovered.durable());  // durability disabled; caller must discard
  std::filesystem::remove_all(run.dir);
}

TEST(CorruptionTest, LengthFieldFlipIsCorruptionNotTruncation) {
  const DurableRunFiles run = MakeCompletedRun("bitflip_length", 1);
  const std::string log = ChangelogPath(run.dir, 0);
  std::vector<uint8_t> bytes = ReadFileBytes(log);
  // A full header whose length and length_check disagree can only be bit rot (a
  // torn write shortens the frame, it cannot rewrite it in place) — so this must be
  // a typed error, NOT silently truncated away like a torn tail.
  bytes[kFileHeaderBytes] ^= 0xFF;
  WriteFileBytes(log, bytes);

  RecoveryStatus status;
  Coordinator recovered(GasSchedule{}, 10, 1, 0, RecoverOptions(run.dir), &status);
  EXPECT_EQ(status.code, RecoveryCode::kCorruptRecord);
  std::filesystem::remove_all(run.dir);
}

TEST(CorruptionTest, BadChangelogMagicIsABadHeader) {
  const DurableRunFiles run = MakeCompletedRun("bad_magic", 1);
  const std::string log = ChangelogPath(run.dir, 0);
  std::vector<uint8_t> bytes = ReadFileBytes(log);
  bytes[0] ^= 0xFF;
  WriteFileBytes(log, bytes);

  RecoveryStatus status;
  Coordinator recovered(GasSchedule{}, 10, 1, 0, RecoverOptions(run.dir), &status);
  EXPECT_EQ(status.code, RecoveryCode::kBadHeader);
  std::filesystem::remove_all(run.dir);
}

TEST(CorruptionTest, ShardLayoutAndModelMismatchesAreRejected) {
  const DurableRunFiles run = MakeCompletedRun("layout_mismatch", 2);
  {
    RecoveryStatus status;
    Coordinator wrong_shards(GasSchedule{}, 10, /*num_shards=*/4, 0,
                             RecoverOptions(run.dir), &status);
    EXPECT_EQ(status.code, RecoveryCode::kShardMismatch);
  }
  {
    RecoveryStatus status;
    Coordinator wrong_model(GasSchedule{}, 10, /*num_shards=*/2, /*model_id=*/9,
                            RecoverOptions(run.dir), &status);
    EXPECT_EQ(status.code, RecoveryCode::kShardMismatch);
  }
  {
    // The matching layout still recovers fine afterwards (the rejects wrote nothing).
    RecoveryStatus status;
    Coordinator right(GasSchedule{}, 10, /*num_shards=*/2, 0, RecoverOptions(run.dir),
                      &status);
    EXPECT_TRUE(status.ok()) << status.message;
  }
  std::filesystem::remove_all(run.dir);
}

TEST(CorruptionTest, CorruptCommittedSnapshotFailsLoudly) {
  const DurableRunFiles run = MakeCompletedRun("bad_snapshot", 1);
  const std::string snap = SnapshotPath(run.dir, 0);
  ASSERT_TRUE(std::filesystem::exists(snap)) << "run too short to snapshot";
  std::vector<uint8_t> bytes = ReadFileBytes(snap);
  bytes[kFileHeaderBytes + kFrameHeaderBytes + 3] ^= 0x01;
  WriteFileBytes(snap, bytes);

  RecoveryStatus status;
  Coordinator recovered(GasSchedule{}, 10, 1, 0, RecoverOptions(run.dir), &status);
  EXPECT_EQ(status.code, RecoveryCode::kCorruptSnapshot);
  std::filesystem::remove_all(run.dir);
}

TEST(CorruptionTest, StaleSnapshotTmpIsDeletedNeverLoaded) {
  const DurableRunFiles run = MakeCompletedRun("stale_tmp", 1);
  Coordinator reference(GasSchedule{}, 10, 1);
  ApplyAllScripts(reference, run.scripts);
  const std::string tmp = SnapshotTmpPath(run.dir, 0);
  WriteFileBytes(tmp, std::vector<uint8_t>{0xDE, 0xAD, 0xBE, 0xEF});

  RecoveryStatus status;
  Coordinator recovered(GasSchedule{}, 10, 1, 0, RecoverOptions(run.dir), &status);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_FALSE(std::filesystem::exists(tmp));  // garbage is removed, not consulted
  ExpectCoordinatorsBitwiseEqual(recovered, reference, "stale tmp");
  std::filesystem::remove_all(run.dir);
}

TEST(CorruptionTest, MissingChangelogUnderASnapshotIsALogGap) {
  const DurableRunFiles run = MakeCompletedRun("log_gap", 1);
  ASSERT_TRUE(std::filesystem::exists(SnapshotPath(run.dir, 0)));
  std::filesystem::remove(ChangelogPath(run.dir, 0));

  RecoveryStatus status;
  Coordinator recovered(GasSchedule{}, 10, 1, 0, RecoverOptions(run.dir), &status);
  EXPECT_EQ(status.code, RecoveryCode::kLogGap);
  std::filesystem::remove_all(run.dir);
}

TEST(CorruptionTest, EmptyAndMissingChangelogsStartFresh) {
  // A zero-byte changelog (crash before the header landed) is a fresh shard.
  const std::string dir = MakeTestDir("empty_log");
  WriteFileBytes(ChangelogPath(dir, 0), {});
  RecoveryStatus status;
  Coordinator from_empty(GasSchedule{}, 10, 1, 0, RecoverOptions(dir), &status);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_TRUE(from_empty.shard_claims(0).empty());
  EXPECT_EQ(from_empty.shard_now(0), 0u);

  // A directory with no files at all is simply a fresh deployment.
  const std::string fresh = MakeTestDir("fresh_dir");
  RecoveryStatus fresh_status;
  Coordinator from_fresh(GasSchedule{}, 10, 1, 0, RecoverOptions(fresh), &fresh_status);
  ASSERT_TRUE(fresh_status.ok()) << fresh_status.message;
  EXPECT_FALSE(from_fresh.recovery_info().recovered);
  EXPECT_TRUE(from_fresh.durable());
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(fresh);
}

// ------------------------------- service integration ---------------------------------

class DurableServiceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model_ = new Model(BuildBertMini());
    CalibrateOptions options;
    options.num_samples = 4;
    thresholds_ = new ThresholdSet(
        Calibrate(*model_, DeviceRegistry::Fleet(), options).MakeThresholds(3.0));
    commitment_ = new ModelCommitment(*model_->graph, *thresholds_);
  }

  static void TearDownTestSuite() {
    delete commitment_;
    delete thresholds_;
    delete model_;
    commitment_ = nullptr;
    thresholds_ = nullptr;
    model_ = nullptr;
  }

  static Model* model_;
  static ThresholdSet* thresholds_;
  static ModelCommitment* commitment_;
};

Model* DurableServiceFixture::model_ = nullptr;
ThresholdSet* DurableServiceFixture::thresholds_ = nullptr;
ModelCommitment* DurableServiceFixture::commitment_ = nullptr;

constexpr size_t kServiceClaims = 8;

// Runs the live service over `coordinator` and returns the delivered outcomes in
// submission order.
std::vector<BatchClaimOutcome> RunService(const Model& model,
                                          const ModelCommitment& commitment,
                                          const ThresholdSet& thresholds,
                                          Coordinator& coordinator, int workers,
                                          MetricsSnapshot* metrics = nullptr) {
  const std::vector<BatchClaim> claims =
      MakeTestClaims(model, kServiceClaims, 0x5e2f1, /*cheat_rate=*/0.4,
                     /*supervised_rate=*/0.6);
  ServiceOptions options;
  options.num_workers = workers;
  options.queue_capacity = 4;
  options.batching.initial_hint = 3;
  options.verifier.dispute.num_threads = 2;
  options.verifier.reuse_buffers = true;
  std::vector<std::shared_ptr<ClaimTicket>> tickets;
  std::vector<BatchClaimOutcome> outcomes;
  {
    VerificationService service(model, commitment, thresholds, coordinator, options);
    for (const BatchClaim& claim : claims) {
      tickets.push_back(service.Submit(claim));
      EXPECT_NE(tickets.back(), nullptr);
    }
    service.Drain();
    if (metrics != nullptr) {
      *metrics = service.metrics();
    }
  }
  outcomes.reserve(tickets.size());
  for (const auto& ticket : tickets) {
    outcomes.push_back(ticket->Wait());
  }
  return outcomes;
}

// Reconstructs one lane's coordinator-action stream from delivered outcomes — the
// exact per-shard record sequence the durable run logged (ReplayShardActions' twin,
// producing a prefix-indexable vector instead of driving a coordinator directly).
std::vector<CoordinatorAction> ReconstructLaneActions(
    const std::vector<BatchClaimOutcome>& outcomes, size_t shard, size_t num_shards) {
  const DisputeOptions dispute;
  std::vector<CoordinatorAction> actions;
  uint64_t ordinal = 0;
  for (size_t i = shard; i < outcomes.size(); i += num_shards) {
    const BatchClaimOutcome& outcome = outcomes[i];
    const ClaimId id = 1 + shard + ordinal * num_shards;
    ++ordinal;
    CoordinatorAction submit;
    submit.kind = Kind::kSubmit;
    submit.id = id;
    submit.c0 = outcome.c0;
    submit.challenge_window = dispute.challenge_window;
    submit.proposer_bond = dispute.proposer_bond;
    actions.push_back(submit);
    CoordinatorAction base;
    base.id = id;
    base.c0 = outcome.c0;
    if (!outcome.flagged) {
      CoordinatorAction advance = base;
      advance.kind = Kind::kAdvanceClock;
      advance.ticks = dispute.challenge_window;
      actions.push_back(advance);
      CoordinatorAction finalize = base;
      finalize.kind = Kind::kTryFinalize;
      actions.push_back(finalize);
      continue;
    }
    CoordinatorAction open = base;
    open.kind = Kind::kOpenChallenge;
    open.challenger_bond = dispute.challenger_bond;
    actions.push_back(open);
    for (const RoundStats& round : outcome.dispute.round_stats) {
      CoordinatorAction partition = base;
      partition.kind = Kind::kPartition;
      partition.children = round.children;
      actions.push_back(partition);
      CoordinatorAction merkle = base;
      merkle.kind = Kind::kMerkleCheck;
      merkle.proofs = round.merkle_proofs;
      actions.push_back(merkle);
      if (round.selected_child >= 0) {
        CoordinatorAction selection = base;
        selection.kind = Kind::kSelection;
        selection.selected_child = round.selected_child;
        actions.push_back(selection);
        CoordinatorAction tick = base;
        tick.kind = Kind::kAdvanceClock;
        tick.ticks = 1;
        actions.push_back(tick);
      }
    }
    CoordinatorAction leaf = base;
    leaf.kind = Kind::kLeafAdjudication;
    leaf.proposer_guilty = outcome.proposer_guilty;
    leaf.challenger_share = dispute.challenger_share;
    actions.push_back(leaf);
  }
  return actions;
}

TEST_F(DurableServiceFixture, DurableServiceMatchesInMemoryAndRecovers) {
  int case_index = 0;
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    for (const int workers : {1, 4}) {
      const std::string label =
          "shards=" + std::to_string(shards) + " workers=" + std::to_string(workers);
      const std::string dir = MakeTestDir("service_" + std::to_string(case_index++));

      Coordinator memory(GasSchedule{}, /*round_timeout=*/10, shards);
      const std::vector<BatchClaimOutcome> memory_outcomes =
          RunService(*model_, *commitment_, *thresholds_, memory, workers);

      DurabilityOptions options;
      options.directory = dir;
      options.fsync = FsyncPolicy::kGroupCommit;
      options.group_commit_interval_ms = 1;
      options.snapshot_interval_records = 6;
      MetricsSnapshot metrics;
      {
        Coordinator durable(GasSchedule{}, /*round_timeout=*/10, shards,
                            /*model_id=*/0, options);
        const std::vector<BatchClaimOutcome> durable_outcomes =
            RunService(*model_, *commitment_, *thresholds_, durable, workers, &metrics);
        ASSERT_EQ(durable_outcomes.size(), memory_outcomes.size()) << label;
        for (size_t i = 0; i < durable_outcomes.size(); ++i) {
          EXPECT_EQ(durable_outcomes[i].c0, memory_outcomes[i].c0) << label;
          EXPECT_EQ(durable_outcomes[i].gas_used, memory_outcomes[i].gas_used) << label;
          EXPECT_EQ(durable_outcomes[i].final_state, memory_outcomes[i].final_state)
              << label;
        }
        // The WAL must not perturb the protocol: bitwise equal to in-memory.
        ExpectCoordinatorsBitwiseEqual(durable, memory, label + " [durable==memory]");
        durable.FlushDurability();
        // The service exported live durability counters.
        EXPECT_GT(metrics.durability_records_appended, 0) << label;
        EXPECT_GT(metrics.durability_bytes_appended, 0) << label;
      }

      RecoveryStatus status;
      Coordinator recovered(GasSchedule{}, /*round_timeout=*/10, shards,
                            /*model_id=*/0, options, &status);
      ASSERT_TRUE(status.ok()) << label << ": " << status.message;
      ASSERT_TRUE(recovered.recovery_info().recovered) << label;
      EXPECT_GT(recovered.recovery_info().total_replayed() +
                    recovered.recovery_info().shards[0].snapshot_records,
                0u)
          << label;
      ExpectCoordinatorsBitwiseEqual(recovered, memory, label + " [recovered]");
      std::filesystem::remove_all(dir);
    }
  }
}

TEST_F(DurableServiceFixture, ServiceCrashAtEveryPointRecoversToALanePrefix) {
  int case_index = 0;
  for (const CrashPoint point :
       {CrashPoint::kPreFlush, CrashPoint::kMidRecord, CrashPoint::kPostSnapshotTmp,
        CrashPoint::kPreRename}) {
    for (const auto& [shards, workers] :
         std::vector<std::pair<size_t, int>>{{1, 1}, {1, 4}, {4, 1}, {4, 4}}) {
      const std::string label = "point=" + std::string(CrashPointName(point)) +
                                " shards=" + std::to_string(shards) +
                                " workers=" + std::to_string(workers);
      const std::string dir = MakeTestDir("service_crash_" + std::to_string(case_index++));

      DurabilityOptions options;
      options.directory = dir;
      options.fsync = FsyncPolicy::kNever;
      options.snapshot_interval_records = 6;
      std::atomic<bool> fired{false};
      options.crash_hook = [&fired, point](CrashPoint at, size_t) {
        if (at != point || fired.exchange(true)) {
          return false;
        }
        return true;
      };
      std::vector<BatchClaimOutcome> outcomes;
      {
        Coordinator durable(GasSchedule{}, /*round_timeout=*/10, shards,
                            /*model_id=*/0, options);
        outcomes = RunService(*model_, *commitment_, *thresholds_, durable, workers);
        durable.FlushDurability();
      }
      ASSERT_TRUE(fired.load()) << label << ": the crash point never triggered";

      DurabilityOptions recovery_options;
      recovery_options.directory = dir;
      recovery_options.fsync = FsyncPolicy::kNever;
      recovery_options.snapshot_interval_records = 6;
      RecoveryStatus status;
      Coordinator recovered(GasSchedule{}, /*round_timeout=*/10, shards,
                            /*model_id=*/0, recovery_options, &status);
      ASSERT_TRUE(status.ok()) << label << ": " << status.message;
      const RecoveryInfo& info = recovered.recovery_info();
      ASSERT_EQ(info.shards.size(), shards) << label;

      // The disk holds a per-lane PREFIX of the reconstructed action streams:
      // recovered state must equal a fresh coordinator driven with exactly those
      // prefixes — the bitwise-identical-to-the-uninterrupted-run criterion, scoped
      // to what the crash let reach the log.
      Coordinator prefix(GasSchedule{}, /*round_timeout=*/10, shards);
      for (size_t shard = 0; shard < shards; ++shard) {
        const std::vector<CoordinatorAction> lane =
            ReconstructLaneActions(outcomes, shard, shards);
        const uint64_t kept = info.shards[shard].total_records;
        ASSERT_LE(kept, lane.size()) << label << " shard=" << shard;
        ApplyScriptActions(prefix, shard, lane, 0, static_cast<size_t>(kept));
      }
      ExpectCoordinatorsBitwiseEqual(recovered, prefix, label);
      std::filesystem::remove_all(dir);
    }
  }
}

}  // namespace
}  // namespace tao
