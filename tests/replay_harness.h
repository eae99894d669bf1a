// Coordinator-action replay harness, shared by the shard-sweep suite
// (coordinator_shard_test.cc) and the durability crash/corruption harness
// (durability_test.cc).
//
// The per-shard determinism contract (docs/coordinator.md) says a shard's entire
// state history is a bitwise function of that shard's claim subsequence alone.
// ReplayShardActions is that contract made executable: it reconstructs the
// coordinator-action sequence of one shard's delivered outcomes — no model
// re-execution — and drives a fresh coordinator with it. The same action stream is
// what the durability changelog persists, which is why recovery can be asserted
// against these replays.

#ifndef TAO_TESTS_REPLAY_HARNESS_H_
#define TAO_TESTS_REPLAY_HARNESS_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/protocol/batch_verifier.h"
#include "src/protocol/coordinator.h"
#include "src/protocol/dispute.h"

namespace tao {

// Replays one shard's claim subsequence — coordinator ACTIONS only, reconstructed
// from the delivered outcomes — against `replay` (conventionally a fresh
// single-shard coordinator). `options` must be the dispute options the service ran
// with; the reconstruction is an independent restatement of the call pattern
// ApplyDispute follows (it must not call ApplyDispute): unflagged claims submit,
// wait out the window, finalize; flagged claims submit, open, then per round
// partition + merkle-meter (+ selection and a one-tick advance when the challenger
// selected), and finally adjudicate.
inline void ReplayShardActions(const std::vector<const BatchClaimOutcome*>& outcomes,
                               Coordinator& replay,
                               const DisputeOptions& options = {}) {
  for (const BatchClaimOutcome* outcome : outcomes) {
    const ClaimId id = replay.SubmitCommitment(outcome->c0, options.challenge_window,
                                               options.proposer_bond);
    if (!outcome->flagged) {
      replay.AdvanceTimeFor(id, options.challenge_window);
      EXPECT_EQ(replay.TryFinalize(id), ClaimState::kFinalized);
      continue;
    }
    replay.OpenChallenge(id, options.challenger_bond);
    for (const RoundStats& round : outcome->dispute.round_stats) {
      replay.RecordPartition(id, round.children,
                             std::vector<Digest>(static_cast<size_t>(round.children),
                                                 outcome->c0));
      replay.RecordMerkleCheck(id, round.merkle_proofs);
      if (round.selected_child >= 0) {
        replay.RecordSelection(id, round.selected_child);
        replay.AdvanceTimeFor(id, 1);
      }
    }
    replay.RecordLeafAdjudication(id, outcome->proposer_guilty,
                                  options.challenger_share);
  }
}

// Bitwise double compare: +0/-0 and NaN patterns distinguish (operator== would
// conflate them, and "bitwise identical" is the contract under test).
inline uint64_t DoubleBits(double value) { return std::bit_cast<uint64_t>(value); }

// EXPECTs every field of two claim records bitwise equal.
inline void ExpectClaimRecordsEqual(const ClaimRecord& got, const ClaimRecord& want,
                                    const std::string& label) {
  EXPECT_EQ(got.id, want.id) << label;
  EXPECT_EQ(got.model, want.model) << label;
  EXPECT_EQ(got.c0, want.c0) << label;
  EXPECT_EQ(got.committed_at, want.committed_at) << label;
  EXPECT_EQ(got.challenge_window, want.challenge_window) << label;
  EXPECT_EQ(got.state, want.state) << label;
  EXPECT_EQ(DoubleBits(got.proposer_bond), DoubleBits(want.proposer_bond)) << label;
  EXPECT_EQ(DoubleBits(got.challenger_bond), DoubleBits(want.challenger_bond)) << label;
  EXPECT_EQ(got.dispute_round, want.dispute_round) << label;
  EXPECT_EQ(got.round_deadline, want.round_deadline) << label;
  EXPECT_EQ(got.merkle_checks, want.merkle_checks) << label;
  EXPECT_EQ(got.gas, want.gas) << label;
}

// EXPECTs shard `shard` of `coordinator` bitwise equal to the whole of `replay` (a
// single-shard coordinator that was driven with that shard's action subsequence):
// ledger, gas meter, clock, claim ids, and every claim record field.
inline void ExpectShardMatchesReplay(const Coordinator& coordinator, size_t shard,
                                     const Coordinator& replay,
                                     const std::string& label) {
  const Balances got = coordinator.shard_balances(shard);
  const Balances want = replay.balances();
  EXPECT_EQ(DoubleBits(got.proposer), DoubleBits(want.proposer)) << label;
  EXPECT_EQ(DoubleBits(got.challenger), DoubleBits(want.challenger)) << label;
  EXPECT_EQ(DoubleBits(got.treasury), DoubleBits(want.treasury)) << label;
  EXPECT_EQ(coordinator.shard_gas(shard), replay.gas().total()) << label;
  EXPECT_EQ(coordinator.shard_now(shard), replay.now()) << label;
  const std::vector<ClaimId> shard_ids = coordinator.shard_claims(shard);
  const std::vector<ClaimId> replay_ids = replay.shard_claims(0);
  ASSERT_EQ(shard_ids.size(), replay_ids.size()) << label;
  for (size_t j = 0; j < shard_ids.size(); ++j) {
    ClaimRecord got_record = coordinator.claim(shard_ids[j]);
    ClaimRecord want_record = replay.claim(replay_ids[j]);
    // The replayed single-shard coordinator re-derives dense ids (and carries its
    // own model id); identity of the remaining fields is what the contract claims.
    got_record.id = want_record.id = 0;
    got_record.model = want_record.model = 0;
    ExpectClaimRecordsEqual(got_record, want_record,
                            label + " claim[" + std::to_string(j) + "]");
  }
}

// EXPECTs two same-layout coordinators bitwise equal across EVERY shard — the
// recovered-vs-uninterrupted assertion of the durability harness.
inline void ExpectCoordinatorsBitwiseEqual(const Coordinator& got,
                                           const Coordinator& want,
                                           const std::string& label) {
  ASSERT_EQ(got.num_shards(), want.num_shards()) << label;
  for (size_t shard = 0; shard < got.num_shards(); ++shard) {
    const std::string shard_label = label + " shard=" + std::to_string(shard);
    const Balances got_balances = got.shard_balances(shard);
    const Balances want_balances = want.shard_balances(shard);
    EXPECT_EQ(DoubleBits(got_balances.proposer), DoubleBits(want_balances.proposer))
        << shard_label;
    EXPECT_EQ(DoubleBits(got_balances.challenger), DoubleBits(want_balances.challenger))
        << shard_label;
    EXPECT_EQ(DoubleBits(got_balances.treasury), DoubleBits(want_balances.treasury))
        << shard_label;
    EXPECT_EQ(got.shard_gas(shard), want.shard_gas(shard)) << shard_label;
    EXPECT_EQ(got.shard_now(shard), want.shard_now(shard)) << shard_label;
    const std::vector<ClaimId> got_ids = got.shard_claims(shard);
    const std::vector<ClaimId> want_ids = want.shard_claims(shard);
    ASSERT_EQ(got_ids, want_ids) << shard_label;
    for (const ClaimId id : got_ids) {
      ExpectClaimRecordsEqual(got.claim(id), want.claim(id),
                              shard_label + " claim " + std::to_string(id));
    }
  }
}

}  // namespace tao

#endif  // TAO_TESTS_REPLAY_HARNESS_H_
