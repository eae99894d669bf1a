#include "src/protocol/coordinator.h"

#include <utility>

#include "src/durability/coordinator_log.h"

namespace tao {

const char* ClaimStateName(ClaimState state) {
  switch (state) {
    case ClaimState::kCommitted:
      return "committed";
    case ClaimState::kFinalized:
      return "finalized";
    case ClaimState::kDisputed:
      return "disputed";
    case ClaimState::kProposerSlashed:
      return "proposer_slashed";
    case ClaimState::kChallengerSlashed:
      return "challenger_slashed";
  }
  return "unknown";
}

Coordinator::Coordinator(GasSchedule schedule, uint64_t round_timeout, size_t num_shards,
                         ModelId model_id, DurabilityOptions durability,
                         RecoveryStatus* recovery_status)
    : schedule_(schedule), round_timeout_(round_timeout), model_id_(model_id) {
  TAO_CHECK_GE(num_shards, 1u) << "coordinator needs at least one shard";
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  RecoveryStatus status;
  if (!durability.directory.empty()) {
    status = InitDurability(std::move(durability));
  }
  if (!status.ok()) {
    durability_.reset();
    TAO_CHECK(recovery_status != nullptr)
        << "coordinator recovery failed [" << RecoveryCodeName(status.code)
        << "]: " << status.message;
  }
  if (recovery_status != nullptr) {
    *recovery_status = status;
  }
}

Coordinator::~Coordinator() = default;

RecoveryStatus Coordinator::InitDurability(DurabilityOptions options) {
  auto durability = std::make_unique<CoordinatorDurability>(
      options, shards_.size(), static_cast<uint64_t>(model_id_));
  std::vector<ShardDiskState> disk(shards_.size());
  recovery_info_ = RecoveryInfo{};
  recovery_info_.shards.resize(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    RecoveryStatus status = LoadShardDiskState(options, s, shards_.size(),
                                               static_cast<uint64_t>(model_id_), disk[s]);
    if (!status.ok()) {
      return status;
    }
    recovery_info_.recovered =
        recovery_info_.recovered || disk[s].changelog_exists || disk[s].has_snapshot;
  }
  // Rebuild state single-threaded, BEFORE the writer exists: snapshot image first,
  // then the logged tail through the very transition methods that produced it.
  replaying_ = true;
  int64_t replayed_total = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const ShardDiskState& state = disk[s];
    if (state.has_snapshot) {
      RestoreShard(s, state.snapshot);
    }
    for (const CoordinatorAction& action : state.tail) {
      RecoveryStatus status = ApplyLoggedAction(s, action);
      if (!status.ok()) {
        replaying_ = false;
        return status;
      }
    }
    ShardRecoveryInfo& info = recovery_info_.shards[s];
    info.snapshot_records = state.snapshot_covered;
    info.replayed_records = state.tail.size();
    info.total_records = state.log_records;
    info.truncated_bytes = state.truncated_bytes;
    info.loaded_snapshot = state.has_snapshot;
    replayed_total += static_cast<int64_t>(state.tail.size());
  }
  replaying_ = false;
  durability->set_recovery_replayed(replayed_total);
  RecoveryStatus status = durability->Start(disk);
  if (!status.ok()) {
    return status;
  }
  durability_ = std::move(durability);
  return {};
}

void Coordinator::LogMutation(size_t index, Shard& shard,
                              const CoordinatorAction& action) {
  if (durability_ == nullptr || replaying_) {
    return;
  }
  if (durability_->LogAction(index, action)) {
    durability_->Snapshot(index, SnapshotShardLocked(shard));
  }
}

ShardSnapshotState Coordinator::SnapshotShardLocked(const Shard& shard) const {
  ShardSnapshotState state;
  state.now = shard.now;
  state.submitted = shard.submitted;
  state.balances = shard.balances;
  state.gas = shard.gas;
  state.claims.reserve(shard.claims.size());
  for (const auto& [id, record] : shard.claims) {
    state.claims.push_back(record);
  }
  return state;
}

void Coordinator::RestoreShard(size_t index, const ShardSnapshotState& state) {
  Shard& shard = *shards_[index];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.now = state.now;
  shard.submitted = state.submitted;
  shard.balances = state.balances;
  shard.gas = state.gas;
  shard.claims.clear();
  for (const ClaimRecord& claim : state.claims) {
    shard.claims[claim.id] = claim;
  }
}

RecoveryStatus Coordinator::ApplyLoggedAction(size_t index,
                                              const CoordinatorAction& action) {
  // A CRC-valid record with protocol-impossible contents still aborts loudly via
  // the transition methods' own TAO_CHECKs — replay never invents a lenient path.
  switch (action.kind) {
    case CoordinatorAction::Kind::kSubmit: {
      const ClaimId id = SubmitCommitment(action.c0, action.challenge_window,
                                          action.proposer_bond, index);
      if (id != action.id) {
        return {RecoveryCode::kCorruptRecord,
                "replayed submission got id " + std::to_string(id) + ", log recorded " +
                    std::to_string(action.id)};
      }
      return {};
    }
    case CoordinatorAction::Kind::kTryFinalize:
      // Logged only when the call transitioned; the replayed clock must agree.
      if (TryFinalize(action.id) != ClaimState::kFinalized) {
        return {RecoveryCode::kCorruptRecord,
                "replayed finalize of claim " + std::to_string(action.id) +
                    " did not finalize"};
      }
      return {};
    case CoordinatorAction::Kind::kOpenChallenge:
      OpenChallenge(action.id, action.challenger_bond);
      return {};
    case CoordinatorAction::Kind::kPartition: {
      // Hashes are checked off-chain and are not coordinator state; replay feeds
      // placeholder digests of the logged arity.
      constexpr int64_t kMaxChildren = 1 << 20;
      if (action.children < 0 || action.children > kMaxChildren) {
        return {RecoveryCode::kCorruptRecord,
                "replayed partition arity " + std::to_string(action.children) +
                    " out of range"};
      }
      RecordPartition(action.id, action.children,
                      std::vector<Digest>(static_cast<size_t>(action.children)));
      return {};
    }
    case CoordinatorAction::Kind::kSelection:
      RecordSelection(action.id, action.selected_child);
      return {};
    case CoordinatorAction::Kind::kMerkleCheck:
      RecordMerkleCheck(action.id, action.proofs);
      return {};
    case CoordinatorAction::Kind::kTimeout:
      RecordTimeout(action.id, action.proposer_timed_out);
      return {};
    case CoordinatorAction::Kind::kLeafAdjudication:
      RecordLeafAdjudication(action.id, action.proposer_guilty,
                             action.challenger_share);
      return {};
    case CoordinatorAction::Kind::kChargeGas:
      ChargeClaimGas(action.id, action.gas);
      return {};
    case CoordinatorAction::Kind::kAdvanceClock: {
      Shard& shard = *shards_[index];
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.now += action.ticks;
      return {};
    }
  }
  return {RecoveryCode::kCorruptRecord, "unknown action kind"};
}

DurabilityStats Coordinator::durability_stats() const {
  return durability_ ? durability_->stats() : DurabilityStats{};
}

void Coordinator::FlushDurability() {
  if (durability_) {
    durability_->Flush();
  }
}

uint64_t Coordinator::shard_now(size_t shard) const {
  TAO_CHECK_LT(shard, shards_.size());
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->now;
}

void Coordinator::AdvanceTime(uint64_t ticks) {
  // One shard at a time (never two locks held), in shard order. Each shard's log
  // gets its own kAdvanceClock record: per-shard logs are self-contained.
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.now += ticks;
    CoordinatorAction action;
    action.kind = CoordinatorAction::Kind::kAdvanceClock;
    action.ticks = ticks;
    LogMutation(s, shard, action);
  }
}

void Coordinator::AdvanceTimeFor(ClaimId id, uint64_t ticks) {
  Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.now += ticks;
  CoordinatorAction action;
  action.kind = CoordinatorAction::Kind::kAdvanceClock;
  action.ticks = ticks;
  LogMutation(shard_of(id), shard, action);
}

ClaimId Coordinator::SubmitCommitment(const Digest& c0, uint64_t challenge_window,
                                      double proposer_bond, uint64_t shard_hint) {
  const size_t index = static_cast<size_t>(shard_hint % shards_.size());
  Shard& shard = *shards_[index];
  std::lock_guard<std::mutex> lock(shard.mu);
  TAO_CHECK_GT(proposer_bond, 0.0);
  ClaimRecord record;
  // Shard-local id assignment: the i-th claim homed here is 1 + index + i*S, so a
  // shard's id sequence is a function of ITS submission order alone (per-shard
  // determinism), and S=1 reproduces the historical dense 1, 2, 3, ...
  record.id = 1 + static_cast<ClaimId>(index) +
              static_cast<ClaimId>(shard.submitted) * shards_.size();
  ++shard.submitted;
  record.model = model_id_;
  record.c0 = c0;
  record.committed_at = shard.now;
  record.challenge_window = challenge_window;
  record.proposer_bond = proposer_bond;
  shard.balances.proposer -= proposer_bond;  // escrowed
  record.gas += schedule_.commit;
  shard.claims[record.id] = record;
  shard.gas += schedule_.commit;
  CoordinatorAction action;
  action.kind = CoordinatorAction::Kind::kSubmit;
  action.id = record.id;  // replay asserts the regenerated id matches
  action.c0 = c0;
  action.challenge_window = challenge_window;
  action.proposer_bond = proposer_bond;
  LogMutation(index, shard, action);
  return record.id;
}

ClaimState Coordinator::TryFinalize(ClaimId id) {
  Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  ClaimRecord& claim = MutableClaim(shard, id);
  if (claim.state == ClaimState::kCommitted &&
      shard.now >= claim.committed_at + claim.challenge_window) {
    claim.state = ClaimState::kFinalized;
    shard.balances.proposer += claim.proposer_bond;  // bond released with payment
    // Logged only on the transition: a no-op probe is not a state mutation.
    CoordinatorAction action;
    action.kind = CoordinatorAction::Kind::kTryFinalize;
    action.id = id;
    LogMutation(shard_of(id), shard, action);
  }
  return claim.state;
}

void Coordinator::OpenChallenge(ClaimId id, double challenger_bond) {
  Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  ClaimRecord& claim = MutableClaim(shard, id);
  TAO_CHECK(claim.state == ClaimState::kCommitted)
      << "cannot challenge claim in state " << ClaimStateName(claim.state);
  TAO_CHECK(shard.now < claim.committed_at + claim.challenge_window)
      << "challenge window closed";
  TAO_CHECK_GT(challenger_bond, 0.0);
  claim.state = ClaimState::kDisputed;
  claim.challenger_bond = challenger_bond;
  claim.dispute_round = 0;
  claim.round_deadline = shard.now + round_timeout_;
  shard.balances.challenger -= challenger_bond;  // escrowed
  claim.gas += schedule_.open_challenge;
  shard.gas += schedule_.open_challenge;
  CoordinatorAction action;
  action.kind = CoordinatorAction::Kind::kOpenChallenge;
  action.id = id;
  action.challenger_bond = challenger_bond;
  LogMutation(shard_of(id), shard, action);
}

void Coordinator::RecordPartition(ClaimId id, int64_t children,
                                  const std::vector<Digest>& child_hashes) {
  Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  ClaimRecord& claim = MutableClaim(shard, id);
  TAO_CHECK(claim.state == ClaimState::kDisputed);
  TAO_CHECK(shard.now <= claim.round_deadline) << "proposer partition past deadline";
  TAO_CHECK_EQ(static_cast<int64_t>(child_hashes.size()), children);
  claim.round_deadline = shard.now + round_timeout_;
  claim.gas += schedule_.PartitionCost(children);
  shard.gas += schedule_.PartitionCost(children);
  // Child hashes are dispute-transcript material checked off-chain, not coordinator
  // state — only the arity (which drives gas) is logged.
  CoordinatorAction action;
  action.kind = CoordinatorAction::Kind::kPartition;
  action.id = id;
  action.children = children;
  LogMutation(shard_of(id), shard, action);
}

void Coordinator::RecordSelection(ClaimId id, int64_t selected_child) {
  Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  ClaimRecord& claim = MutableClaim(shard, id);
  TAO_CHECK(claim.state == ClaimState::kDisputed);
  TAO_CHECK(shard.now <= claim.round_deadline) << "challenger selection past deadline";
  TAO_CHECK_GE(selected_child, 0);
  claim.dispute_round += 1;
  claim.round_deadline = shard.now + round_timeout_;
  claim.gas += schedule_.selection;
  shard.gas += schedule_.selection;
  CoordinatorAction action;
  action.kind = CoordinatorAction::Kind::kSelection;
  action.id = id;
  action.selected_child = selected_child;
  LogMutation(shard_of(id), shard, action);
}

void Coordinator::RecordMerkleCheck(ClaimId id, int64_t proofs) {
  Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  ClaimRecord& claim = MutableClaim(shard, id);
  TAO_CHECK(claim.state == ClaimState::kDisputed);
  TAO_CHECK_GE(proofs, 0);
  claim.merkle_checks += proofs;
  claim.gas += schedule_.merkle_check * proofs;
  shard.gas += schedule_.merkle_check * proofs;
  CoordinatorAction action;
  action.kind = CoordinatorAction::Kind::kMerkleCheck;
  action.id = id;
  action.proofs = proofs;
  LogMutation(shard_of(id), shard, action);
}

void Coordinator::RecordTimeout(ClaimId id, bool proposer_timed_out) {
  Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  ClaimRecord& claim = MutableClaim(shard, id);
  TAO_CHECK(claim.state == ClaimState::kDisputed);
  TAO_CHECK(shard.now > claim.round_deadline) << "no deadline has passed";
  RecordLeafAdjudicationLocked(shard, id, proposer_timed_out, 0.5);
  // One record per public call: the settlement RecordTimeout performs internally is
  // deterministic from the timeout itself, so it is not logged twice.
  CoordinatorAction action;
  action.kind = CoordinatorAction::Kind::kTimeout;
  action.id = id;
  action.proposer_timed_out = proposer_timed_out;
  LogMutation(shard_of(id), shard, action);
}

void Coordinator::RecordLeafAdjudication(ClaimId id, bool proposer_guilty,
                                         double challenger_share) {
  Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  RecordLeafAdjudicationLocked(shard, id, proposer_guilty, challenger_share);
  CoordinatorAction action;
  action.kind = CoordinatorAction::Kind::kLeafAdjudication;
  action.id = id;
  action.proposer_guilty = proposer_guilty;
  action.challenger_share = challenger_share;
  LogMutation(shard_of(id), shard, action);
}

void Coordinator::RecordLeafAdjudicationLocked(Shard& shard, ClaimId id,
                                               bool proposer_guilty,
                                               double challenger_share) {
  ClaimRecord& claim = MutableClaim(shard, id);
  TAO_CHECK(claim.state == ClaimState::kDisputed);
  claim.gas += schedule_.leaf_adjudication + schedule_.settlement;
  shard.gas += schedule_.leaf_adjudication;
  if (proposer_guilty) {
    claim.state = ClaimState::kProposerSlashed;
    // Proposer bond slashed: a share to the challenger, remainder burned; challenger
    // bond returned.
    const double reward = challenger_share * claim.proposer_bond;
    shard.balances.challenger += claim.challenger_bond + reward;
    shard.balances.treasury += claim.proposer_bond - reward;
  } else {
    claim.state = ClaimState::kChallengerSlashed;
    shard.balances.proposer += claim.proposer_bond + claim.challenger_bond;
  }
  shard.gas += schedule_.settlement;
}

void Coordinator::ChargeClaimGas(ClaimId id, int64_t gas) {
  TAO_CHECK_GE(gas, 0);
  Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  ClaimRecord& claim = MutableClaim(shard, id);
  claim.gas += gas;
  shard.gas += gas;
  CoordinatorAction action;
  action.kind = CoordinatorAction::Kind::kChargeGas;
  action.id = id;
  action.gas = gas;
  LogMutation(shard_of(id), shard, action);
}

int64_t Coordinator::claim_gas(ClaimId id) const {
  const Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.claims.find(id);
  TAO_CHECK(it != shard.claims.end()) << "unknown claim " << id;
  return it->second.gas;
}

ClaimRecord Coordinator::claim(ClaimId id) const {
  const Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.claims.find(id);
  TAO_CHECK(it != shard.claims.end()) << "unknown claim " << id;
  return it->second;
}

Balances Coordinator::balances() const {
  Balances total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.proposer += shard->balances.proposer;
    total.challenger += shard->balances.challenger;
    total.treasury += shard->balances.treasury;
  }
  return total;
}

Balances Coordinator::shard_balances(size_t shard) const {
  TAO_CHECK_LT(shard, shards_.size());
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->balances;
}

GasTotals Coordinator::gas() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->gas;
  }
  return GasTotals(total);
}

int64_t Coordinator::shard_gas(size_t shard) const {
  TAO_CHECK_LT(shard, shards_.size());
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->gas;
}

std::vector<ClaimId> Coordinator::shard_claims(size_t shard) const {
  TAO_CHECK_LT(shard, shards_.size());
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  std::vector<ClaimId> ids;
  ids.reserve(shards_[shard]->claims.size());
  // std::map iterates in id order == this shard's submission order (ids ascend by S).
  for (const auto& [id, record] : shards_[shard]->claims) {
    ids.push_back(id);
  }
  return ids;
}

ClaimRecord& Coordinator::MutableClaim(Shard& shard, ClaimId id) const {
  const auto it = shard.claims.find(id);
  TAO_CHECK(it != shard.claims.end()) << "unknown claim " << id;
  return it->second;
}

}  // namespace tao
