// Durability bench: changelog append throughput vs fsync policy, and recovery time
// vs replay-tail length (docs/durability.md).
//
// Workload: the shard-scaling bench's claim-lifecycle mix (finalize /
// guilty-dispute / clean-dispute, ~15 coordinator actions per dispute) driven
// single-threaded against a 4-shard coordinator, so every number isolates the
// durability pipeline — no model execution, no service threads.
//
// Table 1 (append): actions/sec with the changelog off vs each FsyncPolicy,
// including the final FlushDurability barrier, plus the records/bytes/fsyncs the
// writer reports. Every durable run is cross-checked bitwise against the in-memory
// reference before its throughput is printed (the WAL may cost time, never state).
//
// Table 2 (recovery): cold-start reconstruction time as the changelog tail grows,
// with snapshots disabled (recovery replays everything) and enabled (recovery loads
// the newest snapshot and replays only the tail). Each recovered coordinator is
// again cross-checked bitwise against an uninterrupted in-memory run.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/crypto/sha256.h"
#include "src/durability/options.h"
#include "src/protocol/coordinator.h"
#include "src/util/stopwatch.h"
#include "src/util/table.h"

namespace tao {
namespace {

constexpr size_t kShards = 4;
// Disputes get an effectively infinite window/timeout so clock advances from other
// flows on the same shard never push them past a deadline.
constexpr uint64_t kDisputeWindow = uint64_t{1} << 60;
constexpr uint64_t kFinalizeWindow = 1;
constexpr int64_t kRounds = 3;
constexpr int64_t kChildren = 2;

// Runs one claim lifecycle homed to `shard`; returns the number of coordinator
// actions it issued (= changelog records it appends when durable).
int64_t RunFlow(Coordinator& coordinator, int64_t flow, uint64_t shard) {
  const int kind = static_cast<int>(flow % 3);  // 0 finalize, 1 guilty, 2 clean
  const Digest c0 = Sha256::Hash("recovery-flow-" + std::to_string(flow));
  const ClaimId id = coordinator.SubmitCommitment(
      c0, kind == 0 ? kFinalizeWindow : kDisputeWindow, /*proposer_bond=*/10.0, shard);
  if (kind == 0) {
    coordinator.AdvanceTimeFor(id, kFinalizeWindow);
    coordinator.TryFinalize(id);
    return 3;
  }
  coordinator.OpenChallenge(id, /*challenger_bond=*/2.0);
  const std::vector<Digest> child_hashes(static_cast<size_t>(kChildren), c0);
  for (int64_t round = 0; round < kRounds; ++round) {
    coordinator.RecordPartition(id, kChildren, child_hashes);
    coordinator.RecordMerkleCheck(id, /*proofs=*/5);
    coordinator.RecordSelection(id, round % kChildren);
    coordinator.AdvanceTimeFor(id, 1);
  }
  coordinator.RecordLeafAdjudication(id, /*proposer_guilty=*/kind == 1,
                                     /*challenger_share=*/0.5);
  return 3 + 4 * kRounds;
}

int64_t DriveWorkload(Coordinator& coordinator, int64_t flows) {
  int64_t actions = 0;
  for (int64_t flow = 0; flow < flows; ++flow) {
    actions += RunFlow(coordinator, flow, static_cast<uint64_t>(flow) % kShards);
  }
  return actions;
}

// Bitwise cross-check of every shard (ledger, gas, clock, claim records) — the
// bench-side twin of the test harness's ExpectCoordinatorsBitwiseEqual.
bool BitwiseEqual(const Coordinator& got, const Coordinator& want) {
  auto bits = [](double v) {
    uint64_t u;
    static_assert(sizeof(u) == sizeof(v));
    std::memcpy(&u, &v, sizeof(u));
    return u;
  };
  if (got.num_shards() != want.num_shards()) {
    return false;
  }
  for (size_t shard = 0; shard < got.num_shards(); ++shard) {
    const Balances a = got.shard_balances(shard);
    const Balances b = want.shard_balances(shard);
    if (bits(a.proposer) != bits(b.proposer) || bits(a.challenger) != bits(b.challenger) ||
        bits(a.treasury) != bits(b.treasury) ||
        got.shard_gas(shard) != want.shard_gas(shard) ||
        got.shard_now(shard) != want.shard_now(shard)) {
      return false;
    }
    const std::vector<ClaimId> ids = got.shard_claims(shard);
    if (ids != want.shard_claims(shard)) {
      return false;
    }
    for (const ClaimId id : ids) {
      const ClaimRecord x = got.claim(id);
      const ClaimRecord y = want.claim(id);
      if (x.id != y.id || x.model != y.model || !(x.c0 == y.c0) ||
          x.committed_at != y.committed_at || x.challenge_window != y.challenge_window ||
          x.state != y.state || bits(x.proposer_bond) != bits(y.proposer_bond) ||
          bits(x.challenger_bond) != bits(y.challenger_bond) ||
          x.dispute_round != y.dispute_round || x.round_deadline != y.round_deadline ||
          x.merkle_checks != y.merkle_checks || x.gas != y.gas) {
        return false;
      }
    }
  }
  return true;
}

// Unique per process, so two copies of the bench on one host never share a changelog.
std::string BenchDir(const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("tao_bench_recovery_" + std::to_string(::getpid()) + "_" + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

}  // namespace
}  // namespace tao

int main(int argc, char** argv) {
  using namespace tao;
  bench::JsonSummary json(argc, argv, "recovery");
  bool all_checks_ok = true;
  constexpr int64_t kAppendFlows = 2048;

  Coordinator reference(GasSchedule{}, kDisputeWindow, kShards);
  const int64_t total_actions = DriveWorkload(reference, kAppendFlows);
  std::printf("Durability bench: %lld lifecycles, %lld coordinator actions, %zu shards\n\n",
              static_cast<long long>(kAppendFlows),
              static_cast<long long>(total_actions), kShards);

  // ---- Table 1: append throughput vs fsync policy -----------------------------------
  TablePrinter append_table(
      {"changelog", "actions_per_s", "records", "mib", "fsyncs", "check"});
  {
    Coordinator memory(GasSchedule{}, kDisputeWindow, kShards);
    Stopwatch watch;
    DriveWorkload(memory, kAppendFlows);
    const double rate = static_cast<double>(total_actions) / watch.ElapsedSeconds();
    const bool check = BitwiseEqual(memory, reference);
    all_checks_ok &= check;
    append_table.AddRow({"off", TablePrinter::Fixed(rate, 0), "0", "0.00", "0",
                         check ? "ok" : "MISMATCH"});
    json.Add("append/off/actions_per_s", rate);
  }
  for (const FsyncPolicy policy :
       {FsyncPolicy::kNever, FsyncPolicy::kGroupCommit, FsyncPolicy::kEveryFlush}) {
    const std::string dir = BenchDir(FsyncPolicyName(policy));
    DurabilityOptions options;
    options.directory = dir;
    options.fsync = policy;
    options.snapshot_interval_records = 4096;
    Coordinator durable(GasSchedule{}, kDisputeWindow, kShards, /*model_id=*/0, options);
    Stopwatch watch;
    DriveWorkload(durable, kAppendFlows);
    durable.FlushDurability();  // every acknowledged action is on disk
    const double rate = static_cast<double>(total_actions) / watch.ElapsedSeconds();
    const DurabilityStats stats = durable.durability_stats();
    const bool check = BitwiseEqual(durable, reference);
    all_checks_ok &= check;
    append_table.AddRow(
        {FsyncPolicyName(policy), TablePrinter::Fixed(rate, 0),
         std::to_string(stats.records_appended),
         TablePrinter::Fixed(static_cast<double>(stats.bytes_appended) / (1 << 20), 2),
         std::to_string(stats.fsyncs),
         check ? "ok" : "MISMATCH"});
    json.Add(std::string("append/") + FsyncPolicyName(policy) + "/actions_per_s", rate);
    json.Add(std::string("append/") + FsyncPolicyName(policy) + "/fsyncs",
             static_cast<double>(stats.fsyncs));
    std::filesystem::remove_all(dir);
  }
  std::printf("Append throughput (single driver thread, barrier included)\n");
  append_table.Print();

  // ---- Table 2: recovery time vs tail length ----------------------------------------
  std::printf("\nRecovery time vs replay tail (fsync=never while writing)\n");
  TablePrinter recovery_table({"flows", "records", "snapshot_every", "replayed",
                               "recover_ms", "check"});
  for (const int64_t flows : {int64_t{256}, int64_t{1024}, int64_t{4096}}) {
    for (const uint64_t snapshot_interval : {uint64_t{0}, uint64_t{512}}) {
      Coordinator uninterrupted(GasSchedule{}, kDisputeWindow, kShards);
      const int64_t actions = DriveWorkload(uninterrupted, flows);

      const std::string dir = BenchDir("tail_" + std::to_string(flows) + "_" +
                                       std::to_string(snapshot_interval));
      DurabilityOptions options;
      options.directory = dir;
      options.fsync = FsyncPolicy::kNever;
      options.snapshot_interval_records = snapshot_interval;
      {
        Coordinator durable(GasSchedule{}, kDisputeWindow, kShards, /*model_id=*/0,
                            options);
        DriveWorkload(durable, flows);
        durable.FlushDurability();
      }
      Stopwatch watch;
      RecoveryStatus status;
      Coordinator recovered(GasSchedule{}, kDisputeWindow, kShards, /*model_id=*/0,
                            options, &status);
      const double recover_ms = watch.ElapsedMillis();
      const bool check = status.ok() && BitwiseEqual(recovered, uninterrupted);
      all_checks_ok &= check;
      recovery_table.AddRow(
          {std::to_string(flows), std::to_string(actions),
           snapshot_interval == 0 ? "off" : std::to_string(snapshot_interval),
           std::to_string(recovered.durability_stats().recovery_replayed),
           TablePrinter::Fixed(recover_ms, 2), check ? "ok" : "MISMATCH"});
      json.Add("recover/flows_" + std::to_string(flows) + "_snap_" +
                   std::to_string(snapshot_interval) + "/ms",
               recover_ms);
      std::filesystem::remove_all(dir);
    }
  }
  recovery_table.Print();
  json.AddBool("bitwise_check", all_checks_ok);
  if (!json.Write()) {
    return 1;
  }
  return all_checks_ok ? 0 : 1;
}
