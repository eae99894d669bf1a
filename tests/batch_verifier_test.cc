// Batched-vs-sequential equivalence suite for the batch verification pipeline.
//
// The protocol invariant under test: running K claims' phase-1 executions as the lanes
// of one batched run (BatchVerifier / Executor::RunBatch) changes WHERE the numbers are
// computed, never the numbers — so for every (threads x arena x batch-size)
// combination, verdicts, per-claim gas, C0 digests, final states, the coordinator
// ledger, and MarketplaceStats are bitwise identical to the one-claim-at-a-time
// sequential path.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/calib/calibrator.h"
#include "src/protocol/batch_verifier.h"
#include "src/protocol/marketplace.h"
#include "tests/test_claims.h"

namespace tao {
namespace {

class BatchVerifierFixture : public ::testing::Test {
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

Model* BatchVerifierFixture::model_ = nullptr;
ThresholdSet* BatchVerifierFixture::thresholds_ = nullptr;
ModelCommitment* BatchVerifierFixture::commitment_ = nullptr;

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.values().data(), b.values().data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Draws a deterministic cohort (shared generator, this suite's heavier mix).
std::vector<BatchClaim> MakeClaims(const Model& model, size_t count, uint64_t seed) {
  return MakeTestClaims(model, count, seed, /*cheat_rate=*/0.5,
                        /*supervised_rate=*/0.75);
}

// Reference protocol outcome of one claim, computed by the sequential PR-1 path:
// DisputeGame::Run for supervised claims, the proposer-commits-and-window-elapses
// path for unsupervised ones.
struct ReferenceOutcome {
  ClaimId claim_id = 0;
  Digest c0{};
  bool flagged = false;
  bool proposer_guilty = false;
  ClaimState final_state = ClaimState::kCommitted;
  int64_t gas_used = 0;
  DisputeResult dispute;  // DisputeGame::Run's result (supervised claims)
};

std::vector<ReferenceOutcome> RunSequentialReference(const Model& model,
                                                     const ModelCommitment& commitment,
                                                     const ThresholdSet& thresholds,
                                                     const std::vector<BatchClaim>& claims,
                                                     Coordinator& coordinator,
                                                     const DisputeOptions& options) {
  const Graph& graph = *model.graph;
  std::vector<ReferenceOutcome> outcomes;
  outcomes.reserve(claims.size());
  for (const BatchClaim& claim : claims) {
    ReferenceOutcome ref;
    if (claim.supervised()) {
      DisputeGame game(model, commitment, thresholds, coordinator, options);
      const DisputeResult result = game.Run(claim.inputs, *claim.proposer_device,
                                            *claim.verifier_device, claim.perturbations);
      ref.claim_id = result.claim_id;
      ref.c0 = coordinator.claim(result.claim_id).c0;
      ref.flagged = result.challenge_raised;
      ref.proposer_guilty = result.proposer_guilty;
      ref.final_state = result.final_state;
      ref.gas_used = result.gas_used;
      ref.dispute = result;
    } else {
      const Executor exec(graph, *claim.proposer_device);
      const ExecutionTrace trace = exec.RunPerturbed(claim.inputs, claim.perturbations);
      ResultMeta meta;
      meta.device = claim.proposer_device->name;
      meta.challenge_window = options.challenge_window;
      ref.c0 = ComputeResultCommitment(commitment, claim.inputs,
                                       trace.value(graph.output()), meta);
      const ClaimId id =
          coordinator.SubmitCommitment(ref.c0, options.challenge_window,
                                       options.proposer_bond);
      coordinator.AdvanceTime(options.challenge_window);
      ref.claim_id = id;
      ref.final_state = coordinator.TryFinalize(id);
      ref.gas_used = coordinator.claim_gas(id);
    }
    outcomes.push_back(ref);
  }
  return outcomes;
}

void ExpectOutcomeMatchesReference(const BatchClaimOutcome& got, const ReferenceOutcome& ref,
                                   size_t i, const std::string& label) {
  EXPECT_EQ(got.claim_id, ref.claim_id) << label << ": claim " << i;
  EXPECT_EQ(got.c0, ref.c0) << label << ": claim " << i << " C0 digest diverged";
  EXPECT_EQ(got.flagged, ref.flagged) << label << ": claim " << i;
  EXPECT_EQ(got.proposer_guilty, ref.proposer_guilty) << label << ": claim " << i;
  EXPECT_EQ(got.final_state, ref.final_state) << label << ": claim " << i;
  EXPECT_EQ(got.gas_used, ref.gas_used) << label << ": claim " << i;
  if (got.supervised) {
    EXPECT_EQ(got.dispute.rounds, ref.dispute.rounds) << label << ": claim " << i;
    EXPECT_EQ(got.dispute.total_merkle_checks, ref.dispute.total_merkle_checks)
        << label << ": claim " << i;
  }
}

// ----------------------------- Executor::RunOutputBatch -----------------------------

TEST_F(BatchVerifierFixture, RunOutputBatchMatchesIndividualRuns) {
  const Graph& graph = *model_->graph;
  const Executor exec(graph, DeviceRegistry::ByName("H100"));
  Rng rng(0xba7c0);
  std::vector<std::vector<Tensor>> batch_inputs;
  for (int i = 0; i < 4; ++i) {
    batch_inputs.push_back(model_->sample_input(rng));
  }
  std::vector<Tensor> expected;
  for (const auto& inputs : batch_inputs) {
    expected.push_back(exec.RunOutput(inputs));
  }
  for (const int threads : {1, 2, 8}) {
    for (const bool reuse : {false, true}) {
      ExecutorOptions options;
      options.num_threads = threads;
      options.reuse_buffers = reuse;
      TensorArena::Stats stats;
      const std::vector<Tensor> outputs = exec.RunOutputBatch(batch_inputs, options, &stats);
      ASSERT_EQ(outputs.size(), expected.size());
      for (size_t i = 0; i < outputs.size(); ++i) {
        EXPECT_TRUE(SameBits(outputs[i], expected[i]))
            << "lane " << i << " diverged at threads=" << threads << " reuse=" << reuse;
      }
      if (reuse) {
        // Lanes share one arena: a deep batch must recycle heavily.
        EXPECT_GT(stats.pool_hits, 0);
      }
    }
  }
}

// Epilogues run on the lane's thread, once per lane, after the lane's output exists.
// At 2 threads the cohort's ParallelFor puts two of the 9 lanes in one chunk.
TEST_F(BatchVerifierFixture, BatchEpilogueSeesCompletedLane) {
  const Graph& graph = *model_->graph;
  const Executor exec(graph, DeviceRegistry::Reference());
  Rng rng(0xba7c1);
  std::vector<std::vector<Tensor>> batch_inputs;
  for (int i = 0; i < 9; ++i) {
    batch_inputs.push_back(model_->sample_input(rng));
  }
  for (const int threads : {1, 2, 8}) {
    std::vector<Executor::BatchItem> items(batch_inputs.size());
    std::vector<int> completions(batch_inputs.size(), 0);
    std::vector<Tensor> seen_outputs(batch_inputs.size());
    for (size_t i = 0; i < batch_inputs.size(); ++i) {
      items[i].inputs = &batch_inputs[i];
      items[i].on_complete = [&](size_t lane, const ExecutionTrace& trace) {
        completions[lane] += 1;
        seen_outputs[lane] = trace.value(graph.output());
      };
    }
    ExecutorOptions options;
    options.num_threads = threads;
    (void)exec.RunBatch(items, options);
    for (size_t i = 0; i < batch_inputs.size(); ++i) {
      EXPECT_EQ(completions[i], 1) << "lane " << i << " at threads=" << threads;
      EXPECT_TRUE(SameBits(seen_outputs[i], exec.RunOutput(batch_inputs[i])))
          << "lane " << i << " epilogue saw a wrong output at threads=" << threads;
    }
  }
}

// ------------------------- BatchVerifier vs sequential path -------------------------

TEST_F(BatchVerifierFixture, BatchMatchesSequentialAcrossThreadsAndArena) {
  const std::vector<BatchClaim> claims = MakeClaims(*model_, 10, 0x5eedb1);

  Coordinator reference_coordinator;
  const std::vector<ReferenceOutcome> reference = RunSequentialReference(
      *model_, *commitment_, *thresholds_, claims, reference_coordinator, DisputeOptions{});
  const Balances reference_balances = reference_coordinator.balances();
  const int64_t reference_gas = reference_coordinator.gas().total();
  // The cohort must actually exercise both dispute verdicts and both channels.
  int64_t flagged = 0;
  for (const ReferenceOutcome& ref : reference) {
    flagged += ref.flagged ? 1 : 0;
  }
  ASSERT_GT(flagged, 1);
  ASSERT_LT(flagged, static_cast<int64_t>(claims.size()));

  for (const int threads : {1, 2, 8}) {
    for (const bool reuse : {false, true}) {
      const std::string label =
          "threads=" + std::to_string(threads) + " reuse=" + std::to_string(reuse);
      Coordinator coordinator;
      BatchVerifierOptions options;
      options.dispute.num_threads = threads;
      options.reuse_buffers = reuse;
      BatchVerifier verifier(*model_, *commitment_, *thresholds_, coordinator, options);
      const std::vector<BatchClaimOutcome> outcomes = verifier.VerifyBatch(claims);
      ASSERT_EQ(outcomes.size(), reference.size());
      for (size_t i = 0; i < outcomes.size(); ++i) {
        ExpectOutcomeMatchesReference(outcomes[i], reference[i], i, label);
      }
      // Claim-ordered resolution reproduces the sequential ledger bitwise.
      const Balances balances = coordinator.balances();
      EXPECT_EQ(balances.proposer, reference_balances.proposer) << label;
      EXPECT_EQ(balances.challenger, reference_balances.challenger) << label;
      EXPECT_EQ(balances.treasury, reference_balances.treasury) << label;
      EXPECT_EQ(coordinator.gas().total(), reference_gas) << label;
    }
  }
}

TEST_F(BatchVerifierFixture, BatchSizeDoesNotChangeOutcomes) {
  const std::vector<BatchClaim> claims = MakeClaims(*model_, 9, 0x5eedb2);

  Coordinator reference_coordinator;
  const std::vector<ReferenceOutcome> reference = RunSequentialReference(
      *model_, *commitment_, *thresholds_, claims, reference_coordinator, DisputeOptions{});
  const Balances reference_balances = reference_coordinator.balances();

  for (const size_t batch_size : {1u, 2u, 4u, 9u}) {
    const std::string label = "batch_size=" + std::to_string(batch_size);
    Coordinator coordinator;
    BatchVerifierOptions options;
    options.dispute.num_threads = 4;
    options.reuse_buffers = true;
    BatchVerifier verifier(*model_, *commitment_, *thresholds_, coordinator, options);
    size_t next = 0;
    std::vector<BatchClaimOutcome> outcomes;
    while (next < claims.size()) {
      const size_t end = std::min(claims.size(), next + batch_size);
      const std::vector<BatchClaim> chunk(claims.begin() + static_cast<long>(next),
                                          claims.begin() + static_cast<long>(end));
      const std::vector<BatchClaimOutcome> chunk_outcomes = verifier.VerifyBatch(chunk);
      outcomes.insert(outcomes.end(), chunk_outcomes.begin(), chunk_outcomes.end());
      next = end;
    }
    ASSERT_EQ(outcomes.size(), reference.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
      ExpectOutcomeMatchesReference(outcomes[i], reference[i], i, label);
    }
    const Balances balances = coordinator.balances();
    EXPECT_EQ(balances.proposer, reference_balances.proposer) << label;
    EXPECT_EQ(balances.challenger, reference_balances.challenger) << label;
    EXPECT_EQ(balances.treasury, reference_balances.treasury) << label;
  }
}

// Flagged claims plan their dispute games in phase 1, one pool task per claim, and
// resolution only posts the plan. Every statistic of the plan — per round included —
// must equal what DisputeGame::Run computes for the same claim, at any width.
TEST_F(BatchVerifierFixture, PlannedDisputesMatchDisputeGameFieldByField) {
  // Every claim supervised and 3/4 cheating, like perfbench's dispute workload.
  const std::vector<BatchClaim> claims =
      MakeTestClaims(*model_, 8, 0x5eedb3, /*cheat_rate=*/0.75, /*supervised_rate=*/1.0);

  Coordinator reference_coordinator;
  const std::vector<ReferenceOutcome> reference = RunSequentialReference(
      *model_, *commitment_, *thresholds_, claims, reference_coordinator, DisputeOptions{});
  int64_t flagged = 0;
  for (const ReferenceOutcome& ref : reference) {
    flagged += ref.flagged ? 1 : 0;
  }
  ASSERT_GE(flagged, 3);

  for (const int threads : {1, 8}) {
    Coordinator coordinator;
    BatchVerifierOptions options;
    options.dispute.num_threads = threads;
    options.reuse_buffers = true;
    BatchVerifier verifier(*model_, *commitment_, *thresholds_, coordinator, options);
    const std::vector<BatchClaimOutcome> outcomes = verifier.VerifyBatch(claims);
    ASSERT_EQ(outcomes.size(), reference.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (!reference[i].flagged) {
        continue;
      }
      const std::string label =
          "threads=" + std::to_string(threads) + ": claim " + std::to_string(i);
      const DisputeResult& got = outcomes[i].dispute;
      const DisputeResult& want = reference[i].dispute;
      EXPECT_TRUE(got.challenge_raised) << label;
      EXPECT_EQ(got.rounds, want.rounds) << label;
      EXPECT_EQ(got.leaf_op, want.leaf_op) << label;
      EXPECT_EQ(got.leaf.proposer_guilty, want.leaf.proposer_guilty) << label;
      EXPECT_EQ(got.leaf.path, want.leaf.path) << label;
      EXPECT_EQ(got.leaf.max_theo_ratio, want.leaf.max_theo_ratio) << label;
      EXPECT_EQ(got.leaf.guilty_votes, want.leaf.guilty_votes) << label;
      EXPECT_EQ(got.leaf.committee_size, want.leaf.committee_size) << label;
      EXPECT_EQ(got.challenger_flops, want.challenger_flops) << label;
      EXPECT_EQ(got.cost_ratio, want.cost_ratio) << label;
      ASSERT_EQ(got.round_stats.size(), want.round_stats.size()) << label;
      for (size_t r = 0; r < got.round_stats.size(); ++r) {
        const RoundStats& a = got.round_stats[r];
        const RoundStats& b = want.round_stats[r];
        const std::string round_label = label + " round " + std::to_string(r);
        EXPECT_EQ(a.children, b.children) << round_label;
        EXPECT_EQ(a.selected_child, b.selected_child) << round_label;
        EXPECT_EQ(a.merkle_proofs, b.merkle_proofs) << round_label;
        EXPECT_EQ(a.child_hashes, b.child_hashes) << round_label;
        EXPECT_EQ(a.children_reexecuted, b.children_reexecuted) << round_label;
        EXPECT_EQ(a.reexec_flops, b.reexec_flops) << round_label;
      }
    }
  }
}

// Supervised proposer lanes are output-only: the batch's arena working set must stay
// ~flat as supervised claims are added, because full traces are only re-acquired
// lazily for flagged claims (and that re-execution bypasses the shared arena). Before
// this held, peak residency scaled linearly with supervised-claims-per-batch.
TEST_F(BatchVerifierFixture, SupervisedBatchPeakMemoryStaysFlat) {
  const auto& fleet = DeviceRegistry::Fleet();
  Rng rng(0x0e60a);
  const auto make_supervised_honest = [&](size_t count) {
    std::vector<BatchClaim> claims;
    for (size_t i = 0; i < count; ++i) {
      BatchClaim claim;
      claim.inputs = model_->sample_input(rng);
      claim.proposer_device = &fleet[rng.NextBounded(fleet.size())];
      claim.verifier_device = &fleet[rng.NextBounded(fleet.size())];
      claims.push_back(std::move(claim));
    }
    return claims;
  };
  const std::vector<BatchClaim> claims = make_supervised_honest(8);

  BatchVerifierOptions options;
  options.dispute.num_threads = 1;  // sequential lanes: peaks are deterministic
  options.reuse_buffers = true;

  Coordinator single_coordinator;
  BatchVerifier single(*model_, *commitment_, *thresholds_, single_coordinator, options);
  TensorArena::Stats single_stats;
  (void)single.VerifyBatch({claims[0]}, &single_stats);
  ASSERT_GT(single_stats.peak_outstanding_bytes, 0);

  Coordinator batch_coordinator;
  BatchVerifier batched(*model_, *commitment_, *thresholds_, batch_coordinator, options);
  TensorArena::Stats batch_stats;
  (void)batched.VerifyBatch(claims, &batch_stats);

  // 8 supervised claims' lanes recycle through one arena: the batch peak stays well
  // under two single-claim peaks (it would be ~8x if supervised lanes kept traces).
  EXPECT_LT(batch_stats.peak_outstanding_bytes, 2 * single_stats.peak_outstanding_bytes)
      << "supervised lanes are retaining full traces again";
  EXPECT_GT(batch_stats.pool_hits, 0);
}

// ------------------- Marketplace: two-phase pipeline equivalence --------------------

// The PR-1 sequential Marketplace::Run, reproduced verbatim as the regression
// reference for the two-phase refactor (draws interleaved with execution, one claim
// at a time).
MarketplaceStats InlineSequentialMarketplace(const Model& model,
                                             const ModelCommitment& commitment,
                                             const ThresholdSet& thresholds,
                                             const MarketplaceConfig& config,
                                             Balances* balances_out) {
  MarketplaceStats stats;
  Rng rng(config.seed);
  const Graph& graph = *model.graph;
  const auto& fleet = DeviceRegistry::Fleet();
  Coordinator coordinator;

  for (int64_t task = 0; task < config.num_tasks; ++task) {
    ++stats.tasks;
    const std::vector<Tensor> input = model.sample_input(rng);
    const DeviceProfile& proposer_device = fleet[rng.NextBounded(fleet.size())];

    const bool cheats = rng.NextDouble() < config.cheat_rate;
    std::vector<Executor::Perturbation> perturbations;
    if (cheats) {
      ++stats.cheats_attempted;
      const NodeId site =
          graph.op_nodes()[rng.NextBounded(static_cast<uint64_t>(graph.num_ops() - 1))];
      Rng delta_rng(rng.NextU64());
      perturbations.push_back(
          {site, Tensor::Randn(graph.node(site).shape, delta_rng, config.cheat_magnitude)});
    }

    const double draw = rng.NextDouble();
    const bool challenged = draw < config.economics.challenge_prob;
    const bool audited =
        !challenged &&
        draw < config.economics.challenge_prob + config.economics.audit_prob;

    if (!challenged && !audited) {
      const Executor proposer_exec(graph, proposer_device);
      const ExecutionTrace trace = proposer_exec.RunPerturbed(input, perturbations);
      ResultMeta meta;
      meta.device = proposer_device.name;
      meta.challenge_window = config.dispute.challenge_window;
      const Digest c0 = ComputeResultCommitment(commitment, input,
                                                trace.value(graph.output()), meta);
      const ClaimId claim = coordinator.SubmitCommitment(c0, meta.challenge_window,
                                                         config.dispute.proposer_bond);
      coordinator.AdvanceTime(meta.challenge_window);
      EXPECT_EQ(coordinator.TryFinalize(claim), ClaimState::kFinalized);
      if (cheats) {
        ++stats.cheats_escaped;
      } else {
        ++stats.finalized_clean;
      }
      continue;
    }

    if (challenged) {
      ++stats.voluntary_challenges;
    } else {
      ++stats.audits;
    }
    const DeviceProfile& verifier_device = fleet[rng.NextBounded(fleet.size())];
    DisputeGame game(model, commitment, thresholds, coordinator, config.dispute);
    const DisputeResult result =
        game.Run(input, proposer_device, verifier_device, perturbations);
    stats.total_gas += result.gas_used;

    if (!result.challenge_raised) {
      if (cheats) {
        ++stats.cheats_escaped;
      } else {
        ++stats.finalized_clean;
      }
      continue;
    }
    if (!cheats) {
      ++stats.spurious_disputes;
      if (result.final_state == ClaimState::kProposerSlashed) {
        ++stats.honest_slashes;
      }
      continue;
    }
    if (result.proposer_guilty) {
      ++stats.cheats_caught;
    } else {
      ++stats.cheats_escaped;
    }
  }
  *balances_out = coordinator.balances();
  return stats;
}

void ExpectStatsEqual(const MarketplaceStats& got, const MarketplaceStats& want,
                      const std::string& label) {
  EXPECT_EQ(got.tasks, want.tasks) << label;
  EXPECT_EQ(got.finalized_clean, want.finalized_clean) << label;
  EXPECT_EQ(got.cheats_attempted, want.cheats_attempted) << label;
  EXPECT_EQ(got.cheats_caught, want.cheats_caught) << label;
  EXPECT_EQ(got.cheats_escaped, want.cheats_escaped) << label;
  EXPECT_EQ(got.voluntary_challenges, want.voluntary_challenges) << label;
  EXPECT_EQ(got.audits, want.audits) << label;
  EXPECT_EQ(got.spurious_disputes, want.spurious_disputes) << label;
  EXPECT_EQ(got.honest_slashes, want.honest_slashes) << label;
  EXPECT_EQ(got.total_gas, want.total_gas) << label;
}

TEST_F(BatchVerifierFixture, TwoPhaseMarketplaceMatchesSequentialReference) {
  MarketplaceConfig config;
  config.num_tasks = 18;
  config.cheat_rate = 0.4;
  config.economics.challenge_prob = 0.35;
  config.economics.audit_prob = 0.2;
  config.seed = 0xfeedb4;

  Balances reference_balances;
  const MarketplaceStats reference = InlineSequentialMarketplace(
      *model_, *commitment_, *thresholds_, config, &reference_balances);
  ASSERT_GT(reference.cheats_attempted, 0);
  ASSERT_GT(reference.voluntary_challenges + reference.audits, 0);

  struct Variant {
    int64_t batch_size;
    int threads;
    bool reuse;
  };
  for (const Variant v : {Variant{1, 1, false}, Variant{5, 1, true}, Variant{18, 4, true},
                          Variant{4, 8, true}}) {
    const std::string label = "batch=" + std::to_string(v.batch_size) +
                              " threads=" + std::to_string(v.threads) +
                              " reuse=" + std::to_string(v.reuse);
    MarketplaceConfig variant_config = config;
    variant_config.verify_batch_size = v.batch_size;
    variant_config.dispute.num_threads = v.threads;
    variant_config.reuse_buffers = v.reuse;
    Marketplace market(*model_, *commitment_, *thresholds_, variant_config);
    const MarketplaceStats stats = market.Run();
    ExpectStatsEqual(stats, reference, label);
    const Balances balances = market.balances();
    EXPECT_EQ(balances.proposer, reference_balances.proposer) << label;
    EXPECT_EQ(balances.challenger, reference_balances.challenger) << label;
    EXPECT_EQ(balances.treasury, reference_balances.treasury) << label;
  }
}

}  // namespace
}  // namespace tao
