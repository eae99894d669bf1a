// Protocol tests: commitments, coordinator state machine, economics, leaf
// adjudication, and the end-to-end dispute game — honest runs finalize, perturbations
// are localized to the exact injected operator and slashed, honest proposers survive
// spurious challenges, and round counts follow O(log_N |V|).

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/calib/calibrator.h"
#include "src/protocol/adjudication.h"
#include "src/protocol/commitment.h"
#include "src/protocol/coordinator.h"
#include "src/protocol/dispute.h"
#include "src/protocol/economics.h"

namespace tao {
namespace {

// Shared expensive fixture: BERT mini, calibrated thresholds, and a model commitment.
class ProtocolFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model_ = new Model(BuildBertMini());
    CalibrateOptions options;
    options.num_samples = 6;
    const Calibration calibration = Calibrate(*model_, DeviceRegistry::Fleet(), options);
    thresholds_ = new ThresholdSet(calibration.MakeThresholds(3.0));
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

Model* ProtocolFixture::model_ = nullptr;
ThresholdSet* ProtocolFixture::thresholds_ = nullptr;
ModelCommitment* ProtocolFixture::commitment_ = nullptr;

// ---------------------------------- commitments ------------------------------------

TEST_F(ProtocolFixture, WeightProofsVerify) {
  for (const NodeId id : model_->graph->param_nodes()) {
    EXPECT_TRUE(commitment_->VerifyWeight(*model_->graph, id, commitment_->ProveWeight(id)));
  }
}

TEST_F(ProtocolFixture, SignatureProofsVerify) {
  for (const NodeId id : model_->graph->op_nodes()) {
    EXPECT_TRUE(
        commitment_->VerifySignature(*model_->graph, id, commitment_->ProveSignature(id)));
  }
}

TEST_F(ProtocolFixture, WrongProofNodeFailsVerification) {
  const NodeId a = model_->graph->param_nodes()[0];
  const NodeId b = model_->graph->param_nodes()[1];
  EXPECT_FALSE(commitment_->VerifyWeight(*model_->graph, b, commitment_->ProveWeight(a)));
}

TEST_F(ProtocolFixture, ResultCommitmentBindsOutput) {
  Rng rng(1);
  const std::vector<Tensor> input = model_->sample_input(rng);
  const Executor exec(*model_->graph, DeviceRegistry::ByName("H100"));
  const Tensor y = exec.RunOutput(input);
  ResultMeta meta;
  meta.device = "H100";
  const Digest c0 = ComputeResultCommitment(*commitment_, input, y, meta);
  Tensor tampered = y.Clone();
  tampered.mutable_values()[0] += 1e-3f;
  const Digest c0_tampered = ComputeResultCommitment(*commitment_, input, tampered, meta);
  EXPECT_NE(DigestToHex(c0), DigestToHex(c0_tampered));
  meta.device = "A100";
  EXPECT_NE(DigestToHex(ComputeResultCommitment(*commitment_, input, y, meta)),
            DigestToHex(c0));
}

// ---------------------------------- coordinator ------------------------------------

TEST(CoordinatorTest, HappyPathFinalizesAfterWindow) {
  Coordinator coordinator;
  const Digest c0 = Sha256::Hash(std::string("claim"));
  const ClaimId id = coordinator.SubmitCommitment(c0, 50, 10.0);
  EXPECT_EQ(coordinator.TryFinalize(id), ClaimState::kCommitted);
  coordinator.AdvanceTime(49);
  EXPECT_EQ(coordinator.TryFinalize(id), ClaimState::kCommitted);
  coordinator.AdvanceTime(1);
  EXPECT_EQ(coordinator.TryFinalize(id), ClaimState::kFinalized);
  EXPECT_DOUBLE_EQ(coordinator.balances().proposer, 0.0);  // bond escrowed then returned
}

TEST(CoordinatorTest, ChallengeAfterWindowRejected) {
  Coordinator coordinator;
  const ClaimId id = coordinator.SubmitCommitment(Sha256::Hash(std::string("x")), 10, 5.0);
  coordinator.AdvanceTime(11);
  EXPECT_DEATH(coordinator.OpenChallenge(id, 1.0), "challenge window closed");
}

// Merkle checks are metered only inside a dispute, and a proof count is never
// negative: recovery replays logged counts through this same call.
TEST(CoordinatorTest, MerkleCheckOutsideDisputeRejected) {
  Coordinator coordinator;
  const ClaimId id = coordinator.SubmitCommitment(Sha256::Hash(std::string("m")), 10, 5.0);
  EXPECT_DEATH(coordinator.RecordMerkleCheck(id, 3), "kDisputed");
}

TEST(CoordinatorTest, NegativeMerkleCheckRejected) {
  Coordinator coordinator;
  const ClaimId id = coordinator.SubmitCommitment(Sha256::Hash(std::string("n")), 10, 5.0);
  coordinator.OpenChallenge(id, 1.0);
  EXPECT_DEATH(coordinator.RecordMerkleCheck(id, -1000), "lhs=-1000");
}

TEST(CoordinatorTest, SlashingMovesBonds) {
  Coordinator coordinator;
  const ClaimId id = coordinator.SubmitCommitment(Sha256::Hash(std::string("y")), 100, 10.0);
  coordinator.OpenChallenge(id, 2.0);
  coordinator.RecordLeafAdjudication(id, /*proposer_guilty=*/true, 0.5);
  EXPECT_EQ(coordinator.claim(id).state, ClaimState::kProposerSlashed);
  // Challenger got bond back + half the proposer bond; remainder burned.
  EXPECT_DOUBLE_EQ(coordinator.balances().challenger, 5.0);
  EXPECT_DOUBLE_EQ(coordinator.balances().treasury, 5.0);
  EXPECT_DOUBLE_EQ(coordinator.balances().proposer, -10.0);
}

TEST(CoordinatorTest, FailedChallengeRefundsProposer) {
  Coordinator coordinator;
  const ClaimId id = coordinator.SubmitCommitment(Sha256::Hash(std::string("z")), 100, 10.0);
  coordinator.OpenChallenge(id, 2.0);
  coordinator.RecordLeafAdjudication(id, /*proposer_guilty=*/false, 0.5);
  EXPECT_EQ(coordinator.claim(id).state, ClaimState::kChallengerSlashed);
  EXPECT_DOUBLE_EQ(coordinator.balances().proposer, 2.0);   // own bond + challenger's
  EXPECT_DOUBLE_EQ(coordinator.balances().challenger, -2.0);
}

TEST(CoordinatorTest, TimeoutLosesRound) {
  Coordinator coordinator(GasSchedule{}, /*round_timeout=*/5);
  const ClaimId id = coordinator.SubmitCommitment(Sha256::Hash(std::string("t")), 100, 10.0);
  coordinator.OpenChallenge(id, 2.0);
  coordinator.AdvanceTime(6);
  coordinator.RecordTimeout(id, /*proposer_timed_out=*/true);
  EXPECT_EQ(coordinator.claim(id).state, ClaimState::kProposerSlashed);
}

TEST(CoordinatorTest, GasAccumulatesPerAction) {
  const GasSchedule schedule;
  Coordinator coordinator(schedule);
  const ClaimId id = coordinator.SubmitCommitment(Sha256::Hash(std::string("g")), 100, 10.0);
  coordinator.OpenChallenge(id, 2.0);
  coordinator.RecordPartition(id, 2, {Sha256::Hash(std::string("a")),
                                      Sha256::Hash(std::string("b"))});
  coordinator.RecordSelection(id, 0);
  coordinator.RecordLeafAdjudication(id, true, 0.5);
  EXPECT_EQ(coordinator.gas().total(),
            schedule.commit + schedule.open_challenge + schedule.PartitionCost(2) +
                schedule.selection + schedule.leaf_adjudication + schedule.settlement);
}

// ----------------------------------- economics -------------------------------------

TEST(EconomicsTest, DefaultParametersAreIncentiveCompatible) {
  const EconomicParams params;
  EXPECT_TRUE(IncentiveCompatible(params));
  const FeasibleRegion region = ComputeFeasibleRegion(params);
  EXPECT_TRUE(region.non_empty);
  EXPECT_GT(params.slash, region.lower);
  EXPECT_LE(params.slash, region.upper);
}

TEST(EconomicsTest, DetectionProbabilityFormula) {
  EconomicParams params;
  params.audit_prob = 0.2;
  params.challenge_prob = 0.3;
  params.false_negative = 0.1;
  EXPECT_NEAR(DetectionProbability(params), 0.5 * 0.9, 1e-12);
}

TEST(EconomicsTest, HonestyDominatesCheapCheatAboveL1) {
  EconomicParams params;
  const FeasibleRegion region = ComputeFeasibleRegion(params);
  params.slash = region.lower * 1.01;
  EXPECT_GT(ProposerUtilityHonest(params), ProposerUtilityCheapCheat(params));
  params.slash = region.l1 * 0.5;  // below the cheap-cheat deterrence bound
  EXPECT_LE(ProposerUtilityHonest(params), ProposerUtilityCheapCheat(params));
}

TEST(EconomicsTest, SpamChallengesUnprofitable) {
  const EconomicParams params;
  EXPECT_LE(ChallengerUtilityVsClean(params), 0.0);
  EXPECT_GT(ChallengerUtilityVsGuilty(params), 0.0);
}

TEST(EconomicsTest, RegionEmptyWhenDetectionTooWeak) {
  EconomicParams params;
  params.audit_prob = 0.0;
  params.challenge_prob = 0.001;
  params.proposer_deposit = 10.0;
  const FeasibleRegion region = ComputeFeasibleRegion(params);
  EXPECT_FALSE(region.non_empty);  // L1 = 0.8/0.00099 >> D_p
}

TEST(EconomicsTest, TargetedCheatingUnprofitableWhenCostExceedsReward) {
  const EconomicParams params;
  EXPECT_LT(ProposerUtilityTargetedCheat(params), 0.0);
}

// ------------------------------- leaf adjudication ----------------------------------

TEST_F(ProtocolFixture, LeafHonestOutputAcquitsViaCommittee) {
  const Graph& g = *model_->graph;
  Rng rng(7);
  const std::vector<Tensor> input = model_->sample_input(rng);
  const Executor exec(g, DeviceRegistry::ByName("H100"));
  const ExecutionTrace trace = exec.Run(input);
  // Pick a mid-graph linear op and adjudicate its honest (H100) output.
  NodeId target = -1;
  for (const NodeId id : g.op_nodes()) {
    if (g.node(id).op == "linear" && id > g.op_nodes()[g.num_ops() / 2]) {
      target = id;
      break;
    }
  }
  ASSERT_GE(target, 0);
  std::vector<Tensor> leaf_inputs;
  for (const NodeId in : g.node(target).inputs) {
    leaf_inputs.push_back(trace.value(in));
  }
  const LeafVerdict verdict =
      AdjudicateLeaf(g, target, leaf_inputs, trace.value(target), *thresholds_);
  EXPECT_FALSE(verdict.proposer_guilty);
  EXPECT_EQ(verdict.path, LeafPath::kCommitteeVote);
}

TEST_F(ProtocolFixture, LeafLargePerturbationCaughtByTheoreticalBound) {
  const Graph& g = *model_->graph;
  Rng rng(8);
  const std::vector<Tensor> input = model_->sample_input(rng);
  const Executor exec(g, DeviceRegistry::ByName("H100"));
  const ExecutionTrace trace = exec.Run(input);
  NodeId target = -1;
  for (const NodeId id : g.op_nodes()) {
    if (g.node(id).op == "linear") {
      target = id;
      break;
    }
  }
  ASSERT_GE(target, 0);
  std::vector<Tensor> leaf_inputs;
  for (const NodeId in : g.node(target).inputs) {
    leaf_inputs.push_back(trace.value(in));
  }
  Tensor tampered = trace.value(target).Clone();
  tampered.mutable_values()[0] += 0.1f;
  const LeafVerdict verdict = AdjudicateLeaf(g, target, leaf_inputs, tampered, *thresholds_);
  EXPECT_TRUE(verdict.proposer_guilty);
  EXPECT_EQ(verdict.path, LeafPath::kTheoreticalBound);
}

TEST_F(ProtocolFixture, LeafTinyPerturbationWithinTheoryCaughtByCommittee) {
  // A deviation under the theoretical cap but over the (much tighter) empirical
  // thresholds must fall through to the committee and be convicted there.
  const Graph& g = *model_->graph;
  Rng rng(9);
  const std::vector<Tensor> input = model_->sample_input(rng);
  const Executor exec(g, DeviceRegistry::ByName("H100"));
  const ExecutionTrace trace = exec.Run(input);
  NodeId target = -1;
  for (const NodeId id : g.op_nodes()) {
    if (g.node(id).op == "linear" && g.node(id).label.find("ffn.fc1") != std::string::npos) {
      target = id;
      break;
    }
  }
  ASSERT_GE(target, 0);
  std::vector<Tensor> leaf_inputs;
  for (const NodeId in : g.node(target).inputs) {
    leaf_inputs.push_back(trace.value(in));
  }
  // Probe upward from a tiny magnitude until we pass the theoretical routing check but
  // exceed empirical thresholds.
  const OpKernel& kernel = OpRegistry::Instance().Get("linear");
  const OpContext fwd{DeviceRegistry::Reference(), leaf_inputs, g.node(target).attrs};
  const Tensor ref = kernel.Forward(fwd);
  const BoundContext bctx{DeviceRegistry::Reference(), leaf_inputs, ref,
                          g.node(target).attrs,        BoundMode::kProbabilistic,
                          kDefaultLambda};
  const DTensor tau = kernel.Bound(bctx);
  double tau_min = 1e9;
  for (const double t : tau.values()) {
    tau_min = std::min(tau_min, t);
  }
  Tensor tampered = ref.Clone();
  for (size_t i = 0; i < tampered.mutable_values().size(); ++i) {
    tampered.mutable_values()[i] += static_cast<float>(0.5 * tau_min);
  }
  const LeafVerdict verdict = AdjudicateLeaf(g, target, leaf_inputs, tampered, *thresholds_);
  if (verdict.path == LeafPath::kCommitteeVote) {
    EXPECT_TRUE(verdict.proposer_guilty)
        << "uniform half-theoretical-cap deviation should violate empirical thresholds";
  }
}

// --------------------------------- dispute game -------------------------------------

TEST_F(ProtocolFixture, HonestRunFinalizesWithoutDispute) {
  Coordinator coordinator;
  DisputeGame game(*model_, *commitment_, *thresholds_, coordinator);
  Rng rng(10);
  const std::vector<Tensor> input = model_->sample_input(rng);
  const DisputeResult result =
      game.Run(input, DeviceRegistry::ByName("H100"), DeviceRegistry::ByName("RTX4090"));
  EXPECT_FALSE(result.challenge_raised);
  EXPECT_EQ(result.final_state, ClaimState::kFinalized);
}

TEST_F(ProtocolFixture, PerturbationLocalizedToExactOperatorAndSlashed) {
  Coordinator coordinator;
  DisputeOptions options;
  options.partition_n = 2;
  DisputeGame game(*model_, *commitment_, *thresholds_, coordinator, options);
  Rng rng(11);
  const std::vector<Tensor> input = model_->sample_input(rng);

  const Graph& g = *model_->graph;
  const NodeId target = g.op_nodes()[g.num_ops() / 3];
  // Non-uniform delta: a constant shift would be legitimately erased by downstream
  // softmax/LayerNorm shift-invariance and never localize.
  Rng delta_rng(99);
  const Tensor delta = Tensor::Randn(g.node(target).shape, delta_rng, 5e-2f);
  const DisputeResult result =
      game.Run(input, DeviceRegistry::ByName("H100"), DeviceRegistry::ByName("RTX4090"),
               {{target, delta}});
  EXPECT_TRUE(result.challenge_raised);
  EXPECT_TRUE(result.proposer_guilty);
  EXPECT_EQ(result.final_state, ClaimState::kProposerSlashed);
  EXPECT_EQ(result.leaf_op, target) << "dispute must localize to the injected operator";
  // O(log2 |V|) rounds.
  const double expected = std::ceil(std::log2(static_cast<double>(g.num_ops())));
  EXPECT_LE(result.rounds, static_cast<int64_t>(expected) + 1);
  EXPECT_GT(result.total_merkle_checks, 0);
  EXPECT_GT(result.gas_used, 1000000);
  EXPECT_GT(result.cost_ratio, 0.1);
  EXPECT_LT(result.cost_ratio, 3.0);
}

// A proposer whose mid-graph operator emits all NaN or all +inf must be challenged,
// localized to that operator and convicted by the theoretical bound at the leaf, just
// like a finite perturbation: a non-finite deviation has infinite error.
TEST_F(ProtocolFixture, NonFiniteOutputLocalizedAndSlashed) {
  const Graph& g = *model_->graph;
  const NodeId target = g.op_nodes()[g.num_ops() / 2];
  Rng rng(12);
  const std::vector<Tensor> input = model_->sample_input(rng);
  for (const float bad :
       {std::numeric_limits<float>::quiet_NaN(), std::numeric_limits<float>::infinity()}) {
    Coordinator coordinator;
    DisputeOptions options;
    options.partition_n = 2;
    DisputeGame game(*model_, *commitment_, *thresholds_, coordinator, options);
    const Tensor delta = Tensor::Full(g.node(target).shape, bad);
    const DisputeResult result =
        game.Run(input, DeviceRegistry::ByName("H100"), DeviceRegistry::ByName("A100"),
                 {{target, delta}});
    EXPECT_TRUE(result.challenge_raised) << bad;
    EXPECT_EQ(result.final_state, ClaimState::kProposerSlashed) << bad;
    EXPECT_EQ(result.leaf_op, target) << bad;
    EXPECT_EQ(result.leaf.path, LeafPath::kTheoreticalBound) << bad;
  }
}

TEST_F(ProtocolFixture, SpuriousChallengeSlashesChallenger) {
  // Force a challenge against an honest proposer by shrinking thresholds drastically
  // (a mis-calibrated challenger); the dispute must end with the challenger slashed.
  Coordinator coordinator;
  const ThresholdSet paranoid = thresholds_->Scaled(1e-9);
  DisputeGame game(*model_, *commitment_, paranoid, coordinator);
  Rng rng(12);
  const std::vector<Tensor> input = model_->sample_input(rng);
  const DisputeResult result =
      game.Run(input, DeviceRegistry::ByName("H100"), DeviceRegistry::ByName("RTX4090"));
  if (result.challenge_raised) {
    // With near-zero thresholds every child looks offending, so the game reaches a
    // leaf; the leaf theoretical check against honest outputs must acquit via
    // committee-at-paranoid-thresholds... the proposer must NOT be found guilty by the
    // sound theoretical path.
    EXPECT_NE(result.leaf.path == LeafPath::kTheoreticalBound && result.proposer_guilty,
              true);
  }
}

TEST_F(ProtocolFixture, WiderPartitionReducesRounds) {
  Rng rng(13);
  const std::vector<Tensor> input = model_->sample_input(rng);
  const Graph& g = *model_->graph;
  const NodeId target = g.op_nodes()[2 * g.num_ops() / 3];
  Rng delta_rng(98);
  const Tensor delta = Tensor::Randn(g.node(target).shape, delta_rng, 5e-2f);

  int64_t rounds_n2 = 0;
  int64_t rounds_n8 = 0;
  for (const int64_t n : {2, 8}) {
    Coordinator coordinator;
    DisputeOptions options;
    options.partition_n = n;
    DisputeGame game(*model_, *commitment_, *thresholds_, coordinator, options);
    const DisputeResult result = game.Run(
        input, DeviceRegistry::ByName("A100"), DeviceRegistry::ByName("RTX6000"),
        {{target, delta}});
    ASSERT_TRUE(result.proposer_guilty);
    ASSERT_EQ(result.leaf_op, target);
    (n == 2 ? rounds_n2 : rounds_n8) = result.rounds;
  }
  EXPECT_LT(rounds_n8, rounds_n2);
}

TEST_F(ProtocolFixture, GasMatchesScheduleDecomposition) {
  Coordinator coordinator;
  DisputeGame game(*model_, *commitment_, *thresholds_, coordinator);
  Rng rng(14);
  const std::vector<Tensor> input = model_->sample_input(rng);
  const Graph& g = *model_->graph;
  const NodeId target = g.op_nodes()[g.num_ops() / 2];
  Rng delta_rng(97);
  const Tensor delta = Tensor::Randn(g.node(target).shape, delta_rng, 5e-2f);
  const DisputeResult result = game.Run(
      input, DeviceRegistry::ByName("H100"), DeviceRegistry::ByName("RTX4090"),
      {{target, delta}});
  const GasSchedule& s = coordinator.schedule();
  int64_t expected = s.commit + s.open_challenge + s.leaf_adjudication + s.settlement;
  for (const RoundStats& round : result.round_stats) {
    expected += s.PartitionCost(round.children) + s.selection;
  }
  EXPECT_EQ(result.gas_used, expected);
}

}  // namespace
}  // namespace tao
