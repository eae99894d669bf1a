// Multi-model registry + serving-gateway suite. Three layers:
//
//   * Lifecycle: the register -> commit -> serve -> drain -> retire state machine,
//     with every pre-serving / post-serving submission shed under its DISTINCT
//     gateway reject code, and drain-before-retire delivering every in-flight
//     verdict before the service tears down.
//
//   * The routing bitwise-equivalence sweep: three zoo models served concurrently
//     through one gateway, one submitter thread per model (cross-model
//     interleaving is real concurrency; each model's submission order is fixed),
//     coordinator shards {1, 4} per model. Every model's verdicts, C0 digests,
//     claim ids, per-claim gas, and full ledger must be bitwise identical to a
//     sequential reference replay of THAT model's submission sequence alone —
//     the per-model determinism contract of docs/registry.md.
//
//   * Metrics: per-model/aggregate namespacing (no counter-name collisions), and
//     the budget-apportionment rule.
//
// The whole suite must run TSan-clean (CI runs it in the tsan job).

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/calib/calibrator.h"
#include "src/registry/serving_gateway.h"
#include "tests/test_claims.h"

namespace tao {
namespace {

// Small zoo variants: the sweep runs 3 models x 2 shard configs x claims, so the
// minis are scaled below their defaults to keep the suite fast. Structure (op mix,
// attention/conv/norm kinds) is what the routing equivalence exercises, not width.
BertConfig SmallBertConfig() {
  BertConfig config;
  config.seq_len = 12;
  config.dim = 32;
  config.ffn_dim = 64;
  config.layers = 2;
  return config;
}

Model BuildSmallBert() { return BuildBertMini(SmallBertConfig()); }

// A node-for-node copy of `graph` whose softmax operators name `axis` in their attrs:
// the same weights and, for an axis equal to the last, the same computation, under
// other operator signatures.
Graph WithSoftmaxAxis(const Graph& graph, int64_t axis) {
  Graph copy;
  for (const Node& node : graph.nodes()) {
    switch (node.kind) {
      case NodeKind::kInput:
        copy.AddInput(node.label, node.shape);
        break;
      case NodeKind::kParam:
        copy.AddParam(node.label, node.value);
        break;
      case NodeKind::kOp: {
        Attrs attrs = node.attrs;
        if (node.op == "softmax") {
          attrs.Set("axis", axis);
        }
        copy.AddOp(node.op, node.label, node.inputs, std::move(attrs));
        break;
      }
    }
  }
  copy.SetOutput(graph.output());
  return copy;
}

Model BuildSmallQwen() {
  QwenConfig config;
  config.seq_len = 12;
  config.dim = 32;
  config.ffn_dim = 64;
  config.layers = 2;
  return BuildQwenMini(config);
}

Model BuildSmallResNet() {
  ResNetConfig config;
  config.image_size = 16;
  config.stem_channels = 4;
  config.blocks_per_stage = {1, 1};
  config.num_classes = 8;
  return BuildResNetMini(config);
}

// One model's committed artifacts, shared across the suite's gateways.
struct CommittedModel {
  Model model;
  std::unique_ptr<ThresholdSet> thresholds;
  std::unique_ptr<ModelCommitment> commitment;
};

CommittedModel MakeCommitted(Model model) {
  CommittedModel committed;
  committed.model = std::move(model);
  CalibrateOptions options;
  options.num_samples = 3;
  committed.thresholds = std::make_unique<ThresholdSet>(
      Calibrate(committed.model, DeviceRegistry::Fleet(), options).MakeThresholds(3.0));
  committed.commitment =
      std::make_unique<ModelCommitment>(*committed.model.graph, *committed.thresholds);
  return committed;
}

class RegistryGatewayFixture : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    models_ = new std::vector<CommittedModel>();
    models_->push_back(MakeCommitted(BuildSmallBert()));
    models_->push_back(MakeCommitted(BuildSmallQwen()));
    models_->push_back(MakeCommitted(BuildSmallResNet()));
  }

  static void TearDownTestSuite() {
    delete models_;
    models_ = nullptr;
  }

  static std::vector<CommittedModel>* models_;
};

std::vector<CommittedModel>* RegistryGatewayFixture::models_ = nullptr;

// Registers and commits every fixture model into `registry` with `shards`
// coordinator shards each; returns the assigned ids (fixture order).
std::vector<ModelId> CommitAll(ModelRegistry& registry, size_t shards) {
  std::vector<ModelId> ids;
  for (const CommittedModel& committed : *RegistryGatewayFixture::models_) {
    const ModelId id = registry.Register(committed.model);
    ModelCommitConfig config;
    config.coordinator_shards = shards;
    registry.Commit(id, *committed.commitment, *committed.thresholds, config);
    ids.push_back(id);
  }
  return ids;
}

// Reference outcome of one claim under the model's sequential path.
struct ReferenceOutcome {
  ClaimId claim_id = 0;
  Digest c0{};
  bool flagged = false;
  bool proposer_guilty = false;
  ClaimState final_state = ClaimState::kCommitted;
  int64_t gas_used = 0;
};

// Replays `claims` one at a time in order against `coordinator`, homing claim i to
// shard i % S — exactly the per-shard lane assignment the service performs — so the
// reference reproduces what a gateway-run model must produce bitwise.
std::vector<ReferenceOutcome> RunSequentialReference(const CommittedModel& committed,
                                                     const std::vector<BatchClaim>& claims,
                                                     Coordinator& coordinator) {
  const Graph& graph = *committed.model.graph;
  const size_t shards = coordinator.num_shards();
  std::vector<ReferenceOutcome> outcomes;
  outcomes.reserve(claims.size());
  for (size_t i = 0; i < claims.size(); ++i) {
    const BatchClaim& claim = claims[i];
    const uint64_t shard = i % shards;
    ReferenceOutcome ref;
    if (claim.supervised()) {
      DisputeGame game(committed.model, *committed.commitment, *committed.thresholds,
                       coordinator);
      const DisputeResult result = game.Run(claim.inputs, *claim.proposer_device,
                                            *claim.verifier_device, claim.perturbations,
                                            shard);
      ref.claim_id = result.claim_id;
      ref.c0 = coordinator.claim(result.claim_id).c0;
      ref.flagged = result.challenge_raised;
      ref.proposer_guilty = result.proposer_guilty;
      ref.final_state = result.final_state;
      ref.gas_used = result.gas_used;
    } else {
      const Executor exec(graph, *claim.proposer_device);
      const ExecutionTrace trace = exec.RunPerturbed(claim.inputs, claim.perturbations);
      const DisputeOptions defaults;
      ResultMeta meta;
      meta.device = claim.proposer_device->name;
      meta.challenge_window = defaults.challenge_window;
      ref.c0 = ComputeResultCommitment(*committed.commitment, claim.inputs,
                                       trace.value(graph.output()), meta);
      const ClaimId id = coordinator.SubmitCommitment(ref.c0, defaults.challenge_window,
                                                      defaults.proposer_bond, shard);
      coordinator.AdvanceTimeFor(id, defaults.challenge_window);
      ref.claim_id = id;
      ref.final_state = coordinator.TryFinalize(id);
      ref.gas_used = coordinator.claim_gas(id);
    }
    outcomes.push_back(ref);
  }
  return outcomes;
}

// ----------------------------------- lifecycle ---------------------------------------

TEST_F(RegistryGatewayFixture, LifecycleRejectCodesAreDistinctPerState) {
  const CommittedModel& committed = (*models_)[0];
  const std::vector<BatchClaim> claims =
      MakeTestClaims(committed.model, 2, 0x11f3, /*cheat_rate=*/0.0,
                     /*supervised_rate=*/0.0);

  ModelRegistry registry;
  ServingGateway gateway(registry);

  // Unknown id: never registered.
  EXPECT_EQ(gateway.Submit(42, claims[0]).status, GatewayStatus::kUnknownModel);

  // Registered but not committed: there is nothing to verify against.
  const ModelId id = registry.Register(committed.model);
  EXPECT_EQ(registry.state(id), ModelLifecycle::kRegistered);
  EXPECT_EQ(gateway.Submit(id, claims[0]).status, GatewayStatus::kNotCommitted);

  // Committed but no serving capacity attached.
  registry.Commit(id, *committed.commitment, *committed.thresholds);
  EXPECT_EQ(registry.state(id), ModelLifecycle::kCommitted);
  EXPECT_EQ(gateway.Submit(id, claims[0]).status, GatewayStatus::kNotServing);
  EXPECT_EQ(registry.coordinator(id).model_id(), id);

  // Serving: accepted, and the claim settles against THIS model's coordinator.
  gateway.Serve(id);
  EXPECT_EQ(registry.state(id), ModelLifecycle::kServing);
  GatewaySubmitResult accepted = gateway.Submit(id, claims[0]);
  ASSERT_TRUE(accepted.accepted());
  const BatchClaimOutcome& outcome = accepted.ticket->Wait();
  EXPECT_EQ(outcome.model, id);
  EXPECT_EQ(registry.coordinator(id).claim(outcome.claim_id).model, id);

  // Draining: admission closed, in-flight work still delivers.
  gateway.Drain(id);
  EXPECT_EQ(registry.state(id), ModelLifecycle::kDraining);
  EXPECT_EQ(gateway.Submit(id, claims[1]).status, GatewayStatus::kDraining);

  // Retired: service gone; ledger and metrics stay readable.
  gateway.Retire(id);
  EXPECT_EQ(registry.state(id), ModelLifecycle::kRetired);
  EXPECT_EQ(gateway.Submit(id, claims[1]).status, GatewayStatus::kRetired);
  EXPECT_EQ(gateway.model_metrics(id).completed, 1);
  EXPECT_EQ(registry.coordinator(id).claim(outcome.claim_id).state,
            ClaimState::kFinalized);

  const GatewaySnapshot snapshot = gateway.metrics();
  EXPECT_EQ(snapshot.rejected_unknown, 1);
  EXPECT_EQ(snapshot.rejected_not_committed, 1);
  EXPECT_EQ(snapshot.rejected_not_serving, 1);
  EXPECT_EQ(snapshot.rejected_draining, 1);
  EXPECT_EQ(snapshot.rejected_retired, 1);
}

TEST_F(RegistryGatewayFixture, CommitRejectsThresholdsOffTheCommittedRoot) {
  const CommittedModel& committed = (*models_)[0];
  const std::vector<BatchClaim> claims =
      MakeTestClaims(committed.model, 1, 0x11f4, /*cheat_rate=*/0.0,
                     /*supervised_rate=*/0.0);
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      std::string("tao_registry_commit_").append(std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  ModelCommitConfig config;
  config.durability.directory = root.string();
  {
    ModelRegistry registry;
    ServingGateway gateway(registry);
    const ModelId id = registry.Register(committed.model);
    ASSERT_EQ(id, 1u);

    // Thresholds that do not hash to r_e: rejected, and the model stays registered
    // with no coordinator and no durability directory.
    EXPECT_EQ(registry.Commit(id, *committed.commitment, committed.thresholds->Scaled(2.0),
                              config),
              CommitStatus::kThresholdRootMismatch);
    EXPECT_EQ(registry.state(id), ModelLifecycle::kRegistered);
    EXPECT_FALSE(std::filesystem::exists(root / "model-1"));
    EXPECT_EQ(gateway.Submit(id, claims[0]).status, GatewayStatus::kNotCommitted);

    // Commitments to other artifacts, over the same thresholds: the same BERT with
    // other weights (only the weight leaves differ), with its softmax axis written 2
    // instead of -1 (the same computation; only the signature leaves differ), and with
    // one layer more (the leaf counts differ). Each is rejected the same way.
    BertConfig reseeded = SmallBertConfig();
    reseeded.seed += 1;
    BertConfig deeper = SmallBertConfig();
    deeper.layers = 3;
    const Graph rewired = WithSoftmaxAxis(*committed.model.graph, 2);
    std::vector<std::pair<std::string, ModelCommitment>> others;
    others.emplace_back("reseeded",
                        ModelCommitment(*BuildBertMini(reseeded).graph, *committed.thresholds));
    others.emplace_back("softmax axis 2", ModelCommitment(rewired, *committed.thresholds));
    others.emplace_back("3 layers",
                        ModelCommitment(*BuildBertMini(deeper).graph, *committed.thresholds));
    ASSERT_EQ(others[1].second.weight_root(), committed.commitment->weight_root());
    ASSERT_NE(others[1].second.graph_root(), committed.commitment->graph_root());
    for (const auto& [name, other] : others) {
      EXPECT_EQ(registry.Commit(id, other, *committed.thresholds, config),
                CommitStatus::kArtifactMismatch)
          << name;
      EXPECT_EQ(registry.state(id), ModelLifecycle::kRegistered);
      EXPECT_FALSE(std::filesystem::exists(root / "model-1"));
    }
    EXPECT_EQ(gateway.Submit(id, claims[0]).status, GatewayStatus::kNotCommitted);

    // The committed pair is accepted.
    EXPECT_EQ(registry.Commit(id, *committed.commitment, *committed.thresholds, config),
              CommitStatus::kOk);
    EXPECT_EQ(registry.state(id), ModelLifecycle::kCommitted);
    EXPECT_EQ(registry.thresholds(id).CommitRoot(), committed.commitment->threshold_root());
    EXPECT_TRUE(std::filesystem::exists(root / "model-1"));
  }
  std::filesystem::remove_all(root);
}

TEST_F(RegistryGatewayFixture, DrainBeforeRetireDeliversEveryInFlightVerdict) {
  const CommittedModel& committed = (*models_)[0];
  // Supervised mix so drain has real resolution work (disputes) in flight.
  const std::vector<BatchClaim> claims =
      MakeTestClaims(committed.model, 8, 0xd7a1f, /*cheat_rate=*/0.4,
                     /*supervised_rate=*/0.6);

  ModelRegistry registry;
  ServingGateway gateway(registry);
  const ModelId id = registry.Register(committed.model);
  registry.Commit(id, *committed.commitment, *committed.thresholds);
  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 4;  // backpressure mid-run: claims are in flight at Drain
  options.batching.initial_hint = 2;
  options.verifier.reuse_buffers = true;
  gateway.Serve(id, options);

  std::vector<std::shared_ptr<ClaimTicket>> tickets;
  for (const BatchClaim& claim : claims) {
    GatewaySubmitResult result = gateway.Submit(id, claim);
    ASSERT_TRUE(result.accepted());
    tickets.push_back(std::move(result.ticket));
  }
  gateway.Drain(id);

  for (size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_TRUE(tickets[i]->done()) << "drain returned before claim " << i << " resolved";
  }
  const MetricsSnapshot metrics = gateway.model_metrics(id);
  EXPECT_EQ(metrics.accepted, static_cast<int64_t>(claims.size()));
  EXPECT_EQ(metrics.completed, static_cast<int64_t>(claims.size()));

  gateway.Retire(id);
  // The final snapshot survives the teardown.
  EXPECT_EQ(gateway.model_metrics(id).completed, static_cast<int64_t>(claims.size()));

  // Re-serve: a new service generation over the SAME coordinator — claim ids and
  // the ledger continue where the previous generation stopped.
  const int64_t gas_before = registry.coordinator(id).gas().total();
  gateway.Serve(id, options);
  EXPECT_EQ(registry.state(id), ModelLifecycle::kServing);
  GatewaySubmitResult reserved = gateway.Submit(id, claims[0]);
  ASSERT_TRUE(reserved.accepted());
  const BatchClaimOutcome& outcome = reserved.ticket->Wait();
  EXPECT_EQ(outcome.claim_id, static_cast<ClaimId>(claims.size() + 1));
  EXPECT_GT(registry.coordinator(id).gas().total(), gas_before);
  gateway.Drain(id);
}

TEST_F(RegistryGatewayFixture, GatewayTeardownRetiresModelsForLaterGenerations) {
  const CommittedModel& committed = (*models_)[0];
  const std::vector<BatchClaim> claims =
      MakeTestClaims(committed.model, 1, 0x9e4a, /*cheat_rate=*/0.0,
                     /*supervised_rate=*/0.0);
  ModelRegistry registry;
  ModelId id = 0;
  {
    ServingGateway gateway(registry);
    id = registry.Register(committed.model);
    registry.Commit(id, *committed.commitment, *committed.thresholds);
    gateway.Serve(id);
    ASSERT_TRUE(gateway.Submit(id, claims[0]).accepted());
  }
  // The destructor drained AND retired: the registry (which outlives any one
  // gateway) is not stranded in kDraining, so a later gateway generation can
  // re-serve the model over its persistent coordinator.
  EXPECT_EQ(registry.state(id), ModelLifecycle::kRetired);
  ServingGateway second(registry);
  second.Serve(id);
  EXPECT_EQ(registry.state(id), ModelLifecycle::kServing);
  GatewaySubmitResult result = second.Submit(id, claims[0]);
  ASSERT_TRUE(result.accepted());
  EXPECT_EQ(result.ticket->Wait().claim_id, 2u);  // ids continue across generations
}

// --------------------- routing bitwise-equivalence sweep -----------------------------

TEST_F(RegistryGatewayFixture, InterleavedModelsMatchPerModelSequentialReferences) {
  constexpr size_t kClaimsPerModel = 6;
  const size_t num_models = models_->size();

  // Per-model deterministic workloads (distinct seeds -> distinct inputs/cheats).
  std::vector<std::vector<BatchClaim>> claims(num_models);
  for (size_t m = 0; m < num_models; ++m) {
    claims[m] = MakeTestClaims((*models_)[m].model, kClaimsPerModel, 0x90de + m,
                               /*cheat_rate=*/0.4, /*supervised_rate=*/0.6);
  }

  for (const size_t shards : {size_t{1}, size_t{4}}) {
    const std::string shard_label = "shards=" + std::to_string(shards);

    // Per-model sequential references on fresh coordinators with the same shard
    // count and model ids the gateway run will use (ids are dense from 1 in
    // registration order).
    std::vector<std::unique_ptr<Coordinator>> reference_coordinators;
    std::vector<std::vector<ReferenceOutcome>> references;
    for (size_t m = 0; m < num_models; ++m) {
      reference_coordinators.push_back(std::make_unique<Coordinator>(
          GasSchedule{}, /*round_timeout=*/10, shards, static_cast<ModelId>(m + 1)));
      references.push_back(RunSequentialReference((*models_)[m], claims[m],
                                                  *reference_coordinators[m]));
    }
    int64_t flagged = 0;
    for (const auto& reference : references) {
      for (const ReferenceOutcome& ref : reference) {
        flagged += ref.flagged ? 1 : 0;
      }
    }
    ASSERT_GT(flagged, 0) << "the sweep must exercise the dispute path";

    ModelRegistry registry;
    ServingGateway gateway(registry);
    const std::vector<ModelId> ids = CommitAll(registry, shards);
    for (size_t m = 0; m < num_models; ++m) {
      ServiceOptions options;
      options.num_workers = 2;
      options.queue_capacity = 4;  // admission backpressure mid-run
      options.batching.initial_hint = 3;
      options.verifier.dispute.num_threads = 2;
      options.verifier.reuse_buffers = true;
      gateway.Serve(ids[m], options);
    }
    EXPECT_EQ(gateway.serving_count(), num_models);

    // One submitter thread per model: cross-model arrival order is a real race,
    // but each MODEL's submission order is fixed — which is all the per-model
    // invariant conditions on.
    std::vector<std::vector<std::shared_ptr<ClaimTicket>>> tickets(num_models);
    std::vector<std::thread> submitters;
    for (size_t m = 0; m < num_models; ++m) {
      submitters.emplace_back([&, m] {
        for (const BatchClaim& claim : claims[m]) {
          GatewaySubmitResult result = gateway.Submit(ids[m], claim, /*submitter=*/m);
          ASSERT_TRUE(result.accepted());
          tickets[m].push_back(std::move(result.ticket));
        }
      });
    }
    for (std::thread& t : submitters) {
      t.join();
    }
    gateway.DrainAll();

    // Per-model bitwise equivalence: outcomes, claim ids, gas, and the model's
    // whole ledger match the model's OWN sequential replay, no matter how the
    // three models' submissions interleaved at the gateway.
    for (size_t m = 0; m < num_models; ++m) {
      const std::string label = shard_label + " model=" + (*models_)[m].model.name;
      ASSERT_EQ(tickets[m].size(), kClaimsPerModel) << label;
      for (size_t i = 0; i < kClaimsPerModel; ++i) {
        const BatchClaimOutcome& outcome = tickets[m][i]->Wait();
        const ReferenceOutcome& ref = references[m][i];
        EXPECT_EQ(outcome.model, ids[m]) << label << ": claim " << i;
        EXPECT_EQ(outcome.claim_id, ref.claim_id) << label << ": claim " << i;
        EXPECT_EQ(outcome.c0, ref.c0) << label << ": claim " << i << " C0 diverged";
        EXPECT_EQ(outcome.flagged, ref.flagged) << label << ": claim " << i;
        EXPECT_EQ(outcome.proposer_guilty, ref.proposer_guilty)
            << label << ": claim " << i;
        EXPECT_EQ(outcome.final_state, ref.final_state) << label << ": claim " << i;
        EXPECT_EQ(outcome.gas_used, ref.gas_used) << label << ": claim " << i;
      }
      const Coordinator& coordinator = registry.coordinator(ids[m]);
      const Balances got = coordinator.balances();
      const Balances want = reference_coordinators[m]->balances();
      EXPECT_EQ(got.proposer, want.proposer) << label;
      EXPECT_EQ(got.challenger, want.challenger) << label;
      EXPECT_EQ(got.treasury, want.treasury) << label;
      EXPECT_EQ(coordinator.gas().total(), reference_coordinators[m]->gas().total())
          << label;
      // Every claim record is scoped to its model.
      for (size_t shard = 0; shard < shards; ++shard) {
        for (const ClaimId claim_id : coordinator.shard_claims(shard)) {
          EXPECT_EQ(coordinator.claim(claim_id).model, ids[m]) << label;
        }
      }
    }
  }
}

// ------------------------------ metrics + budgets ------------------------------------

TEST_F(RegistryGatewayFixture, NamedCountersAreNamespacedAndCollisionFree) {
  const CommittedModel& committed = (*models_)[0];
  ModelRegistry registry;
  ServingGateway gateway(registry);
  const std::vector<ModelId> ids = CommitAll(registry, /*shards=*/1);
  for (const ModelId id : ids) {
    gateway.Serve(id);
  }
  // A couple of real verdicts so the counters are non-trivial.
  const std::vector<BatchClaim> claims =
      MakeTestClaims(committed.model, 2, 0xc0de, /*cheat_rate=*/0.0,
                     /*supervised_rate=*/0.5);
  for (const BatchClaim& claim : claims) {
    ASSERT_TRUE(gateway.Submit(ids[0], claim).accepted());
  }
  gateway.DrainAll();

  const GatewaySnapshot snapshot = gateway.metrics();
  const std::vector<NamedCounter> counters = snapshot.NamedCounters();
  std::set<std::string> names;
  for (const NamedCounter& counter : counters) {
    EXPECT_TRUE(names.insert(counter.name).second)
        << "duplicate counter name: " << counter.name;
  }
  // Every model exports under its own scope; the aggregate under its own.
  for (const ModelId id : ids) {
    const std::string scope = "model/" + std::to_string(id) + "/claims/accepted";
    EXPECT_EQ(names.count(scope), 1u) << scope;
  }
  EXPECT_EQ(names.count("aggregate/claims/accepted"), 1u);
  EXPECT_EQ(names.count("gateway/rejected/unknown_model"), 1u);

  // The aggregate is the fold of the per-model snapshots.
  int64_t accepted_sum = 0;
  for (const GatewayModelMetrics& model : snapshot.models) {
    accepted_sum += model.service.accepted;
  }
  EXPECT_EQ(snapshot.aggregate.accepted, accepted_sum);
  EXPECT_EQ(snapshot.aggregate.accepted, static_cast<int64_t>(claims.size()));
  EXPECT_EQ(snapshot.aggregate.completed, static_cast<int64_t>(claims.size()));
}

TEST(GatewayBudgetTest, ApportionmentIsProportionalWithFloor) {
  // Equal weights split evenly.
  EXPECT_EQ(ServingGateway::ApportionBudget(100, 10, {1, 1}),
            (std::vector<int64_t>{50, 50}));
  // Floor first, remainder by weight: the hot model takes the bulk, the idle one
  // keeps the floor, and the shares never over-commit the total.
  const std::vector<int64_t> shares = ServingGateway::ApportionBudget(1000, 50, {99, 1});
  EXPECT_EQ(shares.size(), 2u);
  EXPECT_EQ(shares[0], 941);  // 50 + 99% of the 900 remainder
  EXPECT_EQ(shares[1], 59);   // 50 + 1% of the remainder
  EXPECT_LE(shares[0] + shares[1], 1000);
  // Many idle models next to one hot model must not multiply the floor past the
  // total (the over-commit regression this rule exists to prevent).
  const std::vector<int64_t> crowd =
      ServingGateway::ApportionBudget(1000, 10, {91, 1, 1, 1, 1, 1, 1, 1, 1, 1});
  int64_t sum = 0;
  for (const int64_t share : crowd) {
    EXPECT_GE(share, 10);
    sum += share;
  }
  EXPECT_LE(sum, 1000);
  // The floor is a hard minimum: a too-small total over-commits rather than
  // starving models below a workable cohort.
  EXPECT_EQ(ServingGateway::ApportionBudget(10, 8, {1, 1}),
            (std::vector<int64_t>{8, 8}));
  // Degenerate: nothing serving.
  EXPECT_TRUE(ServingGateway::ApportionBudget(1000, 50, {}).empty());
}

TEST_F(RegistryGatewayFixture, ServingModelsReceiveBudgetShares) {
  ModelRegistry registry;
  GatewayOptions options;
  options.total_memory_budget_bytes = 64ll << 20;
  options.min_model_budget_bytes = 4ll << 20;
  ServingGateway gateway(registry, options);
  const std::vector<ModelId> ids = CommitAll(registry, /*shards=*/1);
  for (const ModelId id : ids) {
    gateway.Serve(id);
  }
  // Idle models: equal queue pressure, so equal shares that cover the budget.
  int64_t total = 0;
  for (const ModelId id : ids) {
    const int64_t share = gateway.model_memory_budget(id);
    EXPECT_GE(share, options.min_model_budget_bytes);
    total += share;
  }
  EXPECT_GE(total, options.total_memory_budget_bytes - static_cast<int64_t>(ids.size()));
  gateway.DrainAll();
}

}  // namespace
}  // namespace tao
