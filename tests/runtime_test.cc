// Parallel runtime layer tests: ThreadPool task execution, ParallelFor coverage and
// nesting, TensorArena recycling, and the protocol's load-bearing invariant — a
// trace's values AND bounds are bitwise identical for every num_threads and arena
// setting, across model-zoo graphs, because commitments hash exact values.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/calib/calibrator.h"
#include "src/graph/executor.h"
#include "src/graph/subgraph.h"
#include "src/models/model_zoo.h"
#include "src/protocol/dispute.h"
#include "src/protocol/multistep.h"
#include "src/runtime/arena.h"
#include "src/runtime/parallel_for.h"
#include "src/runtime/thread_pool.h"
#include "src/util/rng.h"

namespace tao {
namespace {

// ----------------------------------- ThreadPool ------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::atomic<int> done{0};
  constexpr int kTasks = 100;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      count.fetch_add(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < kTasks) {
  }
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPoolTest, SharedPoolSupportsEightWayExecution) {
  // The shared pool must be wide enough to host num_threads = 8 runs even on a
  // single-core CI box (7 workers + caller).
  EXPECT_GE(ThreadPool::Shared().num_workers(), 7);
}

// ----------------------------------- ParallelFor -----------------------------------

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  const ParallelFor parallel(&pool, 4);
  std::vector<std::atomic<int>> hits(1000);
  parallel(1000, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, SequentialFallbackAndEmptyRange) {
  const ParallelFor sequential;  // no pool
  int64_t sum = 0;
  sequential(10, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      sum += i;
    }
  });
  EXPECT_EQ(sum, 45);
  bool called = false;
  sequential(0, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, NestedLoopsOnSamePoolComplete) {
  // A loop body that itself runs a ParallelFor on the same pool must not deadlock:
  // the help-loop design has every caller drain its own chunks.
  ThreadPool pool(2);
  const ParallelFor outer(&pool, 2);
  std::atomic<int64_t> total{0};
  outer(8, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const ParallelFor inner(&pool, 2);
      inner(100, [&](int64_t b, int64_t e) { total.fetch_add(e - b); });
    }
  });
  EXPECT_EQ(total.load(), 800);
}

// ----------------------------------- TensorArena -----------------------------------

TEST(TensorArenaTest, RecyclesUniquelyOwnedBuffers) {
  TensorArena arena;
  Tensor a = arena.Allocate(Shape{4, 4});
  std::memset(a.mutable_values().data(), 0, 16 * sizeof(float));
  arena.Recycle(std::move(a));
  const Tensor b = arena.Allocate(Shape{2, 8});  // same numel, different shape
  EXPECT_EQ(b.shape(), Shape({2, 8}));
  const TensorArena::Stats stats = arena.stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.pool_hits, 1);
  EXPECT_EQ(stats.fresh_allocations, 1);
  EXPECT_EQ(stats.recycled, 1);
}

TEST(TensorArenaTest, RefusesSharedBuffers) {
  TensorArena arena;
  Tensor a = arena.Allocate(Shape{8});
  const Tensor alias = a;  // storage now shared
  arena.Recycle(std::move(a));
  EXPECT_EQ(arena.stats().recycled, 0);
  EXPECT_EQ(alias.numel(), 8);  // alias unharmed
}

// ------------------------- Bitwise determinism of execution ------------------------

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  if (!(a.shape() == b.shape())) {
    return false;
  }
  return std::memcmp(a.values().data(), b.values().data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

bool BitwiseEqual(const DTensor& a, const DTensor& b) {
  if (!(a.shape() == b.shape())) {
    return false;
  }
  return std::memcmp(a.values().data(), b.values().data(),
                     static_cast<size_t>(a.numel()) * sizeof(double)) == 0;
}

void ExpectIdenticalTraces(const Model& model, const DeviceProfile& device) {
  Rng rng(0x7a0);
  const std::vector<Tensor> input = model.sample_input(rng);
  const Graph& graph = *model.graph;
  const Executor exec(graph, device);

  ExecutorOptions baseline_options;
  baseline_options.with_bounds = true;
  const ExecutionTrace baseline = exec.Run(input, baseline_options);

  for (const int threads : {1, 2, 8}) {
    for (const bool reuse : {false, true}) {
      ExecutorOptions options;
      options.with_bounds = true;
      options.num_threads = threads;
      options.reuse_buffers = reuse;
      const ExecutionTrace trace = exec.Run(input, options);
      ASSERT_EQ(trace.values.size(), baseline.values.size());
      for (const NodeId id : graph.op_nodes()) {
        EXPECT_TRUE(BitwiseEqual(trace.value(id), baseline.value(id)))
            << model.name << " node " << id << " diverged at num_threads=" << threads
            << " reuse=" << reuse;
        EXPECT_TRUE(BitwiseEqual(trace.bound(id), baseline.bound(id)))
            << model.name << " bound " << id << " diverged at num_threads=" << threads
            << " reuse=" << reuse;
      }
      // Output-only path (the one that actually recycles buffers) must agree too.
      TensorArena::Stats stats;
      const Tensor out = exec.RunOutput(input, options, &stats);
      EXPECT_TRUE(BitwiseEqual(out, baseline.value(graph.output())))
          << model.name << " RunOutput diverged at num_threads=" << threads
          << " reuse=" << reuse;
      if (reuse) {
        EXPECT_GT(stats.pool_hits, 0)
            << model.name << ": arena reuse produced no pool hits";
      }
    }
  }
}

TEST(RuntimeDeterminismTest, BertMiniTracesBitwiseIdentical) {
  ExpectIdenticalTraces(BuildBertMini(), DeviceRegistry::ByName("H100"));
}

TEST(RuntimeDeterminismTest, ResNetMiniTracesBitwiseIdentical) {
  ExpectIdenticalTraces(BuildResNetMini(), DeviceRegistry::Reference());
}

// WideMlp's first layer is the one served operator above the fork threshold, so a
// cohort of it runs a forked kernel inside each lane task, nested on the same pool.
TEST(RuntimeDeterminismTest, ForkedOperatorInsideLaneTasksMatchesRunOutput) {
  const Model model = BuildWideMlp(
      WideMlpConfig{.input_dim = 16384, .hidden_dim = 64, .num_classes = 32});
  const Graph& graph = *model.graph;
  int64_t largest = 0;
  for (const NodeId id : graph.op_nodes()) {
    largest = std::max(largest, graph.NodeFlops(id));
  }
  ASSERT_GE(largest, kMinForkFlops);

  const std::vector<DeviceProfile>& fleet = DeviceRegistry::Fleet();
  Rng rng(0x7a6);
  std::vector<std::vector<Tensor>> inputs;
  std::vector<ExecutionTrace> expected;
  for (size_t i = 0; i < fleet.size(); ++i) {
    inputs.push_back(model.sample_input(rng));
    expected.push_back(Executor(graph, fleet[i]).Run(inputs.back()));
  }
  ASSERT_GE(inputs.size(), 3u);
  std::vector<Executor::BatchItem> items(inputs.size());
  for (size_t i = 0; i < items.size(); ++i) {
    items[i].inputs = &inputs[i];
    items[i].device = &fleet[i];
  }
  const Executor exec(graph, DeviceRegistry::Reference());
  for (const int threads : {1, 2, 8}) {
    for (const bool reuse : {false, true}) {
      ExecutorOptions options;
      options.num_threads = threads;
      options.reuse_buffers = reuse;
      const std::vector<ExecutionTrace> traces = exec.RunBatch(items, options);
      ASSERT_EQ(traces.size(), items.size());
      for (size_t i = 0; i < traces.size(); ++i) {
        EXPECT_TRUE(BitwiseEqual(traces[i].value(graph.output()),
                                 expected[i].value(graph.output())))
            << fleet[i].name << " lane diverged at num_threads=" << threads
            << " reuse=" << reuse;
      }
    }
  }
  // A dispute re-executes slices through ExecuteSlice, whose only fan-out is the same
  // operator fork: the whole operator range, run from each lane's input, must
  // reproduce that profile's full trace at every width.
  const Slice all_ops{0, graph.num_ops()};
  for (size_t i = 0; i < fleet.size(); ++i) {
    std::map<NodeId, Tensor> boundary;
    for (size_t k = 0; k < inputs[i].size(); ++k) {
      boundary.emplace(graph.input_nodes()[k], inputs[i][k]);
    }
    for (const int threads : {1, 2, 8}) {
      const std::map<NodeId, Tensor> values =
          ExecuteSlice(graph, fleet[i], all_ops, boundary, threads);
      ASSERT_EQ(values.size(), static_cast<size_t>(graph.num_ops()));
      for (const NodeId id : graph.op_nodes()) {
        EXPECT_TRUE(BitwiseEqual(values.at(id), expected[i].value(id)))
            << fleet[i].name << " slice op " << id << " diverged at num_threads=" << threads;
      }
    }
  }
}

TEST(RuntimeDeterminismTest, PerturbedRunsIdenticalAcrossThreads) {
  const Model model = BuildBertMini();
  Rng rng(0x7a1);
  const std::vector<Tensor> input = model.sample_input(rng);
  const Graph& graph = *model.graph;
  const Executor exec(graph, DeviceRegistry::ByName("RTX4090"));

  const NodeId victim = graph.op_nodes()[graph.op_nodes().size() / 2];
  Executor::Perturbation perturbation;
  perturbation.node = victim;
  perturbation.delta = Tensor::Full(graph.node(victim).shape, 1e-3f);

  const ExecutionTrace baseline = exec.RunPerturbed(input, {perturbation});
  for (const int threads : {2, 8}) {
    ExecutorOptions options;
    options.num_threads = threads;
    const ExecutionTrace trace = exec.RunPerturbed(input, {perturbation}, options);
    for (const NodeId id : graph.op_nodes()) {
      ASSERT_TRUE(BitwiseEqual(trace.value(id), baseline.value(id)))
          << "perturbed node " << id << " diverged at num_threads=" << threads;
    }
  }
}

TEST(RuntimeDeterminismTest, ArenaSavesAllocationsOnDeepGraph) {
  const Model model = BuildBertMini();
  Rng rng(0x7a2);
  const std::vector<Tensor> input = model.sample_input(rng);
  const Executor exec(*model.graph, DeviceRegistry::Reference());

  ExecutorOptions options;
  options.reuse_buffers = true;
  TensorArena::Stats stats;
  (void)exec.RunOutput(input, options, &stats);
  // A deep transformer re-uses intermediate buffers heavily: a meaningful fraction
  // of allocation requests must be served from the pool.
  EXPECT_GT(stats.pool_hits, stats.requests / 4)
      << "pool hits " << stats.pool_hits << " of " << stats.requests << " requests";
}

TEST(RuntimeDeterminismTest, ParallelDisputeGameMatchesSequentialVerdict) {
  const Model model = BuildBertMini();
  CalibrateOptions calib_options;
  calib_options.num_samples = 4;
  const Calibration calibration = Calibrate(model, DeviceRegistry::Fleet(), calib_options);
  const ThresholdSet thresholds = calibration.MakeThresholds(3.0);
  const ModelCommitment commitment(*model.graph, thresholds);

  Rng rng(0x7a4);
  const std::vector<Tensor> input = model.sample_input(rng);
  const Graph& g = *model.graph;
  const NodeId target = g.op_nodes()[g.num_ops() / 3];
  Rng delta_rng(0x7a5);
  const Tensor delta = Tensor::Randn(g.node(target).shape, delta_rng, 5e-2f);
  const std::vector<Executor::Perturbation> cheat = {{target, delta}};

  const auto run = [&](const DisputeOptions& options) {
    Coordinator coordinator;
    DisputeGame game(model, commitment, thresholds, coordinator, options);
    return game.Run(input, DeviceRegistry::ByName("H100"), DeviceRegistry::ByName("RTX4090"),
                    cheat);
  };
  for (const int64_t n : {2, 4}) {
    DisputeOptions sequential;
    sequential.partition_n = n;
    const DisputeResult baseline = run(sequential);
    ASSERT_TRUE(baseline.proposer_guilty) << "N=" << n;
    ASSERT_EQ(baseline.leaf_op, target) << "N=" << n;

    DisputeOptions options = sequential;
    options.num_threads = 4;
    const DisputeResult result = run(options);
    // The runtime is bitwise deterministic, so every protocol-visible outcome —
    // verdict, localization, round count, on-chain gas — and the challenger's work
    // match the sequential game.
    EXPECT_EQ(result.proposer_guilty, baseline.proposer_guilty) << "N=" << n;
    EXPECT_EQ(result.leaf_op, baseline.leaf_op) << "N=" << n;
    EXPECT_EQ(result.final_state, baseline.final_state) << "N=" << n;
    EXPECT_EQ(result.rounds, baseline.rounds) << "N=" << n;
    EXPECT_EQ(result.total_merkle_checks, baseline.total_merkle_checks) << "N=" << n;
    EXPECT_EQ(result.gas_used, baseline.gas_used) << "N=" << n;
    EXPECT_EQ(result.challenger_flops, baseline.challenger_flops) << "N=" << n;
  }
}

TEST(RuntimeDeterminismTest, ConcurrentDecodePairMatchesSequential) {
  const Model model = BuildQwenMini();
  Rng rng(0x7a3);
  std::vector<float> prompt;
  const int64_t window = model.graph->node(model.graph->input_nodes()[0]).shape.numel();
  for (int64_t i = 0; i < window; ++i) {
    prompt.push_back(static_cast<float>(rng.NextU64() % 512));
  }
  const TieBreakConfig tie_break;
  const DeviceProfile& proposer_device = DeviceRegistry::ByName("H100");
  const DeviceProfile& challenger_device = DeviceRegistry::ByName("RTX4090");

  const DecodeResult seq_proposer = Decode(model, prompt, 4, proposer_device, tie_break);
  const DecodeResult seq_challenger = Decode(model, prompt, 4, challenger_device, tie_break);

  ExecutorOptions exec_options;
  exec_options.num_threads = 4;
  const DecodePair pair = DecodeBothParties(model, prompt, 4, proposer_device,
                                            challenger_device, tie_break, {}, exec_options);
  EXPECT_EQ(pair.proposer.temporal_root, seq_proposer.temporal_root);
  EXPECT_EQ(pair.challenger.temporal_root, seq_challenger.temporal_root);
  ASSERT_EQ(pair.proposer.steps.size(), seq_proposer.steps.size());
  for (size_t s = 0; s < pair.proposer.steps.size(); ++s) {
    EXPECT_EQ(pair.proposer.steps[s].token, seq_proposer.steps[s].token);
  }
}

}  // namespace
}  // namespace tao
