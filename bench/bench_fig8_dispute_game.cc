// Fig. 8: dispute-game microbenchmarks on the BERT mini — varying the partition width
// N in {2, 4, 6, 8, 12, 16}: average dispute rounds, average off-chain dispute time,
// average Merkle proof checks; plus per-round substep time (proposer partition vs
// challenger re-execution/selection) at N = 4, measured across eight different
// perturbed operators spread through the model.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/protocol/dispute.h"
#include "src/util/stopwatch.h"

using namespace tao;
using namespace tao::bench;

int main() {
  std::printf("=== Fig. 8: dispute game vs partition width N (BERT mini) ===\n\n");
  const Model model = BuildBertMini();
  const Graph& graph = *model.graph;
  const Calibration calibration = CalibrateModel(model, /*samples=*/8);
  const ThresholdSet thresholds = calibration.MakeThresholds(3.0);
  const ModelCommitment commitment(graph, thresholds);

  // Eight perturbation sites spread through the canonical order (as in the paper).
  std::vector<NodeId> sites;
  for (int i = 0; i < 8; ++i) {
    sites.push_back(graph.op_nodes()[static_cast<size_t>((i * graph.num_ops()) / 8 +
                                                         graph.num_ops() / 16)]);
  }

  Rng input_rng(0xd15b);
  const std::vector<Tensor> input = model.sample_input(input_rng);

  TablePrinter table({"N", "avg rounds", "avg dispute time (ms)", "avg merkle checks",
                      "avg gas (kgas)", "avg cost ratio"});
  std::vector<std::vector<RoundStats>> n4_round_stats;

  for (const int64_t n : {2, 4, 6, 8, 12, 16}) {
    double total_rounds = 0.0;
    double total_time_ms = 0.0;
    double total_checks = 0.0;
    double total_gas = 0.0;
    double total_ratio = 0.0;
    int games = 0;
    for (const NodeId site : sites) {
      Rng delta_rng(0xde17a + static_cast<uint64_t>(site));
      const Tensor delta = Tensor::Randn(graph.node(site).shape, delta_rng, 5e-2f);
      Coordinator coordinator;
      DisputeOptions options;
      options.partition_n = n;
      DisputeGame game(model, commitment, thresholds, coordinator, options);
      Stopwatch watch;
      const DisputeResult result =
          game.Run(input, DeviceRegistry::ByName("H100"), DeviceRegistry::ByName("RTX4090"),
                   {{site, delta}});
      const double elapsed = watch.ElapsedMillis();
      if (!result.proposer_guilty) {
        continue;  // perturbation hidden by shift-invariance at this site; skip
      }
      total_rounds += static_cast<double>(result.rounds);
      total_time_ms += elapsed;
      total_checks += static_cast<double>(result.total_merkle_checks);
      total_gas += static_cast<double>(result.gas_used) / 1000.0;
      total_ratio += result.cost_ratio;
      ++games;
      if (n == 4) {
        n4_round_stats.push_back(result.round_stats);
      }
    }
    table.AddRow({std::to_string(n), TablePrinter::Fixed(total_rounds / games, 1),
                  TablePrinter::Fixed(total_time_ms / games, 1),
                  TablePrinter::Fixed(total_checks / games, 0),
                  TablePrinter::Fixed(total_gas / games, 1),
                  TablePrinter::Fixed(total_ratio / games, 2)});
    std::printf("N=%lld done (%d/%zu games convicted)\n", static_cast<long long>(n), games,
                sites.size());
  }
  std::printf("\n");
  table.Print();

  // Per-round substep time at N = 4, aggregated across the eight dispute games.
  std::printf("\nper-round substep time at N=4 (across %zu games):\n", n4_round_stats.size());
  TablePrinter substeps({"round", "proposer partition ms (med)", "challenger select ms (med)",
                         "slice size (med)"});
  size_t max_rounds = 0;
  for (const auto& stats : n4_round_stats) {
    max_rounds = std::max(max_rounds, stats.size());
  }
  for (size_t r = 0; r < max_rounds; ++r) {
    std::vector<double> partition_ms;
    std::vector<double> select_ms;
    std::vector<double> sizes;
    for (const auto& stats : n4_round_stats) {
      if (r < stats.size()) {
        partition_ms.push_back(stats[r].proposer_partition_ms);
        select_ms.push_back(stats[r].challenger_selection_ms);
        sizes.push_back(static_cast<double>(stats[r].slice_size));
      }
    }
    substeps.AddRow({std::to_string(r), TablePrinter::Fixed(Median(partition_ms), 2),
                     TablePrinter::Fixed(Median(select_ms), 2),
                     TablePrinter::Fixed(Median(sizes), 0)});
  }
  substeps.Print();
  std::printf("\nShape check vs paper (Fig. 8): rounds fall ~log_N |V| (from ~log2 at\n"
              "N=2 to ~3 at N>=12); dispute time drops sharply then plateaus; Merkle\n"
              "checks shrink with N; both substeps decay with round index as slices\n"
              "shrink. Guideline N in [8,12].\n");

  // --- Speculation-policy tradeoff (the ROADMAP adaptive-speculation item) ----------
  // Speculation is off (kLazy) by default because fanning every round's children
  // out inflates the DCR (wasted work past the offender, worst on the huge
  // early-round slices). kAdaptive speculates only when partition_n > 2 and the
  // round's slice is already small, buying back most of the wall-clock win at a
  // fraction of the DCR cost. Verdicts are identical across policies (checked
  // below) — only cost accounting and latency move.
  std::printf("\n=== speculation policy: DCR vs dispute latency ===\n\n");
  TablePrinter spec_table({"N", "policy", "avg dispute time (ms)", "avg cost ratio",
                           "avg reexec flops (M)"});
  for (const int64_t n : {4, 8}) {
    // One lazy run per site serves as BOTH the kLazy row and the verdict
    // reference the speculative policies are checked against.
    struct LazyRun {
      NodeId site;
      Tensor delta;
      DisputeResult result;
      double elapsed_ms = 0.0;
    };
    std::vector<LazyRun> lazy_runs;
    for (const NodeId site : sites) {
      Rng delta_rng(0xde17a + static_cast<uint64_t>(site));
      LazyRun run;
      run.site = site;
      run.delta = Tensor::Randn(graph.node(site).shape, delta_rng, 5e-2f);
      Coordinator coordinator;
      DisputeOptions options;
      options.partition_n = n;
      options.num_threads = 4;  // speculation needs the pool to fan out on
      DisputeGame game(model, commitment, thresholds, coordinator, options);
      Stopwatch watch;
      run.result = game.Run(input, DeviceRegistry::ByName("H100"),
                            DeviceRegistry::ByName("RTX4090"), {{site, run.delta}});
      run.elapsed_ms = watch.ElapsedMillis();
      lazy_runs.push_back(std::move(run));
    }

    bool verdicts_consistent = true;
    for (const SpeculationPolicy policy :
         {SpeculationPolicy::kLazy, SpeculationPolicy::kAdaptive, SpeculationPolicy::kAlways}) {
      double total_time_ms = 0.0;
      double total_ratio = 0.0;
      double total_flops = 0.0;
      int games = 0;
      for (const LazyRun& lazy : lazy_runs) {
        DisputeResult result;
        double elapsed;
        if (policy == SpeculationPolicy::kLazy) {
          result = lazy.result;
          elapsed = lazy.elapsed_ms;
        } else {
          Coordinator coordinator;
          DisputeOptions options;
          options.partition_n = n;
          options.num_threads = 4;
          options.speculation = policy;
          DisputeGame game(model, commitment, thresholds, coordinator, options);
          Stopwatch watch;
          result = game.Run(input, DeviceRegistry::ByName("H100"),
                            DeviceRegistry::ByName("RTX4090"),
                            {{lazy.site, lazy.delta}});
          elapsed = watch.ElapsedMillis();
          // Cross-policy verdict check: speculation may only move cost accounting
          // and wall-clock; changing a verdict is a correctness bug, not a tradeoff.
          if (result.proposer_guilty != lazy.result.proposer_guilty ||
              result.rounds != lazy.result.rounds ||
              result.leaf_op != lazy.result.leaf_op) {
            verdicts_consistent = false;
          }
        }
        if (!result.proposer_guilty) {
          continue;
        }
        total_time_ms += elapsed;
        total_ratio += result.cost_ratio;
        total_flops += static_cast<double>(result.challenger_flops) / 1e6;
        ++games;
      }
      const char* name = policy == SpeculationPolicy::kLazy       ? "lazy"
                         : policy == SpeculationPolicy::kAdaptive ? "adaptive"
                                                                  : "always";
      spec_table.AddRow({std::to_string(n), name,
                         TablePrinter::Fixed(total_time_ms / games, 1),
                         TablePrinter::Fixed(total_ratio / games, 2),
                         TablePrinter::Fixed(total_flops / games, 1)});
    }
    if (!verdicts_consistent) {
      std::printf("VERDICT DIVERGENCE across speculation policies at N=%lld\n",
                  static_cast<long long>(n));
      return 1;
    }
  }
  spec_table.Print();
  std::printf("\nAdaptive speculates only when partition_n > 2 and the round slice is\n"
              "<= %lld ops: early giant-slice rounds stay lazy (that is where wasted\n"
              "children dominate DCR), late narrow rounds fan out (latency win, DCR\n"
              "noise). Expect: cost ratio lazy <= adaptive << always, with adaptive\n"
              "recovering most of always's wall-clock drop on multi-core hosts.\n",
              static_cast<long long>(kSpeculativeSliceLimit));
  return 0;
}
