// Executor scaling bench: wall-clock speedup of the parallel runtime vs. thread
// count on the wide-MLP and ResNet zoo graphs, the throughput of a BERT-mini cohort
// whose lanes run as pool tasks, the cost of one ParallelFor fork (the figure
// kMinForkFlops is derived from), and the allocation traffic the TensorArena removes
// on the output-only path. Every configuration's output is checked bitwise against
// the sequential baseline — the protocol's determinism contract — before its timing
// is reported.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/graph/executor.h"
#include "src/models/model_zoo.h"
#include "src/runtime/parallel_for.h"
#include "src/runtime/thread_pool.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"
#include "src/util/table.h"

namespace tao {
namespace {

constexpr int kRepeats = 3;

double MedianSeconds(const Executor& exec, const std::vector<Tensor>& input,
                     const ExecutorOptions& options) {
  std::vector<double> times;
  for (int i = 0; i < kRepeats; ++i) {
    Stopwatch watch;
    (void)exec.RunOutput(input, options);
    times.push_back(watch.ElapsedSeconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.values().data(), b.values().data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

bool SameBitsD(const DTensor& a, const DTensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.values().data(), b.values().data(),
                     static_cast<size_t>(a.numel()) * sizeof(double)) == 0;
}

// Trace-retaining bounds run (the calibration / adjudication shape): every node
// value AND every bound tensor is retained, so no output ever dies — the only
// recycling such a run gets is per-kernel workspaces and bound scratch cycling
// through the BoundContext/OpContext arena handle. The allocation columns show the
// traffic that removes; values and bounds are checked bitwise against the no-arena
// run first (the arena moves buffers, never values).
void BenchTraceRetainingBounds(const Model& model) {
  Rng rng(0x7a3e);
  const std::vector<Tensor> input = model.sample_input(rng);
  const Executor exec(*model.graph, DeviceRegistry::ByName("H100"));
  std::printf("== %s: trace-retaining run with bounds (keep_values, with_bounds) ==\n",
              model.name.c_str());

  std::vector<Executor::BatchItem> items(1);
  items[0].inputs = &input;
  items[0].keep_values = true;
  ExecutorOptions reference_options;
  reference_options.with_bounds = true;
  const std::vector<ExecutionTrace> reference = exec.RunBatch(items, reference_options);

  TablePrinter table({"threads", "reuse_buffers", "median_s", "alloc_requests",
                      "pool_hits", "recycled"});
  for (const int threads : {1, 4}) {
    for (const bool reuse : {false, true}) {
      ExecutorOptions options;
      options.with_bounds = true;
      options.num_threads = threads;
      options.reuse_buffers = reuse;
      TensorArena::Stats stats;
      const std::vector<ExecutionTrace> traces = exec.RunBatch(items, options, &stats);
      for (const NodeId id : model.graph->op_nodes()) {
        if (!SameBits(traces[0].value(id), reference[0].value(id)) ||
            !SameBitsD(traces[0].bound(id), reference[0].bound(id))) {
          std::printf("DETERMINISM VIOLATION at threads=%d reuse=%d node=%lld\n",
                      threads, static_cast<int>(reuse), static_cast<long long>(id));
          std::abort();
        }
      }
      std::vector<double> times;
      for (int i = 0; i < kRepeats; ++i) {
        Stopwatch watch;
        (void)exec.RunBatch(items, options);
        times.push_back(watch.ElapsedSeconds());
      }
      std::sort(times.begin(), times.end());
      table.AddRow({std::to_string(threads), reuse ? "yes" : "no",
                    TablePrinter::Fixed(times[times.size() / 2], 4),
                    std::to_string(stats.requests), std::to_string(stats.pool_hits),
                    std::to_string(stats.recycled)});
    }
  }
  table.Print();
  std::printf("\n");
}

void BenchModel(const Model& model) {
  Rng rng(0xbe7c);
  const std::vector<Tensor> input = model.sample_input(rng);
  const Executor exec(*model.graph, DeviceRegistry::ByName("H100"));

  std::printf("== %s (stand-in for %s), %lld ops, %.1f MFLOP/forward ==\n",
              model.name.c_str(), model.paper_counterpart.c_str(),
              static_cast<long long>(model.graph->num_ops()),
              static_cast<double>(model.graph->TotalFlops()) / 1e6);

  const Tensor reference = exec.RunOutput(input);
  ExecutorOptions sequential;
  const double base = MedianSeconds(exec, input, sequential);

  TablePrinter table({"threads", "reuse_buffers", "median_s", "speedup", "alloc_requests",
                      "pool_hits", "fresh_allocs"});
  for (const int threads : {1, 2, 4, 8}) {
    for (const bool reuse : {false, true}) {
      ExecutorOptions options;
      options.num_threads = threads;
      options.reuse_buffers = reuse;
      TensorArena::Stats stats;
      const Tensor out = exec.RunOutput(input, options, &stats);
      if (!SameBits(out, reference)) {
        std::printf("DETERMINISM VIOLATION at threads=%d reuse=%d\n", threads,
                    static_cast<int>(reuse));
        std::abort();
      }
      const double t = MedianSeconds(exec, input, options);
      table.AddRow({std::to_string(threads), reuse ? "yes" : "no",
                    TablePrinter::Fixed(t, 4), TablePrinter::Fixed(base / t, 2),
                    std::to_string(stats.requests), std::to_string(stats.pool_hits),
                    std::to_string(stats.fresh_allocations)});
    }
  }
  table.Print();
  std::printf("\n");
}

// A cohort through RunOutputBatch: each lane is one pool task, so threads pay off
// across claims even when no single operator is large enough to fork.
void BenchCohort(const Model& model, int cohort) {
  const Executor exec(*model.graph, DeviceRegistry::ByName("H100"));
  Rng rng(0xc0407);
  std::vector<std::vector<Tensor>> inputs;
  std::vector<Tensor> expected;
  for (int i = 0; i < cohort; ++i) {
    inputs.push_back(model.sample_input(rng));
    expected.push_back(exec.RunOutput(inputs.back()));
  }
  std::printf("== %s: cohort of %d claims through RunOutputBatch (reuse_buffers) ==\n",
              model.name.c_str(), cohort);

  TablePrinter table({"threads", "median_s", "claims_per_s", "speedup"});
  double base = 0.0;
  for (const int threads : {1, 2, 4}) {
    ExecutorOptions options;
    options.num_threads = threads;
    options.reuse_buffers = true;
    const std::vector<Tensor> outputs = exec.RunOutputBatch(inputs, options);
    for (size_t i = 0; i < outputs.size(); ++i) {
      if (!SameBits(outputs[i], expected[i])) {
        std::printf("DETERMINISM VIOLATION in cohort lane %zu at threads=%d\n", i, threads);
        std::abort();
      }
    }
    std::vector<double> times;
    for (int i = 0; i < kRepeats; ++i) {
      Stopwatch watch;
      (void)exec.RunOutputBatch(inputs, options);
      times.push_back(watch.ElapsedSeconds());
    }
    std::sort(times.begin(), times.end());
    const double t = times[times.size() / 2];
    if (threads == 1) {
      base = t;
    }
    table.AddRow({std::to_string(threads), TablePrinter::Fixed(t, 4),
                  TablePrinter::Fixed(cohort / t, 0), TablePrinter::Fixed(base / t, 2)});
  }
  table.Print();
  std::printf("\n");
}

// Median wall time of an empty-body width-4 ParallelFor on the shared pool: what an
// operator pays to fork before any of its work runs.
void BenchForkCost() {
  const ParallelFor parallel(&ThreadPool::Shared(), 4);
  std::vector<double> micros;
  for (int i = 0; i < 2000; ++i) {
    Stopwatch watch;
    parallel(4, [](int64_t, int64_t) {});
    micros.push_back(watch.ElapsedSeconds() * 1e6);
  }
  std::sort(micros.begin(), micros.end());
  std::printf("Fork cost: empty width-4 ParallelFor on the shared pool (%d workers), "
              "median %.1f us over %zu runs; operators fork at >= %.1f MFLOP\n\n",
              ThreadPool::Shared().num_workers(), micros[micros.size() / 2], micros.size(),
              static_cast<double>(kMinForkFlops) / 1e6);
}

}  // namespace
}  // namespace tao

int main() {
  std::printf(
      "Executor scaling: parallel runtime (lanes as pool tasks + ParallelFor + arena)\n");
  std::printf("Speedup is relative to the sequential (num_threads=1, no-arena) median;\n");
  std::printf("allocation columns cover one run (requests = kernel outputs + per-chunk\n");
  std::printf("workspaces, so they grow with thread count as chunks multiply).\n\n");
  tao::BenchForkCost();
  tao::BenchModel(tao::BuildWideMlp());
  tao::BenchModel(tao::BuildResNetMini());
  tao::BenchCohort(tao::BuildBertMini(), 8);
  tao::BenchTraceRetainingBounds(tao::BuildResNetMini());
  return 0;
}
