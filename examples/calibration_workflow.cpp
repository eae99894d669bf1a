// Calibration workflow: what a model owner runs at deployment time (Phase 0).
//
// Calibrates per-operator cross-device error percentile profiles for the ResNet-mini,
// prints representative thresholds, validates stability with the Appendix-B
// diagnostics, and emits the threshold commitment r_e to be registered with the
// coordinator alongside r_w and r_g.

#include <cstdio>

#include "src/calib/calibrator.h"
#include "src/calib/stability.h"
#include "src/protocol/commitment.h"
#include "src/util/table.h"

using namespace tao;

int main() {
  std::printf("=== TAO calibration workflow (Phase 0) ===\n\n");
  const Model model = BuildResNetMini();
  std::printf("model: %s, %lld operators\n", model.name.c_str(),
              static_cast<long long>(model.graph->num_ops()));
  std::printf("fleet:");
  for (const DeviceProfile& device : DeviceRegistry::Fleet()) {
    std::printf(" %s", device.name.c_str());
  }
  std::printf("  (4 devices -> 6 unordered pairs)\n\n");

  CalibrateOptions options;
  options.num_samples = 8;
  const Calibration calibration = Calibrate(model, DeviceRegistry::Fleet(), options);
  const ThresholdSet thresholds = calibration.MakeThresholds(3.0);

  // A glance at thresholds for a few representative operators.
  TablePrinter table({"operator", "type", "tau_abs(p50)", "tau_abs(p99)", "tau_rel(p99)"});
  int shown = 0;
  for (const NodeId id : model.graph->op_nodes()) {
    const Node& node = model.graph->node(id);
    if (node.op != "conv2d" && node.op != "batch_norm" && node.op != "linear") {
      continue;
    }
    if (++shown > 8) {
      break;
    }
    const OpThreshold& tau = thresholds.node(id);
    const size_t p50 = 11;  // grid index of p50
    const size_t p99 = 21;  // grid index of p99
    table.AddRow({node.label, node.op, TablePrinter::Scientific(tau.abs[p50], 2),
                  TablePrinter::Scientific(tau.abs[p99], 2),
                  TablePrinter::Scientific(tau.rel[p99], 2)});
  }
  table.Print();

  std::printf("\nstability diagnostics (Appendix B, W=10):\n");
  TablePrinter stability({"percentile", "SupNorm@50", "SupNorm@90", "Jackknife@90",
                          "TailAdj@90", "RollSD@90"});
  for (const size_t grid_index : {6u, 10u, 14u}) {
    const StabilitySummary s = SummarizeStability(calibration, grid_index);
    stability.AddRow({std::string("p").append(
                          std::to_string(static_cast<int>(calibration.grid[grid_index]))),
                      TablePrinter::Fixed(s.supnorm_p50, 3), TablePrinter::Fixed(s.supnorm_p90, 3),
                      TablePrinter::Fixed(s.jackknife_p90, 3),
                      TablePrinter::Fixed(s.tailadj_p90, 3),
                      TablePrinter::Fixed(s.rollsd_p90, 3)});
  }
  stability.Print();

  const ModelCommitment commitment(*model.graph, thresholds);
  std::printf("\ncommitments to register with the coordinator:\n");
  std::printf("  r_w = %s\n", DigestToHex(commitment.weight_root()).c_str());
  std::printf("  r_g = %s\n", DigestToHex(commitment.graph_root()).c_str());
  std::printf("  r_e = %s\n", DigestToHex(commitment.threshold_root()).c_str());
  return 0;
}
