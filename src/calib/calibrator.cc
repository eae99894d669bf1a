#include "src/calib/calibrator.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "src/graph/executor.h"
#include "src/runtime/parallel_for.h"
#include "src/runtime/thread_pool.h"
#include "src/util/check.h"

namespace tao {

ThresholdSet Calibration::MakeThresholds(double alpha) const {
  ThresholdSet thresholds(grid, alpha);
  for (const auto& [id, calibration] : nodes) {
    OpThreshold tau;
    tau.abs.reserve(grid.size());
    tau.rel.reserve(grid.size());
    for (const double v : calibration.abs_envelope) {
      tau.abs.push_back(alpha * v);
    }
    for (const double v : calibration.rel_envelope) {
      tau.rel.push_back(alpha * v);
    }
    thresholds.SetNode(id, std::move(tau));
  }
  return thresholds;
}

Calibration Calibrate(const Model& model, const std::vector<DeviceProfile>& devices,
                      const CalibrateOptions& options) {
  TAO_CHECK_GE(devices.size(), 2u) << "calibration needs at least two devices";
  const Graph& graph = *model.graph;
  Calibration calibration;
  calibration.grid = PercentileGrid();
  calibration.num_samples = options.num_samples;
  calibration.num_devices = static_cast<int>(devices.size());
  std::vector<NodeCalibration*> ops;
  for (const NodeId id : graph.op_nodes()) {
    NodeCalibration& nc = calibration.nodes[id];
    nc.abs_envelope.assign(calibration.grid.size(), 0.0);
    nc.rel_envelope.assign(calibration.grid.size(), 0.0);
    ops.push_back(&nc);
  }

  // Each sample's device runs are one fork, and its fold is another with one task per
  // operator. A task owns its operator's NodeCalibration and folds device pairs in
  // (j, k) order, while samples stay in order, so every profile, envelope and mean is
  // bitwise the sequential fold's at any width.
  const ParallelFor parallel(&ThreadPool::Shared(),
                             static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  const size_t grid_size = calibration.grid.size();
  Rng rng(options.seed);
  for (int s = 0; s < options.num_samples; ++s) {
    const std::vector<Tensor> input = model.sample_input(rng);
    std::vector<ExecutionTrace> traces(devices.size());
    parallel(static_cast<int64_t>(devices.size()), [&](int64_t begin, int64_t end) {
      for (int64_t d = begin; d < end; ++d) {
        traces[d] = Executor(graph, devices[d]).Run(input);
      }
    });

    parallel(static_cast<int64_t>(ops.size()), [&](int64_t begin, int64_t end) {
      for (int64_t op = begin; op < end; ++op) {
        const NodeId id = graph.op_nodes()[op];
        NodeCalibration& nc = *ops[op];
        std::vector<double> sample_abs(grid_size, 0.0);
        std::vector<double> sample_rel(grid_size, 0.0);
        double mean_acc = 0.0;
        int pair_count = 0;
        for (size_t j = 0; j < devices.size(); ++j) {
          for (size_t k = j + 1; k < devices.size(); ++k) {
            const Tensor& yj = traces[j].value(id);
            const Tensor& yk = traces[k].value(id);
            const std::vector<double> abs_err = AbsErrors(yj, yk);
            const std::vector<double> abs_profile = ComputeProfile(abs_err);
            const std::vector<double> rel_profile =
                ComputeProfile(RelErrors(yj, yk, options.rel_eps));
            for (size_t g = 0; g < grid_size; ++g) {
              sample_abs[g] = std::max(sample_abs[g], abs_profile[g]);
              sample_rel[g] = std::max(sample_rel[g], rel_profile[g]);
            }
            double sum = 0.0;
            for (const double e : abs_err) {
              sum += e;
            }
            mean_acc += sum / static_cast<double>(abs_err.size());
            ++pair_count;
          }
        }
        for (size_t g = 0; g < grid_size; ++g) {
          nc.abs_envelope[g] = std::max(nc.abs_envelope[g], sample_abs[g]);
          nc.rel_envelope[g] = std::max(nc.rel_envelope[g], sample_rel[g]);
        }
        nc.abs_profiles.push_back(std::move(sample_abs));
        nc.rel_profiles.push_back(std::move(sample_rel));
        nc.mean_abs_error += mean_acc / static_cast<double>(pair_count);
      }
    });
  }
  for (auto& [id, nc] : calibration.nodes) {
    nc.mean_abs_error /= std::max(1.0, static_cast<double>(options.num_samples));
  }
  return calibration;
}

}  // namespace tao
