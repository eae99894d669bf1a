// Offline cross-device calibration (Sec. 3.2 / Phase 0).
//
// For a model graph G, a device fleet H, and m sampled inputs, the calibrator runs the
// full traced model on every device, forms element-wise abs/rel errors per operator
// for every unordered device pair (Eq. 1-2), reduces them to percentile profiles over
// the grid P (Eq. 3-4), and max-envelopes across pairs and inputs (Eq. 5-6). The
// per-sample profile sequences are retained for the Appendix-B stability diagnostics,
// and per-node mean errors for the Fig. 4 depth study. Device runs and per-operator
// folds run on the shared pool; the result is bitwise the sequential one.

#ifndef TAO_SRC_CALIB_CALIBRATOR_H_
#define TAO_SRC_CALIB_CALIBRATOR_H_

#include <map>
#include <vector>

#include "src/calib/threshold.h"
#include "src/device/device.h"
#include "src/models/model_zoo.h"

namespace tao {

struct NodeCalibration {
  // Per-sample percentile profiles (max over device pairs within each sample);
  // outer index = sample, inner = grid point.
  std::vector<std::vector<double>> abs_profiles;
  std::vector<std::vector<double>> rel_profiles;
  // Max-envelope across samples (Eq. 5-6).
  std::vector<double> abs_envelope;
  std::vector<double> rel_envelope;
  // Mean element-wise absolute error across pairs, samples, elements (Fig. 4).
  double mean_abs_error = 0.0;
};

struct Calibration {
  std::vector<double> grid;
  int num_samples = 0;
  int num_devices = 0;
  // Keyed by operator node id; iteration order is canonical topological order.
  std::map<NodeId, NodeCalibration> nodes;

  // Eq. 7: thresholds tau = alpha * envelope (the paper uses alpha = 3).
  ThresholdSet MakeThresholds(double alpha = 3.0) const;
};

struct CalibrateOptions {
  int num_samples = 8;
  uint64_t seed = 0xca11b8a7e;
  double rel_eps = 1e-12;
};

Calibration Calibrate(const Model& model, const std::vector<DeviceProfile>& devices,
                      const CalibrateOptions& options = {});

}  // namespace tao

#endif  // TAO_SRC_CALIB_CALIBRATOR_H_
