// Text serialization for threshold sets, so calibrations can be published alongside
// the model commitment (Phase 0), post-verified by third parties, and reloaded by
// challengers/committee members without rerunning calibration.

#ifndef TAO_SRC_CALIB_SERIALIZE_H_
#define TAO_SRC_CALIB_SERIALIZE_H_

#include <string>

#include "src/calib/threshold.h"
#include "src/graph/graph.h"

namespace tao {

// Line-oriented format:
//   tao-thresholds v2
//   fleet <signature>        (v2 only; FleetSignature() of the calibration fleet)
//   alpha <a>
//   grid <p0> <p1> ...
//   node <id> abs <v...> rel <v...>
//
// Thresholds are statements about a *specific* fleet's cross-device error; a file
// replayed against a different fleet silently under- or over-flags. v2 therefore
// embeds the canonical fleet signature (see FleetSignature in src/device/device.h)
// so loaders can detect composition drift and demand recalibration. Only arithmetic
// moves it: device_test pins the fleet's exact string.
// Pass an empty signature to emit the legacy v1 header without a fleet line.
std::string SerializeThresholds(const ThresholdSet& thresholds,
                                const std::string& fleet_signature = std::string());

// Parses v1 or v2; aborts on malformed input. If `fleet_signature` is non-null it
// receives the file's fleet line (empty for v1 files).
ThresholdSet DeserializeThresholds(const std::string& text,
                                   std::string* fleet_signature = nullptr);

// Strict load path for deployment: parses `text` and ABORTS (loudly, printing both
// signatures) unless the file is a v2 calibration published against exactly
// `expected_fleet_signature`. This is how stale calibrations fail when the fleet's
// arithmetic moves underneath them — e.g. the vmath polynomial generation bump
// changed every signature, so pre-vmath threshold files must be rejected rather
// than silently under- or over-flagging. v1 files (no fleet line) are always
// rejected here; they predate signature embedding.
ThresholdSet LoadThresholdsForFleet(const std::string& text,
                                    const std::string& expected_fleet_signature);

}  // namespace tao

#endif  // TAO_SRC_CALIB_SERIALIZE_H_
