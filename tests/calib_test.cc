// Calibration pipeline tests: grid/profile correctness, envelope dominance, threshold
// scaling, Eq. 15 checks (honest runs pass, perturbed runs flag), cap-curve
// properties, threshold commitments, and Appendix-B stability diagnostics.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "src/calib/calibrator.h"
#include "src/calib/stability.h"
#include "src/graph/executor.h"
#include "src/models/model_zoo.h"

namespace tao {
namespace {

// Small shared calibration fixture over the BERT mini (cached across tests: the
// calibration itself is the expensive step).
class CalibFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model_ = new Model(BuildBertMini());
    CalibrateOptions options;
    options.num_samples = 6;
    calibration_ = new Calibration(Calibrate(*model_, DeviceRegistry::Fleet(), options));
    thresholds_ = new ThresholdSet(calibration_->MakeThresholds(3.0));
  }

  static void TearDownTestSuite() {
    delete thresholds_;
    delete calibration_;
    delete model_;
    thresholds_ = nullptr;
    calibration_ = nullptr;
    model_ = nullptr;
  }

  static Model* model_;
  static Calibration* calibration_;
  static ThresholdSet* thresholds_;
};

Model* CalibFixture::model_ = nullptr;
Calibration* CalibFixture::calibration_ = nullptr;
ThresholdSet* CalibFixture::thresholds_ = nullptr;

bool BitwiseEqual(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// The grid profile by a full sort, the reduction `ComputeProfile`'s selection kernel
// replaced (numpy's "linear" percentile).
std::vector<double> SortedProfile(std::vector<double> errors) {
  std::sort(errors.begin(), errors.end());
  std::vector<double> profile;
  for (const double p : PercentileGrid()) {
    if (errors.size() == 1) {
      profile.push_back(errors[0]);
      continue;
    }
    const double rank = p / 100.0 * static_cast<double>(errors.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, errors.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    profile.push_back(errors[lo] + frac * (errors[hi] - errors[lo]));
  }
  return profile;
}

TEST(PercentileGridTest, MatchesPaperGrid) {
  const auto& grid = PercentileGrid();
  EXPECT_EQ(grid.front(), 0.0);
  EXPECT_EQ(grid.back(), 100.0);
  EXPECT_NE(std::find(grid.begin(), grid.end(), 1.0), grid.end());
  EXPECT_NE(std::find(grid.begin(), grid.end(), 99.0), grid.end());
  for (double p = 5.0; p <= 95.0; p += 5.0) {
    EXPECT_NE(std::find(grid.begin(), grid.end(), p), grid.end()) << p;
  }
  for (size_t i = 1; i < grid.size(); ++i) {
    EXPECT_LT(grid[i - 1], grid[i]);
  }
}

TEST(ProfileTest, MonotoneNondecreasing) {
  Rng rng(1);
  std::vector<double> errors;
  for (int i = 0; i < 1000; ++i) {
    errors.push_back(std::abs(rng.NextGaussian()));
  }
  const auto profile = ComputeProfile(errors);
  for (size_t i = 1; i < profile.size(); ++i) {
    EXPECT_GE(profile[i], profile[i - 1]);
  }
}

// Recomputes the fixture's calibration with one thread and sorted profiles, folding
// samples in order and device pairs in (j, k) order. The pooled fold must match it bit
// for bit in every field, including those r_e does not cover.
TEST_F(CalibFixture, FoldMatchesSequentialSortedFold) {
  const Graph& graph = *model_->graph;
  const std::vector<DeviceProfile>& devices = DeviceRegistry::Fleet();
  const CalibrateOptions defaults;
  const size_t grid_size = PercentileGrid().size();
  std::map<NodeId, NodeCalibration> expected;
  for (const NodeId id : graph.op_nodes()) {
    expected[id].abs_envelope.assign(grid_size, 0.0);
    expected[id].rel_envelope.assign(grid_size, 0.0);
  }
  Rng rng(defaults.seed);
  for (int s = 0; s < calibration_->num_samples; ++s) {
    const std::vector<Tensor> input = model_->sample_input(rng);
    std::vector<ExecutionTrace> traces;
    for (const DeviceProfile& device : devices) {
      traces.push_back(Executor(graph, device).Run(input));
    }
    for (const NodeId id : graph.op_nodes()) {
      NodeCalibration& nc = expected.at(id);
      std::vector<double> sample_abs(grid_size, 0.0);
      std::vector<double> sample_rel(grid_size, 0.0);
      double mean_acc = 0.0;
      int pairs = 0;
      for (size_t j = 0; j < devices.size(); ++j) {
        for (size_t k = j + 1; k < devices.size(); ++k) {
          const std::vector<double> abs_err = AbsErrors(traces[j].value(id), traces[k].value(id));
          const std::vector<double> abs_profile = SortedProfile(abs_err);
          const std::vector<double> rel_profile = SortedProfile(
              RelErrors(traces[j].value(id), traces[k].value(id), defaults.rel_eps));
          for (size_t g = 0; g < grid_size; ++g) {
            sample_abs[g] = std::max(sample_abs[g], abs_profile[g]);
            sample_rel[g] = std::max(sample_rel[g], rel_profile[g]);
          }
          double sum = 0.0;
          for (const double e : abs_err) {
            sum += e;
          }
          mean_acc += sum / static_cast<double>(abs_err.size());
          ++pairs;
        }
      }
      for (size_t g = 0; g < grid_size; ++g) {
        nc.abs_envelope[g] = std::max(nc.abs_envelope[g], sample_abs[g]);
        nc.rel_envelope[g] = std::max(nc.rel_envelope[g], sample_rel[g]);
      }
      nc.abs_profiles.push_back(std::move(sample_abs));
      nc.rel_profiles.push_back(std::move(sample_rel));
      nc.mean_abs_error += mean_acc / static_cast<double>(pairs);
    }
  }
  ASSERT_EQ(calibration_->nodes.size(), expected.size());
  const auto same = [](const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(), BitwiseEqual);
  };
  for (auto& [id, want] : expected) {
    const NodeCalibration& got = calibration_->nodes.at(id);
    const std::string& label = graph.node(id).label;
    EXPECT_TRUE(std::equal(got.abs_profiles.begin(), got.abs_profiles.end(),
                           want.abs_profiles.begin(), want.abs_profiles.end(), same))
        << label;
    EXPECT_TRUE(std::equal(got.rel_profiles.begin(), got.rel_profiles.end(),
                           want.rel_profiles.begin(), want.rel_profiles.end(), same))
        << label;
    EXPECT_TRUE(same(got.abs_envelope, want.abs_envelope)) << label;
    EXPECT_TRUE(same(got.rel_envelope, want.rel_envelope)) << label;
    const double want_mean = want.mean_abs_error / calibration_->num_samples;
    EXPECT_TRUE(BitwiseEqual(got.mean_abs_error, want_mean))
        << label << ": " << got.mean_abs_error << " vs " << want_mean;
  }
}

TEST_F(CalibFixture, EveryOperatorCalibrated) {
  EXPECT_EQ(calibration_->nodes.size(), static_cast<size_t>(model_->graph->num_ops()));
  EXPECT_EQ(thresholds_->size(), static_cast<size_t>(model_->graph->num_ops()));
}

TEST_F(CalibFixture, EnvelopeDominatesEverySampleProfile) {
  for (const auto& [id, nc] : calibration_->nodes) {
    for (const auto& profile : nc.abs_profiles) {
      for (size_t g = 0; g < profile.size(); ++g) {
        EXPECT_LE(profile[g], nc.abs_envelope[g]) << "node " << id;
      }
    }
  }
}

TEST_F(CalibFixture, ThresholdsAreAlphaTimesEnvelope) {
  for (const auto& [id, nc] : calibration_->nodes) {
    const OpThreshold& tau = thresholds_->node(id);
    for (size_t g = 0; g < nc.abs_envelope.size(); ++g) {
      EXPECT_DOUBLE_EQ(tau.abs[g], 3.0 * nc.abs_envelope[g]);
      EXPECT_DOUBLE_EQ(tau.rel[g], 3.0 * nc.rel_envelope[g]);
    }
  }
}

TEST_F(CalibFixture, MostOperatorsSeeNonzeroCrossDeviceError) {
  int nonzero = 0;
  for (const auto& [id, nc] : calibration_->nodes) {
    if (nc.abs_envelope.back() > 0.0) {
      ++nonzero;
    }
  }
  EXPECT_GT(nonzero, model_->graph->num_ops() / 2);
}

TEST_F(CalibFixture, HonestCrossDeviceRunPassesThresholds) {
  // A fresh input (not in the calibration set) on two fleet devices must pass Eq. 15
  // at every operator: this is the paper's zero-false-positive property.
  Rng rng(0x5eed);
  const std::vector<Tensor> input = model_->sample_input(rng);
  const Executor a(*model_->graph, DeviceRegistry::ByName("H100"));
  const Executor b(*model_->graph, DeviceRegistry::ByName("RTX4090"));
  const ExecutionTrace ta = a.Run(input);
  const ExecutionTrace tb = b.Run(input);
  for (const NodeId id : model_->graph->op_nodes()) {
    EXPECT_FALSE(thresholds_->Exceeds(id, ta.value(id), tb.value(id)))
        << model_->graph->node(id).label
        << " ratio=" << thresholds_->MaxRatio(id, ta.value(id), tb.value(id));
  }
}

TEST_F(CalibFixture, InjectedPerturbationExceedsThresholds) {
  Rng rng(0xfeed);
  const std::vector<Tensor> input = model_->sample_input(rng);
  const NodeId target = model_->graph->op_nodes()[model_->graph->num_ops() / 2];
  const Executor exec(*model_->graph, DeviceRegistry::ByName("H100"));
  const ExecutionTrace honest = exec.Run(input);
  Tensor delta = Tensor::Full(model_->graph->node(target).shape, 1e-2f);
  const ExecutionTrace bad = exec.RunPerturbed(input, {{target, delta}});
  const Executor ref(*model_->graph, DeviceRegistry::Reference());
  const ExecutionTrace reference = ref.Run(input);
  EXPECT_TRUE(thresholds_->Exceeds(target, bad.value(target), reference.value(target)));
  EXPECT_FALSE(thresholds_->Exceeds(target, honest.value(target), reference.value(target)));
}

// A NaN or infinite output element has infinite error (AbsErrors), so no threshold
// admits it, however few such elements there are. An output bitwise equal to the
// reference, NaNs included, has zero error everywhere.
TEST_F(CalibFixture, NonFiniteOutputFailsOutputCheck) {
  Rng rng(0xbad);
  const std::vector<Tensor> input = model_->sample_input(rng);
  const NodeId out = model_->graph->output();
  const Tensor reference =
      Executor(*model_->graph, DeviceRegistry::ByName("A100")).RunOutput(input);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const float bad : {nan, inf}) {
    Tensor all_bad = Tensor::Full(reference.shape(), bad);
    EXPECT_EQ(thresholds_->MaxRatio(out, all_bad, reference),
              std::numeric_limits<double>::infinity())
        << "all " << bad;
    Tensor one_bad = reference.Clone();
    one_bad.mutable_values()[reference.numel() / 2] = bad;
    EXPECT_EQ(thresholds_->MaxRatio(out, one_bad, reference),
              std::numeric_limits<double>::infinity())
        << "one " << bad;
    EXPECT_TRUE(thresholds_->Exceeds(out, one_bad, reference));
    // The same tensor as its own reference: equal elements, NaN or not, have error 0.
    EXPECT_EQ(thresholds_->MaxRatio(out, one_bad, one_bad.Clone()), 0.0) << bad;
    EXPECT_EQ(thresholds_->MaxRatio(out, all_bad, all_bad.Clone()), 0.0) << bad;
  }
}

TEST_F(CalibFixture, ScaledThresholdsLoosenChecks) {
  const ThresholdSet loose = thresholds_->Scaled(2.0);
  for (const auto id : model_->graph->op_nodes()) {
    const OpThreshold& base = thresholds_->node(id);
    const OpThreshold& scaled = loose.node(id);
    for (size_t g = 0; g < base.abs.size(); ++g) {
      EXPECT_DOUBLE_EQ(scaled.abs[g], 2.0 * base.abs[g]);
    }
  }
  EXPECT_DOUBLE_EQ(loose.alpha(), 6.0);
}

TEST_F(CalibFixture, CapCurveIsMonotoneAndAnchoredAtZero) {
  const NodeId id = model_->graph->op_nodes()[3];
  EXPECT_DOUBLE_EQ(thresholds_->AbsCap(id, 0.0), 0.0);
  double prev = 0.0;
  for (double r = 0.0; r <= 1.0; r += 0.01) {
    const double cap = thresholds_->AbsCap(id, r);
    EXPECT_GE(cap, prev - 1e-18);
    prev = cap;
  }
  EXPECT_GE(thresholds_->AbsCap(id, 1.0), thresholds_->node(id).abs.back() - 1e-18);
}

TEST_F(CalibFixture, CommitRootIsStableAndTamperEvident) {
  const Digest root1 = thresholds_->CommitRoot();
  const Digest root2 = thresholds_->CommitRoot();
  EXPECT_EQ(DigestToHex(root1), DigestToHex(root2));
  const ThresholdSet scaled = thresholds_->Scaled(1.0000001);
  EXPECT_NE(DigestToHex(scaled.CommitRoot()), DigestToHex(root1));
}

// The threshold root r_e of perfbench's three calibrations (3 samples on the fleet,
// alpha 3), pinned before the selection kernel and the pooled fold replaced the sorted,
// single-threaded calibration. A change that moves one moved a committed threshold.
TEST(CalibrationRootTest, PinnedForPerfbenchModels) {
  WideMlpConfig wide;
  wide.input_dim = 16384;
  wide.hidden_dim = 64;
  wide.num_classes = 32;
  const struct {
    const char* name;
    Model model;
    const char* root;
  } cases[] = {
      {"bert-mini", BuildBertMini(),
       "0916ab60785de1720b018032cf1a368375798feb828a557fd3fd9968c4285cbc"},
      {"resnet-mini", BuildResNetMini(),
       "fd484cfaf7b9f6d80c09546b230bde1875d847e111eb55e7ec3b6819c649fdfe"},
      {"wide-mlp", BuildWideMlp(wide),
       "644206beea3e777d2d8adff381af911afdaf2b1ed22e644bbae053556c51dfff"},
  };
  CalibrateOptions options;
  options.num_samples = 3;
  for (const auto& c : cases) {
    const Calibration calibration = Calibrate(c.model, DeviceRegistry::Fleet(), options);
    EXPECT_EQ(DigestToHex(calibration.MakeThresholds(3.0).CommitRoot()), c.root) << c.name;
  }
}

TEST_F(CalibFixture, StabilityDiagnosticsSmallForHonestCalibration)
{
  // Appendix-B expectation: central tendencies ~0 and small upper deciles.
  for (const size_t grid_index : {6u, 10u, 14u}) {  // ~p30, p50, p70 on the grid
    const StabilitySummary s = SummarizeStability(*calibration_, grid_index);
    EXPECT_LE(s.supnorm_p50, 0.5);
    EXPECT_LE(s.jackknife_p50, 0.5);
    EXPECT_LE(s.tailadj_p50, 0.5);
    EXPECT_GE(s.supnorm_p90, s.supnorm_p50);
  }
}

TEST(StabilityUnitTest, ConstantSequenceIsPerfectlyStable) {
  const std::vector<double> sequence(20, 3.5);
  EXPECT_DOUBLE_EQ(SupNormDrift(sequence), 0.0);
  EXPECT_DOUBLE_EQ(JackknifeInfluence(sequence), 0.0);
  EXPECT_DOUBLE_EQ(TailAdjustment(sequence), 0.0);
  EXPECT_DOUBLE_EQ(RollingSd(sequence), 0.0);
}

TEST(StabilityUnitTest, OutlierRaisesJackknife) {
  // Short sequence where removing the outlier shifts the median: {1,2,3,4,100}.
  const std::vector<double> sequence = {1.0, 2.0, 3.0, 4.0, 100.0};
  EXPECT_GT(JackknifeInfluence(sequence), 0.0);
}

TEST(StabilityUnitTest, DriftingSequenceHasPositiveSupNorm) {
  std::vector<double> sequence;
  for (int t = 0; t < 30; ++t) {
    sequence.push_back(1.0 + 0.1 * t);
  }
  EXPECT_GT(SupNormDrift(sequence), 0.01);
  EXPECT_GT(RollingSd(sequence), 0.0);
}

}  // namespace
}  // namespace tao
