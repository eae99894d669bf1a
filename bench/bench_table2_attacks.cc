// Table 2: bucketed attack outcomes under threshold scaling.
//
// For ResNet-mini, BERT-mini, and Qwen-mini, runs the PGD/Adam attack of Sec. 4.4
// against (a) empirical thresholds at alpha = 1x/2x/3x and (b) theoretical bounds at
// x1 deterministic, x1 probabilistic, x0.5 probabilistic. Reports, per logit-margin
// bucket: ASR(%) and mean delta_m (delta_rel) on failed runs, plus the honest-run
// false-positive rate per alpha. Paper shape to match: 0% ASR everywhere under
// empirical thresholds even at 3x, near-zero FP, and deterministic theoretical bounds
// admitting markedly more attack progress (largest on the LLM).

#include <cstdio>

#include "bench/bench_common.h"

using namespace tao;
using namespace tao::bench;

namespace {

constexpr int kInputs = 3;  // x 5 buckets = 15 attack targets per cell

void RunModel(const char* label, const Model& model) {
  std::printf("\n--- %s (stand-in for %s) ---\n", label, model.paper_counterpart.c_str());
  const Calibration calibration = CalibrateModel(model, /*samples=*/8);
  const ThresholdSet thresholds = calibration.MakeThresholds(3.0);

  TablePrinter table({"bound check", "scale", "0-20%", "20-40%", "40-60%", "60-80%",
                      "80-100%", "FP(%)"});

  // Empirical thresholds at alpha multipliers 1, 2, 3.
  for (const double scale : {1.0, 2.0, 3.0}) {
    AttackConfig config;
    config.feasible = FeasibleSetKind::kEmpirical;
    config.scale = scale;
    config.max_iters = 40;
    const auto buckets = RunBucketedAttacks(model, thresholds, config, kInputs,
                                            0x7ab1e2 + static_cast<uint64_t>(scale * 10));
    const double fp = HonestFalsePositiveRate(model, thresholds, scale, 20,
                                              0xfa15e + static_cast<uint64_t>(scale));
    std::vector<std::string> row = {"Empirical",
                                    std::string("x").append(TablePrinter::Fixed(scale, 0))};
    for (const BucketCell& cell : buckets) {
      row.push_back(CellString(cell));
    }
    row.push_back(TablePrinter::Fixed(fp * 100.0, 1));
    table.AddRow(row);
    std::printf("  empirical x%.0f done\n", scale);
  }

  // Theoretical bounds: x1 deterministic, x1 probabilistic, x0.5 probabilistic.
  struct TheoSetting {
    const char* label;
    BoundMode mode;
    double scale;
  };
  const std::vector<TheoSetting> settings = {
      {"x1(d)", BoundMode::kDeterministic, 1.0},
      {"x1(p)", BoundMode::kProbabilistic, 1.0},
      {"x0.5(p)", BoundMode::kProbabilistic, 0.5},
  };
  for (const TheoSetting& setting : settings) {
    AttackConfig config;
    config.feasible = FeasibleSetKind::kTheoretical;
    config.theo_mode = setting.mode;
    config.scale = setting.scale;
    config.max_iters = 40;
    const auto buckets = RunBucketedAttacks(model, thresholds, config, kInputs,
                                            0x7e09 + static_cast<uint64_t>(setting.scale * 100) +
                                                (setting.mode == BoundMode::kDeterministic));
    std::vector<std::string> row = {"Theo", setting.label};
    for (const BucketCell& cell : buckets) {
      row.push_back(CellString(cell));
    }
    row.push_back("-");
    table.AddRow(row);
    std::printf("  theoretical %s done\n", setting.label);
  }
  table.Print();
}

}  // namespace

namespace {

// Long-reduction sensitivity study: at paper scale the LLM's k ~ 4096+ inner products
// make the deterministic gamma_k leaf bound loose enough for a nonzero ASR (2.4% on
// Qwen3-8B in Table 2). The mini transformers have k ~ 48; the wide-MLP model
// restores the long-k regime so the mechanism is visible at tractable cost.
void RunWideReductionStudy() {
  const WideMlpConfig config;
  std::printf("\n--- long-reduction study (wide-mlp, k = %lld) ---\n",
              static_cast<long long>(config.input_dim));
  const Model model = BuildWideMlp(config);
  const Calibration calibration = CalibrateModel(model, /*samples=*/8);
  const ThresholdSet thresholds = calibration.MakeThresholds(3.0);

  TablePrinter table({"bound check", "scale", "ASR(%)", "mean delta_m (delta_rel) on fails"});
  struct Setting {
    const char* kind;
    const char* scale_label;
    FeasibleSetKind feasible;
    BoundMode mode;
    double scale;
  };
  const std::vector<Setting> settings = {
      {"Empirical", "x3", FeasibleSetKind::kEmpirical, BoundMode::kProbabilistic, 3.0},
      {"Theo", "x1(d)", FeasibleSetKind::kTheoretical, BoundMode::kDeterministic, 1.0},
      {"Theo", "x1(p)", FeasibleSetKind::kTheoretical, BoundMode::kProbabilistic, 1.0},
      {"Theo", "x0.5(p)", FeasibleSetKind::kTheoretical, BoundMode::kProbabilistic, 0.5},
  };
  for (const Setting& setting : settings) {
    AttackConfig config;
    config.feasible = setting.feasible;
    config.theo_mode = setting.mode;
    config.scale = setting.scale;
    config.max_iters = 40;
    const auto buckets =
        RunBucketedAttacks(model, thresholds, config, /*num_inputs=*/4, 0x81d);
    BucketCell all;
    for (const BucketCell& cell : buckets) {
      all.attacks += cell.attacks;
      all.successes += cell.successes;
      all.delta_m_failed.insert(all.delta_m_failed.end(), cell.delta_m_failed.begin(),
                                cell.delta_m_failed.end());
      all.delta_rel_failed.insert(all.delta_rel_failed.end(), cell.delta_rel_failed.begin(),
                                  cell.delta_rel_failed.end());
    }
    char cell[64];
    std::snprintf(cell, sizeof(cell), "%.3f (%.1f%%)", all.MeanDeltaM(),
                  all.MeanDeltaRel() * 100.0);
    table.AddRow({setting.kind, setting.scale_label,
                  TablePrinter::Fixed(all.Asr() * 100.0, 1), cell});
    std::printf("  %s %s done\n", setting.kind, setting.scale_label);
  }
  table.Print();
}

}  // namespace

int main() {
  std::printf("=== Table 2: bucketed attack outcomes under threshold scaling ===\n");
  std::printf("cell format: ASR%%  mean_delta_m(delta_rel%%) on failed runs; %d targets/cell\n",
              kInputs * 5);

  RunModel("BERT", BuildBertMini());
  RunModel("ResNet", BuildResNetMini());
  RunModel("Qwen", BuildQwenMini());
  RunWideReductionStudy();

  std::printf("\nShape check vs paper (Table 2): empirical ASR 0%% at every alpha with\n"
              "~0 false positives; in the long-reduction regime the deterministic\n"
              "worst-case bound opens a real attack window (the paper's 2.4%% ASR on\n"
              "Qwen3-8B) while probabilistic bounds shrink it and empirical thresholds\n"
              "close it — motivating committee adjudication at the leaf.\n");
  return 0;
}
