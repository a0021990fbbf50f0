// Audit layer (src/audit + ml/metrics quality statistics): hand-computed
// fixtures for Brier / ROC-AUC / reliability bins / PSI / KS, drift
// detection, and the thread-count invariance of every run's audit numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "audit/drift.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/splits.hpp"
#include "core/two_stage.hpp"
#include "ml/metrics.hpp"
#include "obs/obs.hpp"
#include "support/test_trace.hpp"

namespace repro {
namespace {

using repro::testing::shared_tiny_trace;

class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    obs::reset();
    obs::set_enabled(false);
    set_parallel_threads(1);
  }
};

// --- quality statistics vs hand computation ---------------------------------

TEST_F(AuditTest, BrierScoreMatchesHandComputation) {
  const std::vector<std::uint8_t> truth{1, 0, 1};
  const std::vector<float> proba{0.8f, 0.3f, 0.6f};
  // ((0.8-1)^2 + (0.3-0)^2 + (0.6-1)^2) / 3 = (0.04 + 0.09 + 0.16) / 3
  EXPECT_NEAR(ml::brier_score(truth, proba), 0.29 / 3.0, 1e-7);
  EXPECT_EQ(ml::brier_score({}, {}), 0.0);
}

TEST_F(AuditTest, RocAucMatchesHandComputation) {
  // Pairs: pos {0.35, 0.8} vs neg {0.1, 0.4}. Of the 4 (pos, neg) pairs,
  // 3 are correctly ordered (0.35 > 0.1, 0.8 > 0.1, 0.8 > 0.4) and 1 is
  // not (0.35 < 0.4): AUC = 3/4.
  const std::vector<std::uint8_t> truth{0, 0, 1, 1};
  const std::vector<float> proba{0.1f, 0.4f, 0.35f, 0.8f};
  EXPECT_NEAR(ml::roc_auc(truth, proba), 0.75, 1e-12);
}

TEST_F(AuditTest, RocAucEdgeCases) {
  const std::vector<std::uint8_t> truth{0, 0, 1, 1};
  // Perfect separation and perfect anti-separation.
  EXPECT_NEAR(ml::roc_auc(truth, std::vector<float>{0.1f, 0.2f, 0.8f, 0.9f}),
              1.0, 1e-12);
  EXPECT_NEAR(ml::roc_auc(truth, std::vector<float>{0.9f, 0.8f, 0.2f, 0.1f}),
              0.0, 1e-12);
  // All-tied scores carry no ranking information (midranks): 0.5.
  EXPECT_NEAR(ml::roc_auc(truth, std::vector<float>{0.5f, 0.5f, 0.5f, 0.5f}),
              0.5, 1e-12);
  // Degenerate single-class truth: defined as 0.5.
  EXPECT_EQ(ml::roc_auc(std::vector<std::uint8_t>{1, 1},
                        std::vector<float>{0.1f, 0.9f}),
            0.5);
}

TEST_F(AuditTest, ReliabilityBinsAndEceMatchHandComputation) {
  const std::vector<std::uint8_t> truth{0, 1, 1};
  const std::vector<float> proba{0.05f, 0.15f, 0.95f};
  const auto bins = ml::reliability_bins(truth, proba, 10);
  ASSERT_EQ(bins.size(), 10u);
  EXPECT_EQ(bins[0].count, 1u);
  EXPECT_NEAR(bins[0].mean_score, 0.05, 1e-7);
  EXPECT_EQ(bins[0].positive_rate, 0.0);
  EXPECT_EQ(bins[1].count, 1u);
  EXPECT_NEAR(bins[1].mean_score, 0.15, 1e-7);
  EXPECT_EQ(bins[1].positive_rate, 1.0);
  EXPECT_EQ(bins[9].count, 1u);
  for (const std::size_t b : {2, 3, 4, 5, 6, 7, 8}) {
    EXPECT_EQ(bins[b].count, 0u) << "bin " << b;
  }
  // ECE = (1*|0.05-0| + 1*|0.15-1| + 1*|0.95-1|) / 3 = 0.95 / 3.
  EXPECT_NEAR(ml::expected_calibration_error(bins), 0.95 / 3.0, 1e-6);
}

TEST_F(AuditTest, ReliabilityBinBoundaryLandsHigh) {
  // p = 1.0 must land in the last bin, not index out of range.
  const std::vector<std::uint8_t> truth{1};
  const std::vector<float> proba{1.0f};
  const auto bins = ml::reliability_bins(truth, proba, 10);
  EXPECT_EQ(bins[9].count, 1u);
}

TEST_F(AuditTest, PsiMatchesHandComputation) {
  const std::vector<double> expected{0.5, 0.5};
  const std::vector<double> actual{0.9, 0.1};
  // (0.9-0.5)ln(0.9/0.5) + (0.1-0.5)ln(0.1/0.5) = 0.4(ln 1.8 - ln 0.2)
  EXPECT_NEAR(ml::population_stability_index(expected, actual),
              0.4 * (std::log(1.8) - std::log(0.2)), 1e-12);
  EXPECT_EQ(ml::population_stability_index(expected, expected), 0.0);
  // Empty bins are eps-clamped, never NaN/Inf.
  const std::vector<double> with_zero{1.0, 0.0};
  EXPECT_TRUE(std::isfinite(
      ml::population_stability_index(expected, with_zero)));
}

TEST_F(AuditTest, KsMatchesHandComputation) {
  // Every input is sorted. F_a and F_b differ most just below 3: F_a = 2/4,
  // F_b = 0.
  const std::vector<float> a{1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<float> b{3.0f, 4.0f, 5.0f, 6.0f};
  EXPECT_NEAR(ml::ks_statistic_sorted(a, b), 0.5, 1e-12);
  EXPECT_EQ(ml::ks_statistic_sorted(a, a), 0.0);
  EXPECT_EQ(ml::ks_statistic_sorted({}, b), 0.0);
  // Disjoint supports: the full mass separates.
  const std::vector<float> lo{0.0f, 1.0f};
  const std::vector<float> hi{10.0f, 11.0f};
  EXPECT_NEAR(ml::ks_statistic_sorted(lo, hi), 1.0, 1e-12);
}

TEST_F(AuditTest, AssessReportsPositiveRate) {
  const std::vector<std::uint8_t> truth{0, 1, 1, 0};
  const std::vector<float> proba{0.2f, 0.9f, 0.7f, 0.4f};
  const audit::QualityReport q = audit::assess(truth, proba);
  ASSERT_TRUE(q.valid);
  EXPECT_NEAR(q.positive_rate, 0.5, 1e-12);
  EXPECT_EQ(q.auc, 1.0);  // every positive outscores every negative
}

// --- drift detection --------------------------------------------------------

ml::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  ml::Matrix X(rows, cols);
  Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      X.at(r, c) = static_cast<float>(rng.uniform(-10.0, 10.0));
    }
  }
  return X;
}

TEST_F(AuditTest, DriftSelfCompareIsZero) {
  const ml::Matrix X = random_matrix(2'000, 3, 7);
  audit::DriftDetector drift;
  drift.fit(X);
  ASSERT_TRUE(drift.fitted());
  const audit::DriftSummary s = drift.compare(X);
  ASSERT_TRUE(s.valid);
  EXPECT_NEAR(s.psi_max, 0.0, 1e-12);
  EXPECT_NEAR(s.ks_max, 0.0, 1e-12);
  EXPECT_EQ(s.psi_drifted, 0u);
}

TEST_F(AuditTest, DriftFlagsTheShiftedFeature) {
  const ml::Matrix train = random_matrix(3'000, 3, 8);
  ml::Matrix test = random_matrix(3'000, 3, 9);
  for (std::size_t r = 0; r < test.rows(); ++r) test.at(r, 1) += 8.0f;
  audit::DriftDetector drift;
  drift.fit(train);
  const audit::DriftSummary s = drift.compare(test);
  ASSERT_TRUE(s.valid);
  EXPECT_EQ(s.psi_argmax, 1u);
  EXPECT_EQ(s.ks_argmax, 1u);
  EXPECT_GT(s.psi_max, 0.25);  // "major shift" by the PSI rule of thumb
  EXPECT_GT(s.ks_max, 0.2);
  EXPECT_EQ(s.psi_drifted, 1u);  // exactly the shifted feature
  EXPECT_LT(s.per_feature[0].psi, 0.1);  // unshifted features stay quiet
  EXPECT_LT(s.per_feature[2].psi, 0.1);
}

TEST_F(AuditTest, DriftIsThreadCountInvariant) {
  const ml::Matrix train = random_matrix(4'000, 5, 10);
  ml::Matrix test = random_matrix(1'000, 5, 11);
  for (std::size_t r = 0; r < test.rows(); ++r) test.at(r, 3) += 2.0f;
  std::vector<audit::DriftSummary> runs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_parallel_threads(threads);
    audit::DriftDetector drift;
    drift.fit(train);
    runs.push_back(drift.compare(test));
  }
  ASSERT_EQ(runs.size(), 2u);
  for (std::size_t f = 0; f < 5; ++f) {
    EXPECT_EQ(runs[0].per_feature[f].psi, runs[1].per_feature[f].psi);
    EXPECT_EQ(runs[0].per_feature[f].ks, runs[1].per_feature[f].ks);
  }
}

TEST_F(AuditTest, SweepAuditAndSnapshotAreThreadCountInvariant) {
  // A serial sweep of cells, each fit using the whole pool: every run's
  // audit numbers (quality, drift, stage-1 rates) and the whole snapshot
  // (minus wall-clock seconds and the pool's region call counts, which are
  // 0 at one thread) match across thread counts. The GBDT fit's spans open
  // once per tree, build, scan or level, never per chunk, so their call
  // counts match too.
  const sim::Trace& trace = shared_tiny_trace();
  const auto splits = core::SplitSpec::sliding(30, 15, 7, 4, 2);
  const std::vector<ml::ModelSpec> models = {
      ml::ModelKind::kGbdt, ml::ModelKind::kLogisticRegression};
  const auto run = [&](std::size_t threads) {
    obs::reset();
    obs::set_enabled(true);
    set_parallel_threads(threads);
    std::vector<std::pair<std::string, double>> kept;
    std::size_t cells = 0;
    for (const core::SplitSpec& split : splits) {
      for (const ml::ModelSpec& model : models) {
        const core::TwoStageRun r = core::run_two_stage(
            trace, {.model = model}, split.train, split.test);
        EXPECT_TRUE(r.quality.valid);
        EXPECT_TRUE(r.drift.valid);
        const std::string cell = "cell" + std::to_string(cells++) + ".";
        for (const auto& [key, value] :
             std::initializer_list<std::pair<const char*, double>>{
                 {"auc", r.quality.auc},
                 {"brier", r.quality.brier},
                 {"ece", r.quality.ece},
                 {"positive_rate", r.quality.positive_rate},
                 {"psi_max", r.drift.psi_max},
                 {"psi_argmax", static_cast<double>(r.drift.psi_argmax)},
                 {"ks_max", r.drift.ks_max},
                 {"ks_argmax", static_cast<double>(r.drift.ks_argmax)},
                 {"psi_drifted", static_cast<double>(r.drift.psi_drifted)},
                 {"survivor_rate", r.survivor_rate},
                 {"train_survivor_rate", r.train_survivor_rate},
                 {"train_positive_rate", r.train_positive_rate}}) {
          kept.emplace_back(cell + key, value);
        }
      }
    }
    for (const obs::Metric& m : obs::snapshot()) {
      if (!m.key.ends_with("_seconds") &&
          (!m.key.ends_with("_calls") || m.key.starts_with("gbdt."))) {
        kept.emplace_back(m.key, m.value);
      }
    }
    return kept;
  };
  const auto at1 = run(1);
  const auto at4 = run(4);
  // Predict throughput (rows x trees) is among the compared counters.
  const auto row_trees =
      std::find_if(at1.begin(), at1.end(), [](const auto& m) {
        return m.first == "gbdt.predict_row_trees";
      });
  ASSERT_NE(row_trees, at1.end());
  EXPECT_GT(row_trees->second, 0.0);
  for (const char* span : {"gbdt.grad", "gbdt.hist", "gbdt.split",
                           "gbdt.partition", "gbdt.update"}) {
    const std::string key = std::string(span) + "_calls";
    const auto calls = std::find_if(at1.begin(), at1.end(),
                                    [&](const auto& m) { return m.first == key; });
    ASSERT_NE(calls, at1.end()) << key;
    EXPECT_GT(calls->second, 0.0) << key;
  }
  EXPECT_EQ(at1, at4);
}

}  // namespace
}  // namespace repro
