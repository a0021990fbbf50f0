#include <gtest/gtest.h>

#include <algorithm>

#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "core/baselines.hpp"
#include "core/ecc_advisor.hpp"
#include "core/evaluation.hpp"
#include "core/splits.hpp"
#include "core/two_stage.hpp"
#include "support/test_trace.hpp"

namespace repro::core {
namespace {

using repro::testing::shared_pipeline_trace;
using repro::testing::shared_tiny_trace;

// --- Splits -----------------------------------------------------------------

TEST(Splits, SlidingWindowsArePaperShaped) {
  const auto splits = SplitSpec::sliding(102, 60, 14, 14, 3);
  ASSERT_EQ(splits.size(), 3u);
  EXPECT_EQ(splits[0].name, "DS1");
  EXPECT_EQ(splits[0].train.begin, 0);
  EXPECT_EQ(splits[0].train.end, day_start(60));
  EXPECT_EQ(splits[0].test.begin, day_start(60));
  EXPECT_EQ(splits[0].test.end, day_start(74));
  EXPECT_EQ(splits[1].train.begin, day_start(14));
  EXPECT_EQ(splits[2].test.end, day_start(102));
  for (const auto& s : splits) {
    EXPECT_EQ(s.train.end, s.test.begin);  // test follows training
    EXPECT_FALSE(s.train.overlaps(s.test));
  }
}

TEST(Splits, TooShortTraceThrows) {
  EXPECT_THROW(SplitSpec::sliding(50, 60, 14, 14, 3), CheckError);
}

// --- sample selection ---------------------------------------------------------

TEST(SampleIndex, WindowSelectsByEndMinute) {
  const sim::Trace& trace = shared_pipeline_trace();
  const Interval window{day_start(10), day_start(20)};
  const auto idx = samples_in(trace, window);
  ASSERT_GT(idx.size(), 0u);
  for (const std::size_t i : idx) {
    EXPECT_TRUE(window.contains(trace.samples[i].end));
  }
  // Complement check: total across a partition equals all samples.
  const auto before = samples_in(trace, {0, day_start(10)});
  const auto after = samples_in(trace, {day_start(20), trace.duration + 1});
  EXPECT_EQ(before.size() + idx.size() + after.size(), trace.samples.size());
}

// --- baselines ----------------------------------------------------------------

class BaselinesTest : public ::testing::Test {
 protected:
  const sim::Trace& trace_ = shared_pipeline_trace();
  Interval train_{0, day_start(28)};
  Interval test_{day_start(28), day_start(40)};
};

TEST_F(BaselinesTest, BasicAPredictsExactlyOffenderNodes) {
  BasicScheme scheme(BasicKind::kBasicA);
  scheme.train(trace_, train_);
  const auto idx = samples_in(trace_, test_);
  const auto pred = scheme.predict(trace_, idx);
  const auto mask = trace_.sbe_log.offender_mask(0, train_.end);
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const auto node = trace_.samples[idx[k]].node;
    EXPECT_EQ(pred[k], mask[static_cast<std::size_t>(node)]);
  }
}

TEST_F(BaselinesTest, BasicARecallIsHighPrecisionLow) {
  BasicScheme scheme(BasicKind::kBasicA);
  scheme.train(trace_, train_);
  const auto idx = samples_in(trace_, test_);
  const auto m = evaluate_predictions(trace_, idx, scheme.predict(trace_, idx));
  EXPECT_GT(m.positive.recall, 0.7);
  EXPECT_LT(m.positive.precision, 0.6);
}

TEST_F(BaselinesTest, RandomIsAboutHalf) {
  BasicScheme scheme(BasicKind::kRandom);
  scheme.train(trace_, train_);
  const auto idx = samples_in(trace_, test_);
  const auto pred = scheme.predict(trace_, idx);
  const double rate =
      static_cast<double>(std::count(pred.begin(), pred.end(), 1)) /
      static_cast<double>(pred.size());
  EXPECT_NEAR(rate, 0.5, 0.05);
  const auto m = evaluate_predictions(trace_, idx, pred);
  EXPECT_NEAR(m.positive.recall, 0.5, 0.1);
  EXPECT_LT(m.positive.precision, 0.15);
}

TEST_F(BaselinesTest, BasicBPredictsAffectedApps) {
  BasicScheme scheme(BasicKind::kBasicB);
  scheme.train(trace_, train_);
  const auto idx = samples_in(trace_, test_);
  const auto pred = scheme.predict(trace_, idx);
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const auto app = trace_.samples[idx[k]].app;
    const bool affected =
        trace_.sbe_log.app_count_between(app, 0, train_.end) > 0;
    EXPECT_EQ(pred[k] != 0, affected);
  }
}

TEST_F(BaselinesTest, BasicCIsSubsetOfBasicB) {
  BasicScheme b(BasicKind::kBasicB), c(BasicKind::kBasicC);
  b.train(trace_, train_);
  c.train(trace_, train_);
  const auto idx = samples_in(trace_, test_);
  const auto pb = b.predict(trace_, idx);
  const auto pc = c.predict(trace_, idx);
  std::size_t b_pos = 0, c_pos = 0;
  for (std::size_t k = 0; k < idx.size(); ++k) {
    b_pos += pb[k];
    c_pos += pc[k];
    if (pc[k]) {
      EXPECT_TRUE(pb[k]);  // top apps are affected apps
    }
  }
  EXPECT_LT(c_pos, b_pos);
}

TEST_F(BaselinesTest, PredictBeforeTrainThrows) {
  BasicScheme scheme(BasicKind::kBasicA);
  EXPECT_THROW((void)scheme.predict(trace_.samples[0]), CheckError);
}

// --- TwoStage -----------------------------------------------------------------

class TwoStageTest : public ::testing::Test {
 protected:
  const sim::Trace& trace_ = shared_pipeline_trace();
  Interval train_{0, day_start(28)};
  Interval test_{day_start(28), day_start(40)};
};

TEST_F(TwoStageTest, BeatsBasicA) {
  const auto m = run_two_stage(trace_, {.model = ml::ModelKind::kGbdt},
                               train_, test_)
                     .metrics;

  BasicScheme basic_a(BasicKind::kBasicA);
  basic_a.train(trace_, train_);
  const auto idx = samples_in(trace_, test_);
  const auto mb = evaluate_predictions(trace_, idx, basic_a.predict(trace_, idx));

  EXPECT_GT(m.positive.f1, mb.positive.f1 + 0.1);
  EXPECT_GT(m.positive.f1, 0.5);
}

TEST_F(TwoStageTest, StageOneRejectsGetZeroProbability) {
  TwoStagePredictor predictor({});
  predictor.train(trace_, train_);
  const auto idx = samples_in(trace_, test_);
  const auto proba = predictor.predict_proba(trace_, idx);
  const auto& mask = predictor.offender_mask();
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const auto node = trace_.samples[idx[k]].node;
    if (!mask[static_cast<std::size_t>(node)]) {
      EXPECT_FLOAT_EQ(proba[k], 0.0f);
    }
  }
}

TEST_F(TwoStageTest, Stage2TrainsOnlyOnOffenderSamples) {
  TwoStagePredictor predictor({});
  predictor.train(trace_, train_);
  std::size_t offender_samples = 0;
  const auto& mask = predictor.offender_mask();
  for (const std::size_t i : samples_in(trace_, train_)) {
    offender_samples +=
        mask[static_cast<std::size_t>(trace_.samples[i].node)] ? 1 : 0;
  }
  EXPECT_EQ(predictor.stage2_training_size(), offender_samples);
  EXPECT_LT(offender_samples, samples_in(trace_, train_).size());
}

TEST_F(TwoStageTest, HigherThresholdIsMoreConservative) {
  TwoStageConfig strict;
  strict.threshold = 0.9f;
  TwoStageConfig loose;
  loose.threshold = 0.1f;
  TwoStagePredictor ps(strict), pl(loose);
  ps.train(trace_, train_);
  pl.train(trace_, train_);
  const auto idx = samples_in(trace_, test_);
  const auto pred_s = ps.predict(trace_, idx);
  const auto pred_l = pl.predict(trace_, idx);
  EXPECT_LT(std::count(pred_s.begin(), pred_s.end(), 1),
            std::count(pred_l.begin(), pred_l.end(), 1));
}

TEST_F(TwoStageTest, UndersamplingShrinksStage2) {
  TwoStageConfig config;
  config.undersample_ratio = 1.0;
  TwoStagePredictor predictor(config);
  predictor.train(trace_, train_);
  TwoStagePredictor plain({});
  plain.train(trace_, train_);
  EXPECT_LT(predictor.stage2_training_size(), plain.stage2_training_size());
}

TEST_F(TwoStageTest, ForecastedFeaturesGiveSimilarResults) {
  // Sec. VI-A: "We experiment with two approaches and achieve similar
  // results." Approach 2 forecasts the current-run T/P features.
  TwoStageConfig approach2;
  approach2.features.forecast_current_run = true;
  const double f1_measured =
      run_two_stage(trace_, {}, train_, test_).metrics.positive.f1;
  const double f1_forecast =
      run_two_stage(trace_, approach2, train_, test_).metrics.positive.f1;
  EXPECT_GT(f1_forecast, 0.4);
  EXPECT_NEAR(f1_forecast, f1_measured, 0.12);
}

TEST_F(TwoStageTest, PredictBeforeTrainThrows) {
  TwoStagePredictor predictor({});
  const std::vector<std::size_t> idx = {0};
  EXPECT_THROW(predictor.predict(trace_, idx), CheckError);
}

TEST_F(TwoStageTest, UndersampledWindowWithoutPositivesDegrades) {
  // Two hours of the tiny trace hold offender-node samples but no positive
  // one, so undersampling keeps round(1.0 x 0) negatives and leaves the
  // stage-2 training set empty. That must degrade, not throw.
  const sim::Trace& trace = shared_tiny_trace();
  const Interval train{day_start(10), day_start(10) + 2 * kMinutesPerHour};
  const Interval test{train.end, day_start(12)};
  TwoStagePredictor plain({});
  plain.train(trace, train);
  ASSERT_FALSE(plain.degraded());  // stage 1 kept some samples

  TwoStagePredictor undersampled({.undersample_ratio = 1.0});
  ASSERT_NO_THROW(undersampled.train(trace, train));
  EXPECT_TRUE(undersampled.degraded());
  EXPECT_EQ(undersampled.stage2_training_size(), 0u);
  const auto idx = samples_in(trace, test);
  ASSERT_FALSE(idx.empty());
  for (const ml::Label p : undersampled.predict(trace, idx)) EXPECT_EQ(p, 0);
}

TEST_F(TwoStageTest, PipelineIsBitwiseInvariantAcrossThreadCounts) {
  // The parallel layer's contract: identical chunk grids and ordered
  // reductions regardless of worker count, so the full train/predict
  // pipeline must produce byte-identical results at any thread count.
  TwoStageConfig config;
  config.model = ml::ModelKind::kGbdt;

  std::vector<float> baseline;
  ml::ClassMetrics baseline_metrics{};
  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    set_parallel_threads(threads);
    const TwoStageRun run = run_two_stage(trace_, config, train_, test_);
    const std::vector<float>& proba = run.proba;
    const ml::ClassMetrics& metrics = run.metrics;
    if (threads == 1) {
      baseline = proba;
      baseline_metrics = metrics;
      continue;
    }
    ASSERT_EQ(proba.size(), baseline.size()) << "threads=" << threads;
    for (std::size_t k = 0; k < proba.size(); ++k) {
      ASSERT_EQ(proba[k], baseline[k])  // bitwise, not approximate
          << "threads=" << threads << " sample=" << k;
    }
    EXPECT_EQ(metrics.confusion.tp, baseline_metrics.confusion.tp);
    EXPECT_EQ(metrics.confusion.fp, baseline_metrics.confusion.fp);
    EXPECT_EQ(metrics.confusion.fn, baseline_metrics.confusion.fn);
    EXPECT_EQ(metrics.positive.f1, baseline_metrics.positive.f1);
  }
  set_parallel_threads(1);
}

TEST_F(TwoStageTest, RunScoresTheTestWindowOnceLikeThePredictor) {
  const TwoStageRun run = run_two_stage(trace_, {}, train_, test_);
  TwoStagePredictor predictor({});
  predictor.train(trace_, train_);
  const auto idx = samples_in(trace_, test_);
  std::vector<float> proba;
  const auto pred = predictor.predict(trace_, idx, &proba);
  EXPECT_EQ(run.train.end, train_.end);
  EXPECT_EQ(run.test.begin, test_.begin);
  EXPECT_EQ(run.idx, idx);
  EXPECT_EQ(run.proba, proba);  // bitwise
  EXPECT_EQ(run.pred, pred);
  const auto m = evaluate_predictions(trace_, idx, pred);
  EXPECT_EQ(run.metrics.confusion.tp, m.confusion.tp);
  EXPECT_EQ(run.metrics.confusion.fp, m.confusion.fp);
  EXPECT_EQ(run.metrics.confusion.fn, m.confusion.fn);
  EXPECT_EQ(run.metrics.positive.f1, m.positive.f1);
  EXPECT_EQ(run.stage2_size, predictor.stage2_training_size());
  EXPECT_EQ(run.offender_nodes,
            static_cast<std::size_t>(std::count(
                predictor.offender_mask().begin(),
                predictor.offender_mask().end(), 1)));
  EXPECT_FALSE(run.degraded);
  EXPECT_GT(run.fit_seconds, 0.0);
  EXPECT_GT(run.survivor_rate, 0.0);
  EXPECT_LT(run.survivor_rate, 1.0);
}

TEST_F(TwoStageTest, TrainSecondsIsPopulated) {
  TwoStagePredictor predictor({});
  predictor.train(trace_, train_);
  EXPECT_GT(predictor.fit_seconds(), 0.0);
}

// --- evaluation breakdowns -----------------------------------------------------

TEST_F(TwoStageTest, CabinetCountsSumToTotals) {
  TwoStagePredictor predictor({});
  predictor.train(trace_, train_);
  const auto idx = samples_in(trace_, test_);
  const auto pred = predictor.predict(trace_, idx);
  const CabinetCounts counts = cabinet_counts(trace_, idx, pred);
  double truth_sum = 0.0, pred_sum = 0.0, tp_sum = 0.0;
  for (std::size_t c = 0; c < counts.ground_truth.size(); ++c) {
    truth_sum += counts.ground_truth[c];
    pred_sum += counts.predicted[c];
    tp_sum += counts.true_positives[c];
    EXPECT_LE(counts.true_positives[c], counts.predicted[c]);
    EXPECT_LE(counts.true_positives[c], counts.ground_truth[c]);
  }
  const auto m = evaluate_predictions(trace_, idx, pred);
  EXPECT_DOUBLE_EQ(truth_sum,
                   static_cast<double>(m.confusion.tp + m.confusion.fn));
  EXPECT_DOUBLE_EQ(pred_sum,
                   static_cast<double>(m.confusion.tp + m.confusion.fp));
  EXPECT_DOUBLE_EQ(tp_sum, static_cast<double>(m.confusion.tp));
  const auto diffs = counts.differences();
  EXPECT_EQ(diffs.size(), counts.ground_truth.size());
}

TEST_F(TwoStageTest, RuntimeBreakdownCutoffsAreQuartiles) {
  TwoStagePredictor predictor({});
  predictor.train(trace_, train_);
  const auto idx = samples_in(trace_, test_);
  const auto pred = predictor.predict(trace_, idx);
  const RuntimeBreakdown rb = runtime_breakdown(trace_, idx, pred);
  EXPECT_LT(rb.short_cutoff_min, rb.long_cutoff_min);
  EXPECT_GT(rb.all.f1, 0.0);
}

TEST(SeverityBreakdown, HandCraftedLevels) {
  // Craft a small trace-like structure through the real simulator is
  // overkill here; reuse the shared trace and a synthetic prediction that
  // catches only the most severe half.
  const sim::Trace& trace = shared_pipeline_trace();
  const auto idx = samples_in(trace, {0, trace.duration + 1});
  std::vector<double> counts;
  for (const std::size_t i : idx) {
    if (trace.samples[i].sbe_affected()) {
      counts.push_back(trace.samples[i].sbe_count);
    }
  }
  const double median = quantile(counts, 0.5);
  std::vector<ml::Label> pred(idx.size(), 0);
  for (std::size_t k = 0; k < idx.size(); ++k) {
    if (trace.samples[idx[k]].sbe_count > median) pred[k] = 1;
  }
  const SeverityBreakdown sb = severity_breakdown(trace, idx, pred);
  // Predicting only above-median severity: top quartile fully caught,
  // bottom quartile fully missed.
  EXPECT_DOUBLE_EQ(sb.correct_fraction[0], 0.0);
  EXPECT_DOUBLE_EQ(sb.correct_fraction[3], 1.0);
  EXPECT_GT(sb.counts[0], 0u);
  EXPECT_GT(sb.counts[3], 0u);
  EXPECT_LE(sb.cutoffs[0], sb.cutoffs[1]);
  EXPECT_LE(sb.cutoffs[1], sb.cutoffs[2]);
}

// --- ECC advisor ---------------------------------------------------------------

TEST_F(TwoStageTest, EccAdvisorAccountingIdentities) {
  TwoStagePredictor predictor({});
  predictor.train(trace_, train_);
  const auto idx = samples_in(trace_, test_);
  const auto pred = predictor.predict(trace_, idx);
  const EccReport report = advise_ecc(trace_, idx, pred);
  EXPECT_EQ(report.decisions.size(), idx.size());
  EXPECT_LE(report.spent_overhead_hours, report.baseline_overhead_hours);
  EXPECT_GE(report.reexecution_hours, 0.0);
  EXPECT_LE(report.savings_ratio(), 1.0);
  // With a decent predictor, dynamic ECC should save something.
  EXPECT_GT(report.net_savings_hours(), 0.0);
}

TEST(EccAdvisor, PerfectPredictionSavesAllSafeOverhead) {
  const sim::Trace& trace = shared_pipeline_trace();
  const auto idx = samples_in(trace, {0, trace.duration + 1});
  std::vector<ml::Label> oracle(idx.size());
  for (std::size_t k = 0; k < idx.size(); ++k) {
    oracle[k] = trace.samples[idx[k]].sbe_affected() ? 1 : 0;
  }
  const EccReport report = advise_ecc(trace, idx, oracle);
  EXPECT_EQ(report.missed_sbe_runs, 0u);
  EXPECT_DOUBLE_EQ(report.reexecution_hours, 0.0);
  EXPECT_GT(report.savings_ratio(), 0.9);
}

TEST(EccAdvisor, AlwaysOnSavesNothing) {
  const sim::Trace& trace = shared_pipeline_trace();
  const auto idx = samples_in(trace, {0, day_start(5)});
  const std::vector<ml::Label> always_on(idx.size(), 1);
  const EccReport report = advise_ecc(trace, idx, always_on);
  EXPECT_DOUBLE_EQ(report.net_savings_hours(), 0.0);
  EXPECT_EQ(report.missed_sbe_runs, 0u);
}

}  // namespace
}  // namespace repro::core
