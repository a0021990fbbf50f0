// Tier-1 bench smoke (ctest label: bench_smoke): one downsized Table III
// split through the full two-stage pipeline with the histogram GBDT
// engine. Not a timing benchmark — it exists so trainer regressions
// (crashes, metric collapses, empty stage-2 sets) fail the default test
// suite instead of waiting for a manual bench/bench_table3 run.
#include <gtest/gtest.h>

#include "core/splits.hpp"
#include "core/two_stage.hpp"
#include "support/test_trace.hpp"

namespace repro::core {
namespace {

TEST(BenchSmoke, GbdtTrainsDownsizedTable3Split) {
  const sim::Trace& trace = repro::testing::shared_pipeline_trace();
  // The bench's 60/14/14-day sliding scheme scaled to the 40-day test
  // trace; one split is enough to exercise the whole train/predict path.
  const auto splits = SplitSpec::sliding(/*total_days=*/40, /*train_days=*/24,
                                         /*test_days=*/8, /*stride_days=*/8,
                                         /*count=*/1);
  ASSERT_EQ(splits.size(), 1u);

  const TwoStageRun run = run_two_stage(
      trace, {.model = ml::ModelKind::kGbdt}, splits[0].train, splits[0].test);
  ASSERT_FALSE(run.degraded);
  EXPECT_GT(run.stage2_size, 100u);
  EXPECT_GT(run.train_seconds, 0.0);

  const ml::ClassMetrics& metrics = run.metrics;
  // Loose floors: the paper-shaped pipeline scores far above these on this
  // trace; the bounds only catch a trainer that stopped learning.
  EXPECT_GT(metrics.positive.f1, 0.3);
  EXPECT_GT(metrics.positive.recall, 0.3);
  EXPECT_GT(metrics.positive.precision, 0.3);
}

}  // namespace
}  // namespace repro::core
