// Tier-1 bench smoke (ctest label: bench_smoke): one downsized Table III
// split through the full two-stage pipeline with the histogram GBDT
// engine, plus the experiment driver's Context (bench/support). Not a
// timing benchmark: it exists so trainer regressions (crashes, metric
// collapses, empty stage-2 sets) fail the default test suite instead of
// waiting for a manual repro_bench run.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/splits.hpp"
#include "core/two_stage.hpp"
#include "json_parser.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_io.hpp"
#include "support/bench_common.hpp"
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
  EXPECT_GT(run.fit_seconds, 0.0);

  const ml::ClassMetrics& metrics = run.metrics;
  // Loose floors: the paper-shaped pipeline scores far above these on this
  // trace; the bounds only catch a trainer that stopped learning.
  EXPECT_GT(metrics.positive.f1, 0.3);
  EXPECT_GT(metrics.positive.recall, 0.3);
  EXPECT_GT(metrics.positive.precision, 0.3);
}

TEST(BenchTable3, AuditKeysCarryTheRunsNumbers) {
  // Table III writes these keys for the DS1 GBDT run (DESIGN.md §8).
  const sim::Trace& trace = repro::testing::shared_pipeline_trace();
  const auto splits = SplitSpec::sliding(40, 24, 8, 8, 1);
  const TwoStageRun run = run_two_stage(
      trace, {.model = ml::ModelKind::kGbdt}, splits[0].train, splits[0].test);
  ASSERT_FALSE(run.degraded);
  ASSERT_FALSE(run.idx.empty());
  ASSERT_TRUE(run.quality.valid);
  ASSERT_TRUE(run.drift.valid);
  const std::vector<std::pair<std::string, double>> expected = {
      {"GBDT.positive_rate", run.quality.positive_rate},
      {"GBDT.survivor_rate", run.survivor_rate},
      {"GBDT.train_survivor_rate", run.train_survivor_rate},
      {"GBDT.train_positive_rate", run.train_positive_rate},
      {"GBDT.psi_max", run.drift.psi_max},
      {"GBDT.psi_argmax_feature", static_cast<double>(run.drift.psi_argmax)},
      {"GBDT.ks_max", run.drift.ks_max},
      {"GBDT.ks_argmax_feature", static_cast<double>(run.drift.ks_argmax)},
      {"GBDT.psi_drifted_features",
       static_cast<double>(run.drift.psi_drifted)}};
  EXPECT_EQ(bench::audit_keys("GBDT", run), expected);

  // What a run could not compute is left out: a degraded run has no
  // stage-1 rates, an empty test window no survivor rate, and a run
  // without its reports no quality or drift numbers.
  TwoStageRun partial = run;
  partial.quality.valid = false;
  partial.drift.valid = false;
  partial.idx.clear();
  EXPECT_EQ(bench::audit_keys("GBDT", partial),
            (std::vector<std::pair<std::string, double>>{
                {"GBDT.train_survivor_rate", run.train_survivor_rate},
                {"GBDT.train_positive_rate", run.train_positive_rate}}));
  partial.degraded = true;
  EXPECT_TRUE(bench::audit_keys("GBDT", partial).empty());
}

/// A fresh cache directory under the test temp dir.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(BenchContext, CellRequestedByTwoExperimentsIsFittedOnce) {
  // Fig 13 asks for the DS1 default cell and Fig 11 for DS1 "All
  // features", which is the same config: the grid fits it once.
  sim::SimConfig config = sim::SimConfig::testing(30, 11);
  config.faults.node_offender_fraction = 0.15;
  config.faults.base_rate_per_min = 2.0e-3;
  bench::Context ctx(config, SplitSpec::sliding(30, 15, 7, 4, 2),
                     fresh_dir("bench_context_grid"));
  // The fits are counted by the `two_stage.train` span.
  obs::set_enabled(true);
  const obs::Timer& fits = obs::timer("two_stage.train");
  const std::uint64_t before = fits.calls();
  const TwoStageRun& fig13 = ctx.run(0);
  EXPECT_EQ(fits.calls(), before + 1);
  const TwoStageRun& fig11 =
      ctx.run(0, {.features = {.mask = features::kAllFeatures}});
  EXPECT_EQ(&fig11, &fig13);
  EXPECT_EQ(fits.calls(), before + 1);
  // A different model, or the same model on another split, is a new cell.
  (void)ctx.run(0, {.model = ml::ModelKind::kLogisticRegression});
  (void)ctx.run(1);
  EXPECT_EQ(fits.calls(), before + 3);
  // A GBDT spec at default parameters is the default cell; a non-default
  // one is a new cell, fitted once however often it is requested.
  EXPECT_EQ(&ctx.run(0, {.model = ml::GradientBoostedTrees::Params{}}),
            &fig13);
  EXPECT_EQ(fits.calls(), before + 3);
  const ml::GradientBoostedTrees::Params few_trees{.trees = 50};
  const TwoStageRun& shape = ctx.run(0, {.model = few_trees});
  EXPECT_NE(&shape, &fig13);
  EXPECT_EQ(&ctx.run(0, {.model = few_trees}), &shape);
  EXPECT_EQ(fits.calls(), before + 4);
  EXPECT_TRUE(fig13.quality.valid);
}

TEST(BenchContext, CacheHitIsReportedWithObsOff) {
  const sim::SimConfig config = sim::SimConfig::testing(2, 94);
  const std::string dir = fresh_dir("bench_context_warm");
  sim::save_trace(sim::simulate(config), config,
                  sim::cache_path(config, dir));
  bench::Context ctx(config, {}, dir);
  obs::set_enabled(false);
  (void)ctx.trace();
  EXPECT_TRUE(ctx.trace_cache_hit());
}

TEST(BenchContext, StaleCacheEntryIsNotReportedAsAHit) {
  const sim::SimConfig config = sim::SimConfig::testing(2, 93);
  const std::string dir = fresh_dir("bench_context_stale");
  const std::string path = sim::cache_path(config, dir);
  sim::save_trace(sim::simulate(config), config, path);
  {
    // Stamp the previous format's magic ("TRACEv06") over the header.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint64_t old_magic = 0x54524143'45763036ULL;
    f.write(reinterpret_cast<const char*>(&old_magic), sizeof(old_magic));
  }
  // What the driver writes: the artifact's flag after the context's load.
  const auto artifact_hit = [&] {
    bench::Context ctx(config, {}, dir);
    (void)ctx.trace();
    bench::BenchJson json("bench_context_stale");
    json.set("trace_cache_hit", ctx.trace_cache_hit());
    const std::string written = json.write();
    std::stringstream text;
    text << std::ifstream(written).rdbuf();
    std::filesystem::remove(written);
    JsonParser parser(text.str());
    EXPECT_TRUE(parser.parse()) << text.str();
    return parser.flat.at("trace_cache_hit");
  };
  EXPECT_EQ(artifact_hit(), "false");  // a stale entry sits at the path
  EXPECT_EQ(artifact_hit(), "true");   // the resimulated trace replaced it
}

}  // namespace
}  // namespace repro::core
