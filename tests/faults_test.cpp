#include <gtest/gtest.h>

#include "faults/sbe_log.hpp"
#include "faults/sbe_model.hpp"
#include "topology/topology.hpp"
#include "workload/application.hpp"

namespace repro::faults {
namespace {

class SbeModelTest : public ::testing::Test {
 protected:
  topo::Topology topo_{topo::SystemConfig::titan_scaled()};
  workload::AppCatalog catalog_ =
      workload::AppCatalog::generate({.num_apps = 60}, Rng(1));
  FaultParams params_{};

  telemetry::Reading reading(float temp, float power) const {
    return {.gpu_temp = temp, .gpu_power = power, .cpu_temp = 40.0f};
  }
};

TEST_F(SbeModelTest, RateIncreasesWithTemperatureAboveKnee) {
  const SbeModel model(topo_, catalog_, params_, Rng(2));
  const double cool = model.minute_rate(0, 0, reading(35.0f, 120.0f), 0, false);
  const double knee = model.minute_rate(0, 0, reading(40.0f, 120.0f), 0, false);
  const double warm = model.minute_rate(0, 0, reading(48.0f, 120.0f), 0, false);
  const double hot = model.minute_rate(0, 0, reading(56.0f, 120.0f), 0, false);
  EXPECT_DOUBLE_EQ(cool, knee);  // below the knee temperature has no effect
  EXPECT_GT(warm, knee);
  EXPECT_GT(hot, warm);
  // Superlinear: the second 8-degree step multiplies more than the first.
  EXPECT_GT(hot / warm, warm / knee);
}

TEST_F(SbeModelTest, RateIncreasesWithPower) {
  const SbeModel model(topo_, catalog_, params_, Rng(3));
  const double lo = model.minute_rate(0, 0, reading(35.0f, 60.0f), 0, false);
  const double hi = model.minute_rate(0, 0, reading(35.0f, 200.0f), 0, false);
  EXPECT_GT(hi, lo);
}

TEST_F(SbeModelTest, BurstBoostMultiplies) {
  const SbeModel model(topo_, catalog_, params_, Rng(4));
  const auto r = reading(40.0f, 120.0f);
  const double base = model.minute_rate(0, 0, r, 0, false);
  const double burst = model.minute_rate(0, 0, r, 0, true);
  // The saturation cap compresses the boost, so the ratio is bounded by
  // (1 + burst_boost) and approaches it for small raw rates.
  EXPECT_GT(burst, base);
  EXPECT_LE(burst / base, 1.0 + params_.burst_boost + 1e-9);
  EXPECT_NEAR(burst / base, 1.0 + params_.burst_boost,
              0.2 * (1.0 + params_.burst_boost));
}

TEST_F(SbeModelTest, RateSaturatesAtCap) {
  FaultParams p = params_;
  p.base_rate_per_min = 1e3;  // absurdly hot: rate must still respect cap
  const SbeModel model(topo_, catalog_, p, Rng(12));
  const double r = model.minute_rate(0, 0, reading(60.0f, 250.0f), 0, true);
  EXPECT_LE(r, p.rate_cap_per_min);
  EXPECT_GT(r, 0.5 * p.rate_cap_per_min);
}

TEST_F(SbeModelTest, OffenderFractionRoughlyRespected) {
  const SbeModel model(topo_, catalog_, params_, Rng(5));
  int susceptible = 0;
  for (topo::NodeId n = 0; n < topo_.total_nodes(); ++n) {
    susceptible += model.node_is_susceptible(n, 0) ? 1 : 0;
  }
  const double frac =
      static_cast<double>(susceptible) / topo_.total_nodes();
  EXPECT_NEAR(frac, params_.node_offender_fraction, 0.03);
}

TEST_F(SbeModelTest, DriftChangesSomeNodes) {
  FaultParams p = params_;
  p.drift_day = 50;
  const SbeModel model(topo_, catalog_, p, Rng(6));
  int changed = 0;
  const Minute before = day_start(49);
  const Minute after = day_start(50);
  for (topo::NodeId n = 0; n < topo_.total_nodes(); ++n) {
    if (model.node_is_susceptible(n, before) !=
        model.node_is_susceptible(n, after)) {
      ++changed;
    }
  }
  EXPECT_GT(changed, 0);
  // Rates actually differ across the drift boundary for changed nodes.
  const auto r = reading(40.0f, 120.0f);
  bool rate_changed = false;
  for (topo::NodeId n = 0; n < topo_.total_nodes(); ++n) {
    if (model.minute_rate(n, 0, r, before, false) !=
        model.minute_rate(n, 0, r, after, false)) {
      rate_changed = true;
      break;
    }
  }
  EXPECT_TRUE(rate_changed);
}

TEST_F(SbeModelTest, AppScalesAreHeavyTailed) {
  const SbeModel model(topo_, catalog_, params_, Rng(7));
  std::vector<double> scales;
  for (std::size_t a = 0; a < catalog_.size(); ++a) {
    scales.push_back(model.app_scale(static_cast<workload::AppId>(a)));
  }
  std::sort(scales.begin(), scales.end());
  // The top app should dominate the median by a large factor.
  EXPECT_GT(scales.back(), scales[scales.size() / 2] * 10.0);
}

TEST_F(SbeModelTest, DrawMatchesRateForSmallLambda) {
  Rng rng(8);
  const double lambda = 0.01;
  int hits = 0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) hits += SbeModel::draw(lambda, rng) > 0 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, lambda, 0.002);
  EXPECT_EQ(SbeModel::draw(0.0, rng), 0u);
  EXPECT_EQ(SbeModel::draw(-1.0, rng), 0u);
}

// --- SbeLog -----------------------------------------------------------------

SbeEvent event(workload::RunId run, workload::AppId app, topo::NodeId node,
               Minute end, std::uint32_t count) {
  return {.run = run, .app = app, .node = node, .start = end - 100,
          .end = end, .count = count};
}

TEST(SbeLog, WindowedCountsAreExact) {
  SbeLog log(8, 4);
  log.add(event(1, 0, 2, 100, 3));
  log.add(event(2, 1, 2, 200, 2));
  log.add(event(3, 0, 5, 300, 1));
  EXPECT_EQ(log.node_count_between(2, 0, 1000), 5u);
  EXPECT_EQ(log.node_count_between(2, 0, 200), 3u);  // [0, 200) excludes t=200
  EXPECT_EQ(log.node_count_between(2, 100, 201), 5u);
  EXPECT_EQ(log.node_count_between(2, 101, 200), 0u);
  EXPECT_EQ(log.node_count_between(5, 0, 1000), 1u);
  EXPECT_EQ(log.app_count_between(0, 0, 1000), 4u);
  EXPECT_EQ(log.global_count_between(0, 1000), 6u);
  EXPECT_EQ(log.global_count_between(150, 250), 2u);
}

TEST(SbeLog, AppNodeCounts) {
  SbeLog log(8, 4);
  log.add(event(1, 0, 2, 100, 3));
  log.add(event(2, 1, 2, 200, 2));
  log.add(event(3, 0, 2, 300, 7));
  EXPECT_EQ(log.app_node_count_between(0, 2, 0, 1000), 10u);
  EXPECT_EQ(log.app_node_count_between(1, 2, 0, 1000), 2u);
  EXPECT_EQ(log.app_node_count_between(0, 2, 150, 1000), 7u);
  EXPECT_EQ(log.app_node_count_between(0, 3, 0, 1000), 0u);
}

TEST(SbeLog, OffenderMask) {
  SbeLog log(4, 2);
  log.add(event(1, 0, 1, 50, 1));
  log.add(event(2, 1, 3, 150, 1));
  const auto mask_all = log.offender_mask(0, 1000);
  EXPECT_EQ(mask_all, (std::vector<char>{0, 1, 0, 1}));
  const auto mask_early = log.offender_mask(0, 100);
  EXPECT_EQ(mask_early, (std::vector<char>{0, 1, 0, 0}));
}

TEST(SbeLog, RejectsBadEvents) {
  SbeLog log(4, 2);
  SbeEvent zero = event(1, 0, 1, 50, 0);
  EXPECT_THROW(log.add(zero), CheckError);
  SbeEvent bad_node = event(1, 0, 9, 50, 1);
  EXPECT_THROW(log.add(bad_node), CheckError);
  log.add(event(1, 0, 1, 100, 1));
  SbeEvent out_of_order = event(2, 0, 1, 50, 1);
  EXPECT_THROW(log.add(out_of_order), CheckError);
}

TEST(SbeLog, EmptyQueriesReturnZero) {
  const SbeLog log(4, 2);
  EXPECT_EQ(log.node_count_between(0, 0, 100), 0u);
  EXPECT_EQ(log.global_count_between(0, 100), 0u);
  EXPECT_EQ(log.events().size(), 0u);
}

TEST(SbeLog, NegativeWindowBoundsClampToZero) {
  // History windows of early-trace runs can reach before minute 0; the
  // query clamps them instead of treating them as inverted-and-empty.
  SbeLog log(4, 2);
  log.add(event(1, 0, 1, 50, 3));
  EXPECT_EQ(log.node_count_between(1, -1000, 100), 3u);
  EXPECT_EQ(log.node_count_between(1, -2000, -1000), 0u);  // clamps to [0, 0)
  EXPECT_EQ(log.global_count_between(-5, 100), 3u);
  EXPECT_EQ(log.global_count_between(-5, -1), 0u);
}

TEST(SbeLog, InvertedWindowIsACallerBug) {
  SbeLog log(4, 2);
  log.add(event(1, 0, 1, 50, 1));
  EXPECT_THROW((void)log.node_count_between(1, 100, 50), CheckError);
  EXPECT_THROW((void)log.global_count_between(200, 100), CheckError);
  EXPECT_THROW((void)log.app_count_between(0, 100, 50), CheckError);
  EXPECT_THROW((void)log.app_node_count_between(0, 1, 50, 10), CheckError);
  EXPECT_THROW((void)log.offender_mask(100, 50), CheckError);
  EXPECT_THROW((void)log.history(1, 0, 0, 100, 50), CheckError);  // day1 > t
  EXPECT_THROW((void)log.history(1, 0, 60, 40, 100), CheckError);  // day2 > day1
}

TEST(SbeLog, AppNodeQueryClampsLikeTheOthers) {
  SbeLog log(4, 2);
  log.add(event(1, 0, 1, 50, 3));
  EXPECT_EQ(log.app_node_count_between(0, 1, -1000, 100), 3u);
  EXPECT_EQ(log.app_node_count_between(0, 1, -2000, -1000), 0u);
  EXPECT_EQ(log.app_node_count_between(0, 1, 50, 51), 3u);
  EXPECT_EQ(log.app_node_count_between(0, 1, 51, 51), 0u);
}

TEST(SbeLog, QueriesRejectIdsOutsideTheMachine) {
  // A bad id is a CheckError, as in add(), not std::out_of_range.
  SbeLog log(4, 2);
  log.add(event(1, 0, 1, 50, 1));
  for (const topo::NodeId node : {-1, 4}) {
    EXPECT_THROW((void)log.node_count_between(node, 0, 100), CheckError);
    EXPECT_THROW((void)log.app_node_count_between(0, node, 0, 100),
                 CheckError);
    EXPECT_THROW((void)log.history(node, 0, 0, 0, 100), CheckError);
  }
  for (const workload::AppId app : {-1, 2}) {
    EXPECT_THROW((void)log.app_count_between(app, 0, 100), CheckError);
    EXPECT_THROW((void)log.app_node_count_between(app, 1, 0, 100),
                 CheckError);
    EXPECT_THROW((void)log.history(1, app, 0, 0, 100), CheckError);
  }
}

TEST(SbeLog, RejectsObservationsOutsideItsMinuteRange) {
  SbeLog log(4, 2);
  SbeEvent early = event(1, 0, 1, 0, 1);
  early.start = -10;
  early.end = -1;
  EXPECT_THROW(log.add(early), CheckError);
  // A far-future minute must not size the per-minute table.
  EXPECT_THROW(log.add(event(2, 0, 1, kMaxSbeMinute + 1, 1)), CheckError);
  EXPECT_TRUE(log.events().empty());
  log.add(event(3, 0, 1, kMaxSbeMinute, 2));
  EXPECT_EQ(log.global_count_between(0, kMaxSbeMinute + 1), 2u);
}

}  // namespace
}  // namespace repro::faults
