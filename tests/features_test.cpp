#include "features/features.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include "support/test_trace.hpp"

namespace repro::features {
namespace {

using repro::testing::shared_tiny_trace;

TEST(FeatureMasks, TableIvSetRelations) {
  // Cur ⊂ CurPrev ⊂ CurPrevNei and Cur ⊂ CurNei ⊂ CurPrevNei.
  EXPECT_EQ(kSetCur & ~kSetCurPrev, 0u);
  EXPECT_EQ(kSetCur & ~kSetCurNei, 0u);
  EXPECT_EQ(kSetCurPrev & ~kSetCurPrevNei, 0u);
  EXPECT_EQ(kSetCurNei & ~kSetCurPrevNei, 0u);
  EXPECT_EQ(kSetCurPrevNei, kAllFeatures);
  // The Fig 11 groups partition (with location) the full set.
  EXPECT_EQ(kGroupHist | kGroupTp | kGroupApp | kFeatLocation, kAllFeatures);
  EXPECT_EQ(kGroupHist & kGroupTp, 0u);
  EXPECT_EQ(kGroupHist & kGroupApp, 0u);
}

TEST(FeatureExtractor, DimMatchesNames) {
  const sim::Trace& trace = shared_tiny_trace();
  for (const FeatureMask mask :
       {kAllFeatures, kGroupHist, kGroupTp, kGroupApp, kSetCur, kSetCurPrev,
        kSetCurNei}) {
    const FeatureExtractor fx(trace, {.mask = mask});
    EXPECT_EQ(fx.dim(), fx.names().size());
    EXPECT_GT(fx.dim(), 0u);
    std::set<std::string> uniq(fx.names().begin(), fx.names().end());
    EXPECT_EQ(uniq.size(), fx.dim()) << "duplicate names, mask=" << mask;
  }
}

TEST(FeatureExtractor, SubsetMasksShrinkDimension) {
  const sim::Trace& trace = shared_tiny_trace();
  const FeatureExtractor all(trace, {.mask = kAllFeatures});
  const FeatureExtractor cur(trace, {.mask = kSetCur});
  const FeatureExtractor hist(trace, {.mask = kGroupHist});
  EXPECT_LT(cur.dim(), all.dim());
  EXPECT_LT(hist.dim(), cur.dim());
  // Cur removes exactly the 32 pre-window + 12 neighbor columns.
  EXPECT_EQ(all.dim() - cur.dim(), 44u);
  EXPECT_EQ(hist.dim(), 8u);
}

TEST(FeatureExtractor, EmptyMaskThrows) {
  const sim::Trace& trace = shared_tiny_trace();
  EXPECT_THROW(FeatureExtractor(trace, {.mask = 0}), CheckError);
}

TEST(FeatureExtractor, ExtractIsDeterministic) {
  const sim::Trace& trace = shared_tiny_trace();
  const FeatureExtractor fx(trace, {});
  std::vector<float> a(fx.dim()), b(fx.dim());
  fx.extract(trace.samples[5], a);
  fx.extract(trace.samples[5], b);
  EXPECT_EQ(a, b);
}

TEST(FeatureExtractor, WrongOutputWidthThrows) {
  const sim::Trace& trace = shared_tiny_trace();
  const FeatureExtractor fx(trace, {});
  std::vector<float> wrong(fx.dim() + 1);
  EXPECT_THROW(fx.extract(trace.samples[0], wrong), CheckError);
}

TEST(FeatureExtractor, AppOneHotIsExactlyOne) {
  const sim::Trace& trace = shared_tiny_trace();
  const FeatureSpec spec{.mask = kGroupApp};
  const FeatureExtractor fx(trace, spec);
  std::vector<float> out(fx.dim());
  for (const std::size_t i : {0UL, 17UL, 101UL}) {
    fx.extract(trace.samples[i], out);
    float app_sum = 0.0f;
    for (std::size_t b = 0; b < kAppHashBuckets; ++b) app_sum += out[b];
    EXPECT_FLOAT_EQ(app_sum, 1.0f);
  }
}

TEST(FeatureExtractor, HistoryMatchesSbeLogQueries) {
  const sim::Trace& trace = shared_tiny_trace();
  const FeatureExtractor fx(trace, {.mask = kGroupHist});
  const auto& names = fx.names();
  const auto col = [&](const std::string& name) {
    return static_cast<std::size_t>(
        std::find(names.begin(), names.end(), name) - names.begin());
  };
  std::vector<float> out(fx.dim());
  // Pick a positive sample late in the trace so history is non-trivial.
  for (auto it = trace.samples.rbegin(); it != trace.samples.rend(); ++it) {
    if (!it->sbe_affected()) continue;
    const sim::RunNodeSample& s = *it;
    fx.extract(s, out);
    const Minute t = s.start;
    EXPECT_FLOAT_EQ(out[col("hist_node_today")],
                    static_cast<float>(trace.sbe_log.node_count_between(
                        s.node, t - kMinutesPerDay, t)));
    EXPECT_FLOAT_EQ(out[col("hist_global_before")],
                    static_cast<float>(trace.sbe_log.global_count_between(
                        0, t - 2 * kMinutesPerDay)));
    EXPECT_FLOAT_EQ(out[col("hist_app_today")],
                    static_cast<float>(trace.sbe_log.app_count_between(
                        s.app, t - kMinutesPerDay, t)));
    break;
  }
}

TEST(FeatureExtractor, EarlyRunHistoryWindowsClampToTraceStart) {
  // Regression: a run starting before kMinutesPerDay used to produce
  // negative day1/day2 window bounds — and for runs in the first day,
  // inverted (lo > hi) queries that only accidentally returned 0. The
  // clamped windows must extract cleanly and match clamped log queries.
  const sim::Trace& trace = shared_tiny_trace();
  const FeatureExtractor fx(trace, {.mask = kGroupHist});
  const auto& names = fx.names();
  const auto col = [&](const std::string& name) {
    return static_cast<std::size_t>(
        std::find(names.begin(), names.end(), name) - names.begin());
  };
  sim::RunNodeSample s = trace.samples.front();
  std::vector<float> out(fx.dim());
  for (const Minute start : {Minute{0}, Minute{30}, kMinutesPerDay / 2,
                             kMinutesPerDay + 10}) {
    s.start = start;
    ASSERT_NO_THROW(fx.extract(s, out)) << "start=" << start;
    const Minute day1 = std::max<Minute>(start - kMinutesPerDay, 0);
    const Minute day2 = std::max<Minute>(start - 2 * kMinutesPerDay, 0);
    EXPECT_FLOAT_EQ(out[col("hist_node_today")],
                    static_cast<float>(trace.sbe_log.node_count_between(
                        s.node, day1, start)));
    EXPECT_FLOAT_EQ(out[col("hist_node_yesterday")],
                    static_cast<float>(trace.sbe_log.node_count_between(
                        s.node, day2, day1)));
    EXPECT_FLOAT_EQ(out[col("hist_global_before")],
                    static_cast<float>(
                        trace.sbe_log.global_count_between(0, day2)));
  }
}

TEST(FeatureExtractor, ForecastHorizonSurvivesHostileRuntimes) {
  // Regression: runtime_min was cast straight to size_t for the forecast
  // horizon; a negative or NaN value wrapped to a huge allocation. Now it
  // is clamped to [0, two weeks].
  const sim::Trace& trace = shared_tiny_trace();
  FeatureSpec spec{.mask = kFeatTpCur};
  spec.forecast_current_run = true;
  const FeatureExtractor fx(trace, spec);
  sim::RunNodeSample s = trace.samples[5];
  std::vector<float> out(fx.dim());
  for (const float rt : {-1.0f, -1e9f, std::nanf(""), 1e30f}) {
    s.runtime_min = rt;
    ASSERT_NO_THROW(fx.extract(s, out)) << "runtime_min=" << rt;
    for (const float v : out) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(FeatureExtractor, NonFiniteInputsAreImputedToZero) {
  // A sample that bypassed ingest can carry NaN/inf telemetry or app
  // fields; extract() must hand the learner 0 in exactly those columns and
  // leave every other column as a clean copy of the sample gives it.
  const sim::Trace& trace = shared_tiny_trace();
  const FeatureExtractor fx(trace, {});
  const auto& names = fx.names();
  const auto col = [&](const std::string& name) {
    return static_cast<std::size_t>(
        std::find(names.begin(), names.end(), name) - names.begin());
  };
  const sim::RunNodeSample& clean = trace.samples[7];
  sim::RunNodeSample dirty = clean;
  dirty.runtime_min = std::nanf("");
  dirty.run_gpu_temp.mean = std::numeric_limits<float>::infinity();
  dirty.slot_gpu_power.diff_std = -std::numeric_limits<float>::infinity();
  std::vector<float> a(fx.dim()), b(fx.dim());
  fx.extract(clean, a);
  fx.extract(dirty, b);
  const std::set<std::size_t> bad = {col("app_runtime_min"),
                                     col("cur_gpu_temp_mean"),
                                     col("slot_gpu_power_dstd")};
  ASSERT_EQ(bad.size(), 3u);
  for (std::size_t c = 0; c < fx.dim(); ++c) {
    if (bad.contains(c)) {
      EXPECT_EQ(b[c], 0.0f) << names[c];
    } else {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(b[c]),
                std::bit_cast<std::uint32_t>(a[c]))
          << names[c];
    }
  }
}

TEST(FeatureExtractor, HistoryOnlySeesPastObservations) {
  const sim::Trace& trace = shared_tiny_trace();
  const FeatureExtractor fx(trace, {.mask = kGroupHist});
  // The very first sample starts at a time with no observable history.
  std::vector<float> out(fx.dim());
  fx.extract(trace.samples.front(), out);
  for (const float v : out) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(FeatureExtractor, BuildsLabeledDataset) {
  const sim::Trace& trace = shared_tiny_trace();
  const FeatureExtractor fx(trace, {});
  std::vector<std::size_t> idx = {0, 5, 10, 20};
  const ml::Dataset d = fx.build(idx);
  d.validate();
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(d.features(), fx.dim());
  for (std::size_t r = 0; r < idx.size(); ++r) {
    EXPECT_EQ(d.y[r], trace.samples[idx[r]].sbe_affected() ? 1 : 0);
  }
  EXPECT_THROW(fx.build(std::vector<std::size_t>{trace.samples.size()}),
               CheckError);
}

TEST(FeatureExtractor, LocationFeaturesMatchTopology) {
  const sim::Trace& trace = shared_tiny_trace();
  const FeatureExtractor fx(trace, {.mask = kFeatLocation});
  const topo::Topology topology(trace.system);
  std::vector<float> out(fx.dim());
  const sim::RunNodeSample& s = trace.samples[3];
  fx.extract(s, out);
  const auto addr = topology.address_of(s.node);
  EXPECT_FLOAT_EQ(out[0], static_cast<float>(addr.cab_x));
  EXPECT_FLOAT_EQ(out[1], static_cast<float>(addr.cab_y));
  EXPECT_FLOAT_EQ(out[5], static_cast<float>(s.node));
  EXPECT_GE(out[6], 0.0f);  // node hash in [0, 1)
  EXPECT_LT(out[6], 1.0f);
}

TEST(FeatureExtractor, ForecastedRunStatsDifferButStayPlausible) {
  const sim::Trace& trace = shared_tiny_trace();
  const FeatureExtractor measured(trace, {.mask = kFeatTpCur});
  FeatureSpec spec{.mask = kFeatTpCur};
  spec.forecast_current_run = true;
  const FeatureExtractor forecasted(trace, spec);
  ASSERT_EQ(measured.dim(), forecasted.dim());

  std::vector<float> a(measured.dim()), b(forecasted.dim());
  std::size_t checked = 0;
  double abs_err = 0.0;
  for (std::size_t i = 200; i < trace.samples.size() && checked < 50; ++i) {
    const auto& s = trace.samples[i];
    if (s.recent_len < 8) continue;
    measured.extract(s, a);
    forecasted.extract(s, b);
    // Column 0 is the run-mean GPU temperature in both layouts.
    abs_err += std::abs(a[0] - b[0]);
    EXPECT_GT(b[0], 5.0f);
    EXPECT_LT(b[0], 90.0f);
    ++checked;
  }
  ASSERT_EQ(checked, 50u);
  // Forecasts carry a systematic bias (the pre-run window cannot know the
  // load is about to jump), but must stay in the thermal ballpark — the
  // classifier only needs them informative and consistent, not unbiased.
  EXPECT_LT(abs_err / 50.0, 15.0);
  EXPECT_GT(abs_err / 50.0, 0.01);  // and they are not just copies
}

// FNV-1a over the bit patterns of every feature value `fx` extracts from
// every sample of `trace`, row after row.
std::uint64_t extract_hash(const sim::Trace& trace, const FeatureExtractor& fx) {
  std::uint64_t h = 1469598103934665603ull;
  std::vector<float> out(fx.dim());
  for (const sim::RunNodeSample& s : trace.samples) {
    fx.extract(s, out);
    for (const float v : out) {
      const auto word = std::bit_cast<std::uint32_t>(v);
      for (int b = 0; b < 4; ++b) {
        h ^= (word >> (8 * b)) & 0xffu;
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

TEST(FeatureExtractor, GoldenExtractHash) {
  // Pins extract() bit-for-bit on every sample of the tiny trace, for the
  // full set, the history group, each history bit alone, the Table IV sets
  // and the forecast variant. The pins were computed on the extractor that
  // made nine SbeLog window queries per row; a change to how features are
  // computed must keep them or re-pin deliberately.
  const sim::Trace& trace = shared_tiny_trace();
  struct Pin {
    FeatureMask mask;
    bool forecast;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {kAllFeatures, false, 0x1fa85726d17344ddull},
      {kGroupHist, false, 0xdb59b0a9648b3f98ull},
      {kFeatHistLocalToday, false, 0x434e4e8e29d14b5dull},
      {kFeatHistLocalYesterday, false, 0x0e3565705f48616cull},
      {kFeatHistLocalBefore, false, 0x2da44f7995fa8487ull},
      {kFeatHistGlobalToday, false, 0x6504c7d5946122eaull},
      {kFeatHistGlobalYesterday, false, 0x31338e4753a50c95ull},
      {kFeatHistGlobalBefore, false, 0x20d7f746b02b06a1ull},
      {kFeatHistApp, false, 0x5880793cff7dfdb4ull},
      {kSetCur, false, 0x1419d1073e236508ull},
      {kSetCurPrev, false, 0x181e778b63576197ull},
      {kSetCurNei, false, 0x2c430f8d9074986aull},
      {kAllFeatures, true, 0x843fea9b65d3e0fbull},
  };
  for (const Pin& pin : pins) {
    const FeatureExtractor fx(
        trace, {.mask = pin.mask, .forecast_current_run = pin.forecast});
    EXPECT_EQ(extract_hash(trace, fx), pin.hash)
        << std::hex << "mask 0x" << pin.mask << " forecast " << pin.forecast;
  }
}

}  // namespace
}  // namespace repro::features
