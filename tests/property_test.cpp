// Randomized cross-checks: each test generates many random instances and
// verifies an invariant against a naive reference implementation or an
// algebraic identity. These complement the per-module unit tests with
// broader input coverage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/sample_index.hpp"
#include "faults/sbe_log.hpp"
#include "inject/inject.hpp"
#include "ml/metrics.hpp"
#include "sim/ingest.hpp"
#include "support/test_trace.hpp"
#include "telemetry/series.hpp"
#include "topology/topology.hpp"

namespace repro {
namespace {

class PropertyTest : public ::testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<std::uint64_t>(GetParam()) * 7919 + 13};
};

TEST_P(PropertyTest, HistogramQuantileInvertsCdf) {
  Histogram h(0.0, 100.0, 200);
  const int n = 200 + GetParam() * 137;
  std::vector<double> xs;
  for (int i = 0; i < n; ++i) {
    const double x = rng_.uniform(5.0, 95.0);
    h.add(x);
    xs.push_back(x);
  }
  std::sort(xs.begin(), xs.end());
  for (const double p : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    // Histogram quantile within one bin width of the exact sample quantile.
    EXPECT_NEAR(h.quantile(p), quantile_sorted(xs, p), 1.0) << "p=" << p;
  }
}

TEST_P(PropertyTest, RunningStatsMergeIsAssociative) {
  RunningStats a, b, c, all;
  for (int i = 0; i < 300; ++i) {
    const double x = rng_.normal(10.0, 5.0);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(x);
    all.add(x);
  }
  // (a + b) + c  ==  a + (b + c)  == everything at once.
  RunningStats ab = a;
  ab.merge(b);
  ab.merge(c);
  RunningStats bc = b;
  bc.merge(c);
  RunningStats a_bc = a;
  a_bc.merge(bc);
  EXPECT_NEAR(ab.mean(), a_bc.mean(), 1e-9);
  EXPECT_NEAR(ab.variance(), a_bc.variance(), 1e-6);
  EXPECT_NEAR(ab.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(ab.variance(), all.variance(), 1e-6);
}

TEST_P(PropertyTest, F1IsHarmonicMeanBound) {
  // F1 lies between min and max of precision/recall for random confusion
  // counts, and equals them when they are equal.
  const auto tp = rng_.uniform_index(100) + 1;
  const auto fp = rng_.uniform_index(100);
  const auto fn = rng_.uniform_index(100);
  const ml::PrMetrics m = ml::pr_metrics(tp, fp, fn);
  EXPECT_GE(m.f1, std::min(m.precision, m.recall) - 1e-12);
  EXPECT_LE(m.f1, std::max(m.precision, m.recall) + 1e-12);
}

TEST_P(PropertyTest, RingSeriesAgreesWithVectorReference) {
  const std::size_t capacity = 8 + GetParam() * 7 % 56;
  telemetry::RingSeries ring(capacity);
  std::vector<float> reference;
  const int pushes = 100 + GetParam() * 31;
  for (int i = 0; i < pushes; ++i) {
    const float v = static_cast<float>(rng_.uniform(0.0, 100.0));
    ring.push(v);
    reference.push_back(v);
  }
  const std::size_t kept = std::min(capacity, reference.size());
  ASSERT_EQ(ring.size(), kept);
  for (std::size_t age = 0; age < kept; ++age) {
    EXPECT_FLOAT_EQ(ring.at_age(age),
                    reference[reference.size() - 1 - age]);
  }
}

TEST_P(PropertyTest, SbeLogCountsMatchNaiveScan) {
  faults::SbeLog log(16, 8);
  struct Raw {
    workload::AppId app;
    topo::NodeId node;
    Minute end;
    std::uint32_t count;
  };
  std::vector<Raw> raws;
  Minute t = 0;
  const int events = 50 + GetParam() * 13;
  for (int i = 0; i < events; ++i) {
    t += static_cast<Minute>(rng_.uniform_index(200));
    Raw r{static_cast<workload::AppId>(rng_.uniform_index(8)),
          static_cast<topo::NodeId>(rng_.uniform_index(16)), t,
          static_cast<std::uint32_t>(rng_.uniform_index(9) + 1)};
    raws.push_back(r);
    log.add({.run = i, .app = r.app, .node = r.node, .start = r.end - 10,
             .end = r.end, .count = r.count});
  }
  for (int probe = 0; probe < 20; ++probe) {
    const Minute lo = static_cast<Minute>(rng_.uniform_index(
        static_cast<std::uint64_t>(t + 100)));
    const Minute hi =
        lo + static_cast<Minute>(rng_.uniform_index(2000));
    const auto node = static_cast<topo::NodeId>(rng_.uniform_index(16));
    const auto app = static_cast<workload::AppId>(rng_.uniform_index(8));
    std::uint64_t node_ref = 0, app_ref = 0, global_ref = 0, pair_ref = 0;
    for (const Raw& r : raws) {
      if (r.end < lo || r.end >= hi) continue;
      global_ref += r.count;
      if (r.node == node) node_ref += r.count;
      if (r.app == app) app_ref += r.count;
      if (r.node == node && r.app == app) pair_ref += r.count;
    }
    EXPECT_EQ(log.node_count_between(node, lo, hi), node_ref);
    EXPECT_EQ(log.app_count_between(app, lo, hi), app_ref);
    EXPECT_EQ(log.global_count_between(lo, hi), global_ref);
    EXPECT_EQ(log.app_node_count_between(app, node, lo, hi), pair_ref);
  }
}

TEST_P(PropertyTest, SbeLogHistoryWindowsMatchNaiveScan) {
  // SbeLog::history and the window queries over the three history windows
  // a sample at minute t reads, [0, day2), [day2, day1) and [day1, t) with
  // day1/day2 one/two days back clamped at 0, against a brute-force scan.
  // The log has ties at one minute, nodes 12..15 and apps 6..7 without
  // events, and sometimes no event in its first two days; probes put t,
  // day1 or day2 exactly on an event, t inside the first two days, before
  // the first event and after the last.
  constexpr std::int32_t kNodes = 16, kApps = 8;
  faults::SbeLog log(kNodes, kApps);
  struct Raw {
    workload::AppId app;
    topo::NodeId node;
    Minute end;
    std::uint32_t count;
  };
  std::vector<Raw> raws;
  Minute t = static_cast<Minute>(rng_.uniform_index(4 * kMinutesPerDay));
  const int events = 40 + GetParam() * 11;
  for (int i = 0; i < events; ++i) {
    if (i > 0 && !rng_.bernoulli(0.3)) {
      t += static_cast<Minute>(rng_.uniform_index(900)) + 1;
    }
    const Raw r{static_cast<workload::AppId>(rng_.uniform_index(6)),
                static_cast<topo::NodeId>(rng_.uniform_index(12)), t,
                static_cast<std::uint32_t>(rng_.uniform_index(9) + 1)};
    raws.push_back(r);
    log.add({.run = i, .app = r.app, .node = r.node, .start = r.end,
             .end = r.end, .count = r.count});
  }
  const Minute first = raws.front().end;
  const Minute last = raws.back().end;
  const auto any_end = [&] {
    return raws[rng_.uniform_index(raws.size())].end;
  };
  for (int probe = 0; probe < 120; ++probe) {
    Minute now = 0;
    switch (probe % 7) {
      case 0: now = any_end(); break;
      case 1: now = any_end() + kMinutesPerDay; break;
      case 2: now = any_end() + 2 * kMinutesPerDay; break;
      case 3:
        now = static_cast<Minute>(rng_.uniform_index(2 * kMinutesPerDay));
        break;
      case 4: now = static_cast<Minute>(rng_.uniform_index(
                  static_cast<std::uint64_t>(first) + 1));
        break;
      case 5: now = last + 1 + static_cast<Minute>(rng_.uniform_index(
                                   3 * kMinutesPerDay));
        break;
      default:
        now = rng_.uniform_int(0, last + 3 * kMinutesPerDay);
        break;
    }
    const Minute day1 = std::max<Minute>(now - kMinutesPerDay, 0);
    const Minute day2 = std::max<Minute>(now - 2 * kMinutesPerDay, 0);
    const auto node = static_cast<topo::NodeId>(rng_.uniform_index(kNodes));
    const auto app = static_cast<workload::AppId>(rng_.uniform_index(kApps));
    // ref[w] for w = before, yesterday, today.
    std::uint64_t node_ref[3] = {}, global_ref[3] = {};
    std::uint64_t app_ref = 0, pair_ref = 0;
    for (const Raw& r : raws) {
      if (r.end >= now) continue;
      const int w = r.end < day2 ? 0 : r.end < day1 ? 1 : 2;
      global_ref[w] += r.count;
      if (r.node == node) node_ref[w] += r.count;
      if (w == 2 && r.app == app) app_ref += r.count;
      if (w == 2 && r.app == app && r.node == node) pair_ref += r.count;
    }
    const Minute bounds[4] = {0, day2, day1, now};
    for (int w = 0; w < 3; ++w) {
      EXPECT_EQ(log.node_count_between(node, bounds[w], bounds[w + 1]),
                node_ref[w])
          << "t=" << now << " window " << w;
      EXPECT_EQ(log.global_count_between(bounds[w], bounds[w + 1]),
                global_ref[w])
          << "t=" << now << " window " << w;
    }
    EXPECT_EQ(log.app_count_between(app, day1, now), app_ref) << "t=" << now;
    EXPECT_EQ(log.app_node_count_between(app, node, day1, now), pair_ref)
        << "t=" << now;
    const faults::SbeHistory h = log.history(node, app, day2, day1, now);
    EXPECT_EQ(h.node_before, node_ref[0]) << "t=" << now;
    EXPECT_EQ(h.node_yesterday, node_ref[1]) << "t=" << now;
    EXPECT_EQ(h.node_today, node_ref[2]) << "t=" << now;
    EXPECT_EQ(h.global_before, global_ref[0]) << "t=" << now;
    EXPECT_EQ(h.global_yesterday, global_ref[1]) << "t=" << now;
    EXPECT_EQ(h.global_today, global_ref[2]) << "t=" << now;
    EXPECT_EQ(h.app_today, app_ref) << "t=" << now;
    EXPECT_EQ(h.app_node_today, pair_ref) << "t=" << now;
  }
}

// Reference for core::samples_in: the linear scan it replaced.
std::vector<std::size_t> samples_in_by_scan(const sim::Trace& trace,
                                            Interval window) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < trace.samples.size(); ++i) {
    if (window.contains(trace.samples[i].end)) out.push_back(i);
  }
  return out;
}

TEST_P(PropertyTest, SamplesInMatchesLinearScan) {
  // On a simulated trace and on an injected + ingested copy of it: random
  // windows, windows that start or end exactly on a sample's run end,
  // empty and inverted windows, and windows past either end of the trace.
  const sim::Trace& clean = testing::shared_tiny_trace();
  sim::Trace dirty = clean;
  inject::corrupt_trace(
      dirty, inject::FaultConfig::uniform(
                 0.2, static_cast<std::uint64_t>(GetParam())));
  sim::ingest_trace(dirty);
  const sim::Trace* const traces[] = {&clean, &dirty};
  for (const sim::Trace* trace : traces) {
    ASSERT_FALSE(trace->samples.empty());
    const auto any_end = [&] {
      return trace->samples[rng_.uniform_index(trace->samples.size())].end;
    };
    const auto any_minute = [&] {
      return rng_.uniform_int(-50, trace->duration + 50);
    };
    for (int i = 0; i < 200; ++i) {
      Interval window;
      switch (i % 4) {
        case 0: window = {any_minute(), any_minute()}; break;
        case 1: window = {any_end(), any_end()}; break;
        case 2: window = {any_end(), any_end() + 1}; break;
        default: window = {any_end() - 1, any_minute()}; break;
      }
      if (i % 8 < 4 && window.end < window.begin) {
        std::swap(window.begin, window.end);
      }
      ASSERT_EQ(core::samples_in(*trace, window),
                samples_in_by_scan(*trace, window))
          << "window [" << window.begin << ", " << window.end << ")";
    }
    EXPECT_EQ(core::samples_in(*trace, {0, trace->duration + 1}).size(),
              trace->samples.size());
  }
}

TEST_P(PropertyTest, SpearmanIsBoundedAndSymmetric) {
  std::vector<double> xs(60), ys(60);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng_.normal();
    ys[i] = rng_.normal() + 0.5 * xs[i];
  }
  const double rxy = spearman(xs, ys);
  const double ryx = spearman(ys, xs);
  EXPECT_NEAR(rxy, ryx, 1e-12);
  EXPECT_GE(rxy, -1.0 - 1e-12);
  EXPECT_LE(rxy, 1.0 + 1e-12);
}

TEST_P(PropertyTest, TopologyNeighborRelationIsSymmetric) {
  const topo::SystemConfig cfg{
      .grid_x = 2 + GetParam() % 4,
      .grid_y = 1 + GetParam() % 3,
      .cages_per_cabinet = 1 + GetParam() % 2,
      .slots_per_cage = 2,
      .nodes_per_slot = 2 + GetParam() % 3};
  const topo::Topology topology(cfg);
  for (int probe = 0; probe < 20; ++probe) {
    const auto id = static_cast<topo::NodeId>(
        rng_.uniform_index(static_cast<std::uint64_t>(topology.total_nodes())));
    for (const auto peer : topology.slot_neighbors(id)) {
      const auto back = topology.slot_neighbors(peer);
      EXPECT_NE(std::find(back.begin(), back.end(), id), back.end());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace repro
