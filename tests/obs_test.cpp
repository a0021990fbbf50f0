// Observability layer (src/obs): span nesting, counter aggregation across
// pool workers, snapshot determinism, Chrome-trace export, and the guard
// that tracing never perturbs pipeline results.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "core/two_stage.hpp"
#include "obs/obs.hpp"
#include "support/bench_common.hpp"
#include "json_parser.hpp"
#include "support/test_trace.hpp"

namespace repro {
namespace {

using repro::testing::shared_tiny_trace;

// --- fixture ------------------------------------------------------------------

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::reset();
    obs::set_enabled(false);
    obs::set_capturing(false);
    set_parallel_threads(1);
  }
  void TearDown() override {
    obs::reset();
    obs::set_enabled(false);
    obs::set_capturing(false);
    set_parallel_threads(1);
  }
};

double metric_value(const std::vector<obs::Metric>& ms, const std::string& key) {
  for (const auto& m : ms) {
    if (m.key == key) return m.integral ? static_cast<double>(m.count) : m.value;
  }
  return -1.0;
}

// --- tests --------------------------------------------------------------------

TEST_F(ObsTest, DisabledPathIsANoOp) {
  ASSERT_FALSE(obs::enabled());
  obs::Counter& c = obs::counter("obs_test.noop");
  c.add(5);
  EXPECT_EQ(c.value(), 0u);

  // A span opened with metrics off records nothing and is not the
  // innermost span.
  obs::Timer& t = obs::timer("obs_test.noop_timer");
  {
    const obs::Span off(t);
    EXPECT_EQ(obs::current_span_name(), nullptr);
  }
  EXPECT_EQ(t.calls(), 0u);
  EXPECT_EQ(t.seconds(), 0.0);
}

TEST_F(ObsTest, CounterAggregatesExactlyAcrossThreadCounts) {
  constexpr std::size_t kN = 10000;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    obs::reset();
    obs::set_enabled(true);
    set_parallel_threads(threads);
    parallel_for(kN, 64, [&](std::size_t begin, std::size_t end) {
      for (std::size_t k = begin; k < end; ++k) OBS_COUNT("obs_test.counter");
    });
    EXPECT_EQ(obs::counter("obs_test.counter").value(), kN)
        << "threads=" << threads;
  }
}

TEST_F(ObsTest, SnapshotHoldsOnlyWhatWasRecordedSinceReset) {
  obs::set_enabled(true);
  // A counter back at 0 and a timer without calls are absent, never a
  // phantom 0.
  obs::Counter& c = obs::counter("obs_test.reset_counter");
  obs::Timer& t = obs::timer("obs_test.reset_timer");
  c.add(3);
  { const obs::Span span(t); }
  EXPECT_EQ(metric_value(obs::snapshot(), "obs_test.reset_counter"), 3.0);
  EXPECT_EQ(metric_value(obs::snapshot(), "obs_test.reset_timer_calls"), 1.0);
  obs::reset();
  const std::vector<obs::Metric> after = obs::snapshot();
  EXPECT_EQ(metric_value(after, "obs_test.reset_counter"), -1.0);
  EXPECT_EQ(metric_value(after, "obs_test.reset_timer_calls"), -1.0);
  EXPECT_EQ(metric_value(after, "obs_test.reset_timer_seconds"), -1.0);
  // Nothing was captured, so no dropped-event count either.
  EXPECT_EQ(metric_value(after, "trace.events_dropped"), -1.0);
}

TEST_F(ObsTest, SpanNestingTracksInnermostName) {
  obs::set_enabled(true);
  EXPECT_EQ(obs::current_span_name(), nullptr);
  {
    OBS_SPAN("obs_test.outer");
    EXPECT_STREQ(obs::current_span_name(), "obs_test.outer");
    {
      OBS_SPAN("obs_test.inner");
      EXPECT_STREQ(obs::current_span_name(), "obs_test.inner");
    }
    EXPECT_STREQ(obs::current_span_name(), "obs_test.outer");
  }
  EXPECT_EQ(obs::current_span_name(), nullptr);
  EXPECT_EQ(obs::timer("obs_test.outer").calls(), 1u);
  EXPECT_EQ(obs::timer("obs_test.inner").calls(), 1u);
}

TEST_F(ObsTest, ParallelRegionsAttributeToWorkerTracks) {
  obs::set_enabled(true);
  obs::set_capturing(true);
  set_parallel_threads(4);
  // Four chunks with an arrival barrier: at least two threads must be in
  // the region at once (with a timeout so a slow machine degrades to a
  // weaker assertion instead of a hang).
  std::atomic<int> arrived{0};
  {
    OBS_SPAN("obs_test.region");
    parallel_for(4, 1, [&](std::size_t, std::size_t) {
      arrived.fetch_add(1, std::memory_order_relaxed);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (arrived.load(std::memory_order_relaxed) < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    });
  }
  ASSERT_GE(arrived.load(), 2);
  std::set<std::uint64_t> region_tids;
  std::uint64_t outer_events = 0;
  std::uint64_t main_region_events = 0;
  for (const obs::TraceEvent& e : obs::captured_events()) {
    if (e.name == "obs_test.region/region") {
      region_tids.insert(e.tid);
      if (e.tid == 0) ++main_region_events;
      // Worker tracks carry the pool worker id; tid 0 is the main thread.
      if (e.tid != 0) {
        EXPECT_EQ(e.thread_name, "worker-" + std::to_string(e.tid));
      } else {
        EXPECT_EQ(e.thread_name, "main");
      }
    }
    if (e.tid == 0 && e.name == std::string("obs_test.region")) ++outer_events;
  }
  // The dispatching thread records the enclosing span plus its own drain
  // span; every worker that joined records a drain span. Drain spans are
  // named "<region>/region", so the enclosing span's name appears once and
  // a by-name sum of the trace does not count it twice. The barrier
  // guarantees at least one worker joined.
  EXPECT_GE(region_tids.size(), 2u);
  EXPECT_EQ(outer_events, 1u);
  EXPECT_EQ(main_region_events, 1u);
  // Only the dispatching thread times the region.
  EXPECT_EQ(obs::timer("parallel.region").calls(), 1u);
}

TEST_F(ObsTest, RegionCallsCountDispatchesNotWorkers) {
  // parallel.region_calls is the number of dispatched regions, whichever
  // workers joined them, so identical runs at one thread count agree.
  obs::set_enabled(true);
  set_parallel_threads(4);
  constexpr std::uint64_t kRegions = 50;
  for (std::uint64_t r = 0; r < kRegions; ++r) {
    parallel_for(64, 1, [](std::size_t, std::size_t) {});
  }
  EXPECT_EQ(obs::timer("parallel.region").calls(), kRegions);

  const sim::Trace& trace = shared_tiny_trace();
  const auto region_calls = [&] {
    obs::reset();
    (void)core::run_two_stage(trace, {}, {0, day_start(20)},
                              {day_start(20), day_start(30)});
    return metric_value(obs::snapshot(), "parallel.region_calls");
  };
  const double first = region_calls();
  EXPECT_GT(first, 0.0);
  EXPECT_EQ(region_calls(), first);
}

TEST_F(ObsTest, InlineCallsCountRegionsThatSkipThePool) {
  obs::set_enabled(true);
  const auto nested_sweep = [] {
    parallel_for(4, 1, [](std::size_t, std::size_t) {
      parallel_for(64, 1, [](std::size_t, std::size_t) {});
    });
  };
  // One thread: the outer region and its four nested ones all run inline,
  // and nothing is dispatched.
  nested_sweep();
  const std::vector<obs::Metric> at1 = obs::snapshot();
  EXPECT_EQ(metric_value(at1, "parallel.inline_calls"), 5.0);
  EXPECT_EQ(metric_value(at1, "parallel.region_calls"), -1.0);  // absent

  // Four threads: the outer region is dispatched; its nested regions and a
  // one-chunk region still run inline.
  obs::reset();
  set_parallel_threads(4);
  nested_sweep();
  parallel_for(64, 64, [](std::size_t, std::size_t) {});
  const std::vector<obs::Metric> at4 = obs::snapshot();
  EXPECT_EQ(metric_value(at4, "parallel.inline_calls"), 5.0);
  EXPECT_EQ(metric_value(at4, "parallel.region_calls"), 1.0);
}

TEST_F(ObsTest, SnapshotCountersAreThreadCountInvariant) {
  const sim::Trace& trace = shared_tiny_trace();
  const Interval train{0, day_start(20)};
  const Interval test{day_start(20), day_start(30)};

  // Counter values (exact integer totals of deterministic work) must not
  // depend on the thread count. Timer `_seconds` are wall-clock and
  // parallel.region_calls is 0 at one thread, so the comparison is over
  // integral metrics excluding `_calls`.
  const auto run = [&](std::size_t threads) {
    obs::reset();
    obs::set_enabled(true);
    set_parallel_threads(threads);
    (void)core::run_two_stage(trace, {}, train, test);
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    for (const obs::Metric& m : obs::snapshot()) {
      if (m.integral && !m.key.ends_with("_calls")) {
        counters.emplace_back(m.key, m.count);
      }
    }
    return counters;
  };

  const auto at1 = run(1);
  const auto at4 = run(4);
  ASSERT_FALSE(at1.empty());
  EXPECT_EQ(at1, at4);
  EXPECT_GT(metric_value(obs::snapshot(), "two_stage.train_samples_seen"), 0.0);
  EXPECT_GT(metric_value(obs::snapshot(), "gbdt.hist_builds"), 0.0);
  EXPECT_GT(metric_value(obs::snapshot(), "gbdt.hist_subtractions"), 0.0);
}

TEST_F(ObsTest, TracingLeavesTwoStageResultsBitIdentical) {
  const sim::Trace& trace = shared_tiny_trace();
  const Interval train{0, day_start(20)};
  const Interval test{day_start(20), day_start(30)};

  const auto run = [&] { return core::run_two_stage(trace, {}, train, test); };
  obs::set_enabled(false);
  obs::set_capturing(false);
  const core::TwoStageRun off = run();
  obs::set_enabled(true);
  obs::set_capturing(true);
  const core::TwoStageRun on = run();

  EXPECT_EQ(off.metrics.confusion.tp, on.metrics.confusion.tp);
  EXPECT_EQ(off.metrics.confusion.fp, on.metrics.confusion.fp);
  EXPECT_EQ(off.metrics.confusion.tn, on.metrics.confusion.tn);
  EXPECT_EQ(off.metrics.confusion.fn, on.metrics.confusion.fn);
  EXPECT_EQ(off.metrics.positive.f1, on.metrics.positive.f1);
  EXPECT_EQ(off.metrics.positive.precision, on.metrics.positive.precision);
  EXPECT_EQ(off.metrics.positive.recall, on.metrics.positive.recall);
  EXPECT_EQ(off.metrics.accuracy, on.metrics.accuracy);
  EXPECT_EQ(off.offender_nodes, on.offender_nodes);
  // The audit numbers are part of the run, not of the obs switch.
  ASSERT_TRUE(off.quality.valid);
  ASSERT_TRUE(on.quality.valid);
  ASSERT_TRUE(off.drift.valid);
  ASSERT_TRUE(on.drift.valid);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(off.quality.auc), bits(on.quality.auc));
  EXPECT_EQ(bits(off.quality.brier), bits(on.quality.brier));
  EXPECT_EQ(bits(off.quality.ece), bits(on.quality.ece));
  EXPECT_EQ(bits(off.quality.positive_rate), bits(on.quality.positive_rate));
  EXPECT_EQ(bits(off.drift.psi_max), bits(on.drift.psi_max));
  EXPECT_EQ(off.drift.psi_argmax, on.drift.psi_argmax);
  EXPECT_EQ(bits(off.drift.ks_max), bits(on.drift.ks_max));
  EXPECT_EQ(off.drift.ks_argmax, on.drift.ks_argmax);
  EXPECT_EQ(off.drift.psi_drifted, on.drift.psi_drifted);
  EXPECT_GT(obs::captured_events().size(), 0u);
}

TEST_F(ObsTest, ModelFitsRecordNoFitTimer) {
  // A fit is timed once, by TwoStagePredictor (Table III's
  // `<model>.fit_seconds` key), not again by an obs span.
  obs::set_enabled(true);
  ml::Dataset d;
  d.X = ml::Matrix(200, 2);
  for (std::size_t i = 0; i < 200; ++i) {
    const float x = static_cast<float>(i % 20) - 10.0f;
    d.X.at(i, 0) = x;
    d.X.at(i, 1) = static_cast<float>(i % 7);
    d.y.push_back(x > 0.0f ? 1 : 0);
  }
  for (const ml::ModelSpec& spec :
       {ml::ModelKind::kLogisticRegression, ml::ModelKind::kGbdt,
        ml::ModelKind::kSvm, ml::ModelKind::kNeuralNetwork}) {
    ml::make_model(spec)->fit(d);
  }
  const std::vector<obs::Metric> snap = obs::snapshot();
  ASSERT_FALSE(snap.empty());  // the GBDT sub-phase spans still record
  for (const obs::Metric& m : snap) {
    EXPECT_FALSE(m.key.ends_with(".fit_seconds")) << m.key;
    EXPECT_FALSE(m.key.ends_with(".fit_calls")) << m.key;
  }
}

TEST_F(ObsTest, ChromeTraceExportIsWellFormedJson) {
  obs::set_enabled(true);
  obs::set_capturing(true);
  const std::string weird = "we\"ird\\span\tname";
  {
    obs::Timer& t = obs::timer(weird);
    const obs::Span s(t);
    OBS_SPAN("obs_test.export");
  }
  std::ostringstream out;
  ASSERT_TRUE(obs::write_chrome_trace(out));

  JsonParser parser(out.str());
  ASSERT_TRUE(parser.parse()) << out.str();
  const auto& ss = parser.strings;
  const auto has = [&](const std::string& v) {
    return std::find(ss.begin(), ss.end(), v) != ss.end();
  };
  EXPECT_TRUE(has("traceEvents"));
  EXPECT_TRUE(has("obs_test.export"));
  EXPECT_TRUE(has(weird));  // quotes/backslashes/tabs survive a round trip
  EXPECT_TRUE(has("main"));
  EXPECT_TRUE(has("process_name"));
}

TEST_F(ObsTest, WriteTraceIfRequestedFollowsEnv) {
  // The suite runs without REPRO_TRACE; with no requested path this must be
  // a no-op. (When a path is set the bench-level test covers the write.)
  if (obs::trace_request_path().empty()) {
    EXPECT_FALSE(obs::write_trace_if_requested());
  } else {
    EXPECT_TRUE(obs::write_trace_if_requested());
    std::remove(obs::trace_request_path().c_str());
  }
}

TEST_F(ObsTest, BenchJsonEscapesAndMergesObsSnapshot) {
  OBS_COUNT_ADD("obs_test.bench_counter", 7);  // registered before enable: 0
  bench::BenchJson json("obs_unit");           // enables obs metrics
  OBS_COUNT_ADD("obs_test.bench_counter", 7);
  json.set("pi", 3.5);
  json.set("flag", true);
  json.set_int("answer", 42);
  json.set_int("big", std::size_t{1} << 40);
  json.set_string("path", "C:\\dir\\\"quoted\"");
  // json.set("bare", 7);  // would not compile: integral set() is deleted
  const std::string path = json.write();

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::remove(path.c_str());

  JsonParser parser(buf.str());
  ASSERT_TRUE(parser.parse()) << buf.str();
  EXPECT_EQ(parser.flat.at("bench"), "obs_unit");
  EXPECT_EQ(parser.flat.at("pi"), "3.5");
  EXPECT_EQ(parser.flat.at("flag"), "true");
  EXPECT_EQ(parser.flat.at("answer"), "42");
  EXPECT_EQ(parser.flat.at("big"), std::to_string(std::size_t{1} << 40));
  EXPECT_EQ(parser.flat.at("path"), "C:\\dir\\\"quoted\"");
  // The obs snapshot is merged under an "obs." prefix.
  EXPECT_EQ(parser.flat.at("obs.obs_test.bench_counter"), "7");
  // No event was dropped, so the artifact carries no dropped-event count.
  EXPECT_FALSE(parser.flat.contains("obs.trace.events_dropped"));
}

}  // namespace
}  // namespace repro
