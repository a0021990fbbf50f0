#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <latch>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "common/parallel.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_io.hpp"
#include "support/test_trace.hpp"

namespace repro::sim {
namespace {

using repro::testing::shared_tiny_trace;

TEST(Simulator, SamplesSatisfyBasicInvariants) {
  const Trace& trace = shared_tiny_trace();
  ASSERT_GT(trace.samples.size(), 100u);
  for (const RunNodeSample& s : trace.samples) {
    EXPECT_GE(s.node, 0);
    EXPECT_LT(s.node, trace.total_nodes());
    EXPECT_GE(s.app, 0);
    EXPECT_LT(s.start, s.end);
    EXPECT_LE(s.end, trace.duration);
    EXPECT_FLOAT_EQ(s.runtime_min, static_cast<float>(s.end - s.start));
    EXPECT_GE(s.num_nodes, 1.0f);
    EXPECT_GT(s.gpu_core_hours, 0.0f);
    EXPECT_GT(s.total_mem_gb, 0.0f);
    EXPECT_GE(s.expected_sbe, 0.0f);
    // Run statistics cover the run's minutes.
    EXPECT_GT(s.run_gpu_temp.mean, 10.0f);
    EXPECT_LT(s.run_gpu_temp.mean, 80.0f);
    EXPECT_GT(s.run_gpu_power.mean, 0.0f);
    EXPECT_GT(s.run_cpu_temp.mean, 10.0f);
  }
}

TEST(Simulator, SamplesOrderedByEndMinute) {
  const Trace& trace = shared_tiny_trace();
  for (std::size_t i = 1; i < trace.samples.size(); ++i) {
    EXPECT_LE(trace.samples[i - 1].end, trace.samples[i].end);
  }
}

TEST(Simulator, SbeLogAgreesWithSamples) {
  const Trace& trace = shared_tiny_trace();
  std::uint64_t total_from_samples = 0;
  std::size_t positives = 0;
  for (const RunNodeSample& s : trace.samples) {
    total_from_samples += s.sbe_count;
    positives += s.sbe_affected() ? 1 : 0;
  }
  EXPECT_EQ(trace.sbe_log.global_count_between(0, trace.duration + 1),
            total_from_samples);
  EXPECT_EQ(trace.sbe_log.events().size(), positives);
}

TEST(Simulator, PositiveRateInCalibratedRange) {
  const Trace& trace = shared_tiny_trace();
  EXPECT_GT(trace.positive_rate(), 0.004);
  EXPECT_LT(trace.positive_rate(), 0.12);
}

TEST(Simulator, CumulativeTelemetryCoversWholeTrace) {
  const Trace& trace = shared_tiny_trace();
  for (const NodeCumulative& cum : trace.cumulative) {
    EXPECT_EQ(cum.gpu_temp.count(),
              static_cast<std::size_t>(trace.duration));
    EXPECT_EQ(cum.gpu_power.count(),
              static_cast<std::size_t>(trace.duration));
    EXPECT_GT(cum.gpu_temp.mean(), 15.0);
    EXPECT_LT(cum.gpu_temp.mean(), 60.0);
  }
}

TEST(Simulator, PeriodHistogramsCoverEveryNodeMinute) {
  const Trace& trace = shared_tiny_trace();
  // Every node-minute of the trace lands in exactly one of the two
  // temperature histograms: idle and error-free busy minutes in temp_free,
  // minutes of SBE-affected runs in temp_affected.
  std::uint64_t binned = 0, affected = 0;
  for (const NodePeriodHists& h : trace.period_hists) {
    binned += h.temp_free.total() + h.temp_affected.total();
    affected += h.temp_affected.total();
  }
  const auto node_minutes = static_cast<std::uint64_t>(trace.duration) *
                            static_cast<std::uint64_t>(trace.total_nodes());
  // Runs still in flight when the trace ends never flush their minutes
  // (they produce no samples either), so allow that small gap.
  EXPECT_LE(binned, node_minutes);
  EXPECT_GT(static_cast<double>(binned),
            0.97 * static_cast<double>(node_minutes));
  std::uint64_t affected_minutes = 0;
  for (const RunNodeSample& s : trace.samples) {
    if (s.sbe_affected()) {
      affected_minutes += static_cast<std::uint64_t>(s.end - s.start);
    }
  }
  EXPECT_EQ(affected, affected_minutes);
}

TEST(Simulator, PrevAppTracksNodeHistory) {
  const Trace& trace = shared_tiny_trace();
  // Replay per-node app sequences ordered by START time and compare with
  // the recorded prev_app. (Samples are stored in end order.)
  std::vector<std::size_t> order(trace.samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return trace.samples[a].start < trace.samples[b].start;
                   });
  std::unordered_map<topo::NodeId, workload::AppId> last;
  for (const std::size_t i : order) {
    const RunNodeSample& s = trace.samples[i];
    const auto it = last.find(s.node);
    EXPECT_EQ(s.prev_app, it == last.end() ? -1 : it->second)
        << "node " << s.node << " run " << s.run;
    last[s.node] = s.app;
  }
}

TEST(Simulator, DeterministicForSameSeed) {
  SimConfig cfg = SimConfig::testing(/*test_days=*/6, /*test_seed=*/33);
  const Trace a = simulate(cfg);
  const Trace b = simulate(cfg);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].run, b.samples[i].run);
    EXPECT_EQ(a.samples[i].node, b.samples[i].node);
    EXPECT_EQ(a.samples[i].sbe_count, b.samples[i].sbe_count);
    EXPECT_FLOAT_EQ(a.samples[i].run_gpu_temp.mean,
                    b.samples[i].run_gpu_temp.mean);
  }
  EXPECT_EQ(a.sbe_log.events().size(), b.sbe_log.events().size());
}

TEST(Simulator, DifferentSeedsProduceDifferentTraces) {
  SimConfig cfg = SimConfig::testing(6, 1);
  const Trace a = simulate(cfg);
  cfg.seed = 2;
  const Trace b = simulate(cfg);
  EXPECT_NE(a.samples.size(), b.samples.size());
}

TEST(Simulator, ProbesRecordFullResolutionSeries) {
  SimConfig cfg = SimConfig::testing(3, 5);
  cfg.probe_nodes = {0, 7};
  const Trace trace = simulate(cfg);
  ASSERT_EQ(trace.probes.size(), 2u);
  for (const ProbeSeries& p : trace.probes) {
    EXPECT_EQ(p.gpu_temp.size(), static_cast<std::size_t>(trace.duration));
    EXPECT_EQ(p.gpu_power.size(), static_cast<std::size_t>(trace.duration));
    EXPECT_EQ(p.cpu_temp.size(), static_cast<std::size_t>(trace.duration));
    EXPECT_EQ(p.slot_avg_temp.size(),
              static_cast<std::size_t>(trace.duration));
    EXPECT_EQ(p.cage_avg_temp.size(),
              static_cast<std::size_t>(trace.duration));
  }
  EXPECT_THROW(
      [] {
        SimConfig bad = SimConfig::testing(2, 5);
        bad.probe_nodes = {10'000};
        return Simulator(bad);
      }(),
      CheckError);
}

TEST(Simulator, ExpectedSbeTracksLabels) {
  const Trace& trace = shared_tiny_trace();
  // Mean expected count among positives should exceed that among negatives
  // by a wide margin (the generative signal the ML stage learns).
  double pos_sum = 0.0, neg_sum = 0.0;
  std::size_t pos_n = 0, neg_n = 0;
  for (const RunNodeSample& s : trace.samples) {
    if (s.sbe_affected()) {
      pos_sum += s.expected_sbe;
      ++pos_n;
    } else {
      neg_sum += s.expected_sbe;
      ++neg_n;
    }
  }
  ASSERT_GT(pos_n, 0u);
  ASSERT_GT(neg_n, 0u);
  EXPECT_GT(pos_sum / pos_n, 10.0 * (neg_sum / neg_n));
}

TEST(Simulator, IncrementalStepMatchesBatch) {
  SimConfig cfg = SimConfig::testing(2, 9);
  Simulator inc(cfg);
  inc.run_for(cfg.days * kMinutesPerDay);
  const Trace batch = simulate(cfg);
  const Trace from_inc = std::move(inc).take_trace();
  ASSERT_EQ(from_inc.samples.size(), batch.samples.size());
  EXPECT_EQ(from_inc.sbe_log.events().size(), batch.sbe_log.events().size());
}

/// True when both vectors hold the same bytes (padding included: the
/// cache stores trivially copyable records raw).
template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  static_assert(std::is_trivially_copyable_v<T>);
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

template <typename T>
bool same_bytes(const T& a, const T& b) {
  static_assert(std::is_trivially_copyable_v<T>);
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

TEST(TraceIo, RoundTripsThroughCache) {
  // Large enough that the samples span several of the reader's ~1 MiB
  // blocks, so the round trip covers the block loop and its seams.
  SimConfig cfg = SimConfig::testing(20, 77);
  cfg.probe_nodes = {2, 5};
  const Trace original = simulate(cfg);
  const std::string path = ::testing::TempDir() + "trace_roundtrip_" +
                           std::to_string(::getpid()) + ".bin";
  save_trace(original, cfg, path);
  const auto file_bytes = std::filesystem::file_size(path);
  auto loaded = load_trace(cfg, path);
  std::filesystem::remove(path);
  ASSERT_GE(file_bytes, 3u << 20);
  ASSERT_GT(original.samples.size() * sizeof(RunNodeSample), 2u << 20);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->duration, original.duration);
  EXPECT_EQ(loaded->catalog.size(), original.catalog.size());
  EXPECT_TRUE(same_bytes(loaded->samples, original.samples));
  EXPECT_TRUE(same_bytes(loaded->sbe_log.events(), original.sbe_log.events()));
  ASSERT_EQ(loaded->probes.size(), original.probes.size());
  for (std::size_t p = 0; p < original.probes.size(); ++p) {
    const ProbeSeries& a = loaded->probes[p];
    const ProbeSeries& b = original.probes[p];
    EXPECT_EQ(a.node, b.node);
    EXPECT_FALSE(b.gpu_temp.empty());
    EXPECT_TRUE(same_bytes(a.gpu_temp, b.gpu_temp)) << "probe " << p;
    EXPECT_TRUE(same_bytes(a.gpu_power, b.gpu_power)) << "probe " << p;
    EXPECT_TRUE(same_bytes(a.cpu_temp, b.cpu_temp)) << "probe " << p;
    EXPECT_TRUE(same_bytes(a.slot_avg_temp, b.slot_avg_temp)) << "probe " << p;
    EXPECT_TRUE(same_bytes(a.slot_avg_power, b.slot_avg_power))
        << "probe " << p;
    EXPECT_TRUE(same_bytes(a.cage_avg_temp, b.cage_avg_temp)) << "probe " << p;
  }
  const auto same_hist = [](const Histogram& a, const Histogram& b) {
    if (a.bins() != b.bins() || a.total() != b.total()) return false;
    for (std::size_t i = 0; i < a.bins(); ++i) {
      if (a.count(i) != b.count(i)) return false;
    }
    return true;
  };
  ASSERT_EQ(loaded->cumulative.size(), original.cumulative.size());
  ASSERT_EQ(loaded->period_hists.size(), original.period_hists.size());
  for (std::size_t n = 0; n < original.cumulative.size(); ++n) {
    const auto& a = loaded->cumulative[n];
    const auto& b = original.cumulative[n];
    EXPECT_TRUE(same_bytes(a.gpu_temp.state(), b.gpu_temp.state())) << n;
    EXPECT_TRUE(same_bytes(a.gpu_power.state(), b.gpu_power.state())) << n;
    EXPECT_TRUE(same_bytes(a.cpu_temp.state(), b.cpu_temp.state())) << n;
    const auto& ha = loaded->period_hists[n];
    const auto& hb = original.period_hists[n];
    EXPECT_TRUE(same_hist(ha.temp_free, hb.temp_free)) << n;
    EXPECT_TRUE(same_hist(ha.temp_affected, hb.temp_affected)) << n;
    EXPECT_TRUE(same_hist(ha.power_free, hb.power_free)) << n;
    EXPECT_TRUE(same_hist(ha.power_affected, hb.power_affected)) << n;
  }
}

TEST(TraceIo, ConcurrentWritersOfOneEntryBothPublish) {
  // Two writers fill one cache entry at once, as two processes do on a
  // cold cache. Each streams into a temp file of its own: both return, the
  // entry loads whole and no temp file is left behind.
  const SimConfig cfg = SimConfig::testing(6, 13);
  const Trace trace = simulate(cfg);
  const std::string name =
      "trace_concurrent_" + std::to_string(::getpid()) + ".bin";
  const std::string path = ::testing::TempDir() + name;
  for (int round = 0; round < 3; ++round) {
    std::filesystem::remove(path);
    std::latch start(2);
    std::atomic<int> failures{0};
    std::vector<std::thread> writers;
    for (int w = 0; w < 2; ++w) {
      writers.emplace_back([&] {
        start.arrive_and_wait();
        try {
          save_trace(trace, cfg, path);
        } catch (const std::exception& e) {
          ++failures;
          ADD_FAILURE() << e.what();
        }
      });
    }
    for (auto& writer : writers) writer.join();
    EXPECT_EQ(failures.load(), 0) << "round " << round;
    const auto loaded = load_trace(cfg, path);
    ASSERT_TRUE(loaded.has_value()) << "round " << round;
    EXPECT_EQ(loaded->samples.size(), trace.samples.size());
  }
  for (const auto& e :
       std::filesystem::directory_iterator(::testing::TempDir())) {
    EXPECT_NE(e.path().filename().string().rfind(name + ".tmp", 0), 0u)
        << "left behind " << e.path();
  }
  std::filesystem::remove(path);
}

TEST(TraceIo, RejectsMismatchedConfig) {
  SimConfig cfg = SimConfig::testing(2, 5);
  const Trace trace = simulate(cfg);
  const std::string path = ::testing::TempDir() + "trace_mismatch.bin";
  save_trace(trace, cfg, path);
  SimConfig other = cfg;
  other.faults.base_rate_per_min *= 2.0;
  EXPECT_FALSE(load_trace(other, path).has_value());
  EXPECT_FALSE(load_trace(cfg, path + ".does-not-exist").has_value());
  EXPECT_NE(config_fingerprint(cfg), config_fingerprint(other));
}

TEST(TraceIo, CachePathIsPinnedAcrossFormatVersions) {
  // The cache file name depends on the config alone, not on the format
  // version: a format bump finds the old entry at the same path, where
  // load_trace counts it stale by its magic and cached_simulate replaces
  // it. Change this literal only when a SimConfig field changes.
  EXPECT_EQ(cache_path(SimConfig::testing(), "cache"),
            "cache/trace_044af67f986347f3.bin");
}

TEST(TraceIo, CachedSimulateHitsCache) {
  SimConfig cfg = SimConfig::testing(2, 91);
  const std::string dir = ::testing::TempDir() + "trace_cache";
  const Trace first = cached_simulate(cfg, dir);
  const Trace second = cached_simulate(cfg, dir);  // served from disk
  EXPECT_EQ(first.samples.size(), second.samples.size());
  EXPECT_EQ(first.sbe_log.events().size(), second.sbe_log.events().size());
}

TEST(TraceIo, DifferentConfigsGetDistinctCacheEntries) {
  // Cache filenames are keyed on the full-config fingerprint: two configs
  // that differ in any generative field must never share an entry.
  SimConfig a = SimConfig::testing(2, 92);
  SimConfig b = a;
  b.thermal.load_gain_c += 1.0;  // one thermal field differs
  const std::string dir = ::testing::TempDir() + "trace_cache_distinct";
  std::filesystem::remove_all(dir);
  (void)cached_simulate(a, dir);
  (void)cached_simulate(b, dir);
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    entries += e.is_regular_file() ? 1 : 0;
  }
  EXPECT_EQ(entries, 2u);
  EXPECT_NE(config_fingerprint(a), config_fingerprint(b));
  // And each entry loads back under its own config without resimulating
  // (still exactly two files afterwards).
  const Trace ta = cached_simulate(a, dir);
  const Trace tb = cached_simulate(b, dir);
  EXPECT_GT(ta.samples.size(), 0u);
  EXPECT_GT(tb.samples.size(), 0u);
  entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    entries += e.is_regular_file() ? 1 : 0;
  }
  EXPECT_EQ(entries, 2u);
}

TEST(Simulator, TraceIsBitwiseInvariantAcrossThreadCounts) {
  // The tentpole determinism contract, end to end: the telemetry loops run
  // on per-node RNG streams with static chunking, so the whole trace is
  // identical no matter how many threads execute it.
  SimConfig cfg = SimConfig::testing(/*test_days=*/4, /*test_seed=*/55);
  cfg.probe_nodes = {1, 5};

  set_parallel_threads(1);
  const Trace serial = simulate(cfg);
  set_parallel_threads(4);
  const Trace threaded = simulate(cfg);
  set_parallel_threads(1);

  ASSERT_EQ(serial.samples.size(), threaded.samples.size());
  for (std::size_t i = 0; i < serial.samples.size(); ++i) {
    const RunNodeSample& x = serial.samples[i];
    const RunNodeSample& y = threaded.samples[i];
    ASSERT_EQ(x.run, y.run);
    ASSERT_EQ(x.node, y.node);
    ASSERT_EQ(x.sbe_count, y.sbe_count);
    // EXPECT_EQ on floats is intentional: bitwise, not approximate.
    ASSERT_EQ(x.run_gpu_temp.mean, y.run_gpu_temp.mean);
    ASSERT_EQ(x.run_gpu_temp.std, y.run_gpu_temp.std);
    ASSERT_EQ(x.run_gpu_power.mean, y.run_gpu_power.mean);
    ASSERT_EQ(x.run_cpu_temp.mean, y.run_cpu_temp.mean);
    ASSERT_EQ(x.slot_gpu_temp.mean, y.slot_gpu_temp.mean);
    ASSERT_EQ(x.expected_sbe, y.expected_sbe);
  }
  ASSERT_EQ(serial.sbe_log.events().size(), threaded.sbe_log.events().size());
  for (std::size_t e = 0; e < serial.sbe_log.events().size(); ++e) {
    EXPECT_EQ(serial.sbe_log.events()[e].count,
              threaded.sbe_log.events()[e].count);
    EXPECT_EQ(serial.sbe_log.events()[e].node,
              threaded.sbe_log.events()[e].node);
  }
  ASSERT_EQ(serial.probes.size(), threaded.probes.size());
  for (std::size_t p = 0; p < serial.probes.size(); ++p) {
    EXPECT_EQ(serial.probes[p].gpu_temp, threaded.probes[p].gpu_temp);
    EXPECT_EQ(serial.probes[p].gpu_power, threaded.probes[p].gpu_power);
    EXPECT_EQ(serial.probes[p].cpu_temp, threaded.probes[p].cpu_temp);
  }
}

}  // namespace
}  // namespace repro::sim
