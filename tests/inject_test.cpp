// Fault-injection and hardened-ingest tests (DESIGN.md §9): the sanitizer
// fixtures, injection determinism across thread counts, the end-to-end
// corrupted pipeline, and file-level fuzz (truncation / bit flips) against
// the trace cache format — errors always, crashes never.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/sample_index.hpp"
#include "core/splits.hpp"
#include "core/two_stage.hpp"
#include "faults/sbe_log.hpp"
#include "inject/inject.hpp"
#include "obs/obs.hpp"
#include "sim/ingest.hpp"
#include "sim/trace_io.hpp"
#include "support/test_trace.hpp"
#include "telemetry/store.hpp"

namespace repro {
namespace {

using repro::testing::shared_tiny_trace;

// --- field-wise record equality ----------------------------------------------
//
// Every field of a record as one integer each, floats by bit pattern: as
// strict as comparing the records' bytes, but blind to padding bytes, which
// are indeterminate and may differ between two equal records.

using Fields = std::vector<std::int64_t>;

void add_float(Fields& out, float v) {
  out.push_back(std::bit_cast<std::uint32_t>(v));
}

void add_four(Fields& out, const telemetry::FourStats& s) {
  add_float(out, s.mean);
  add_float(out, s.std);
  add_float(out, s.diff_mean);
  add_float(out, s.diff_std);
}

Fields fields(const faults::SbeEvent& e) {
  return {e.run, e.app, e.node, e.start, e.end, e.count};
}

Fields fields(const sim::RunNodeSample& s) {
  Fields out = {s.run, s.app, s.prev_app, s.node, s.start, s.end};
  for (const float v : {s.runtime_min, s.num_nodes, s.gpu_core_hours,
                        s.total_mem_gb, s.max_mem_gb}) {
    add_float(out, v);
  }
  add_four(out, s.run_gpu_temp);
  add_four(out, s.run_gpu_power);
  for (const auto& w : s.pre_gpu_temp) add_four(out, w);
  for (const auto& w : s.pre_gpu_power) add_four(out, w);
  for (const float v : s.recent_gpu_temp) add_float(out, v);
  for (const float v : s.recent_gpu_power) add_float(out, v);
  out.push_back(s.recent_len);
  add_four(out, s.run_cpu_temp);
  add_four(out, s.slot_gpu_temp);
  add_four(out, s.slot_gpu_power);
  out.push_back(s.sbe_count);
  add_float(out, s.expected_sbe);
  return out;
}

template <typename Record>
::testing::AssertionResult same_records(const std::vector<Record>& a,
                                        const std::vector<Record>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes differ: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (fields(a[i]) != fields(b[i])) {
      return ::testing::AssertionFailure() << "records differ at index " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

// --- sanitize_events fixtures ----------------------------------------------

faults::SbeEvent event(workload::RunId run, topo::NodeId node, Minute end,
                       std::uint32_t count) {
  faults::SbeEvent e;
  e.run = run;
  e.app = 0;
  e.node = node;
  e.start = end > 10 ? end - 10 : 0;
  e.end = end;
  e.count = count;
  return e;
}

TEST(SanitizeEvents, CleanStreamPassesUntouched) {
  std::vector<faults::SbeEvent> events = {event(0, 1, 100, 3),
                                          event(1, 2, 150, 1),
                                          event(2, 0, 150, 7)};
  const std::vector<faults::SbeEvent> original = events;
  const auto stats = faults::sanitize_events(events, /*total_nodes=*/4,
                                             /*total_apps=*/2);
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.quarantined(), 0u);
  EXPECT_EQ(stats.reordered_repaired, 0u);
  EXPECT_TRUE(same_records(events, original));
}

TEST(SanitizeEvents, QuarantinesEveryFaultClass) {
  std::vector<faults::SbeEvent> events = {
      event(0, 1, 100, 3),                       // clean
      event(1, 99, 110, 1),                      // node out of range
      event(2, 2, 120, 0),                       // counter reset
      event(3, 2, 130, faults::kMaxPlausibleSbeCount + 5),  // rollback
      event(4, 3, 140, 2),                       // clean
  };
  events.push_back(events.back());               // exact duplicate
  faults::SbeEvent bad_interval = event(5, 1, 150, 1);
  bad_interval.start = 200;                      // end < start
  events.push_back(bad_interval);
  // Ends past the log's range, which would size its per-minute table.
  events.push_back(event(6, 1, faults::kMaxSbeMinute + 1, 1));

  const auto stats = faults::sanitize_events(events, 4, 2);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.out_of_range_dropped, 1u);
  EXPECT_EQ(stats.resets_dropped, 1u);
  EXPECT_EQ(stats.rollbacks_dropped, 1u);
  EXPECT_EQ(stats.duplicates_dropped, 1u);
  EXPECT_EQ(stats.bad_interval_dropped, 2u);
  EXPECT_EQ(stats.quarantined(), 6u);
  ASSERT_EQ(events.size(), 2u);
}

TEST(SanitizeEvents, RepairsOutOfOrderStream) {
  std::vector<faults::SbeEvent> events = {event(0, 1, 150, 3),
                                          event(1, 2, 100, 1),
                                          event(2, 3, 120, 2)};
  const auto stats = faults::sanitize_events(events, 4, 2);
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_GT(stats.reordered_repaired, 0u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].end, events[i].end);
  }
}

TEST(RebuildLog, MatchesDirectLogOnCleanStream) {
  const sim::Trace& trace = shared_tiny_trace();
  std::vector<faults::SbeEvent> events = trace.sbe_log.events();
  faults::SbeSanitizeStats stats;
  const faults::SbeLog rebuilt = faults::rebuild_log(
      std::move(events), trace.total_nodes(),
      static_cast<std::int32_t>(trace.catalog.size()), &stats);
  EXPECT_EQ(stats.quarantined(), 0u);
  EXPECT_EQ(rebuilt.events().size(), trace.sbe_log.events().size());
  EXPECT_EQ(rebuilt.global_count_between(0, trace.duration + 1),
            trace.sbe_log.global_count_between(0, trace.duration + 1));
  for (topo::NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(rebuilt.node_count_between(n, 0, trace.duration + 1),
              trace.sbe_log.node_count_between(n, 0, trace.duration + 1));
  }
}

// --- sample order -------------------------------------------------------------

bool ordered_by_end(const std::vector<sim::RunNodeSample>& samples) {
  return std::is_sorted(samples.begin(), samples.end(),
                        [](const sim::RunNodeSample& a,
                           const sim::RunNodeSample& b) {
                          return a.end < b.end;
                        });
}

TEST(SanitizeSamples, QuarantineKeepsRunEndOrder) {
  // core::samples_in binary-searches samples by run end, so the sanitizer
  // may drop samples but never reorder the survivors.
  const sim::Trace& clean = shared_tiny_trace();
  ASSERT_TRUE(ordered_by_end(clean.samples));
  ASSERT_GT(clean.samples.size(), 100u);
  sim::Trace trace = clean;
  trace.samples[3].node = -1;                             // bad identity
  trace.samples[40].start = trace.samples[40].end + 5;    // bad interval
  trace.samples[41].runtime_min =
      std::numeric_limits<float>::quiet_NaN();            // repaired
  const auto stats = sim::sanitize_samples(trace, {});
  EXPECT_EQ(stats.quarantined, 2u);
  EXPECT_TRUE(ordered_by_end(trace.samples));

  std::vector<sim::RunNodeSample> expected;
  for (std::size_t i = 0; i < clean.samples.size(); ++i) {
    if (i != 3 && i != 40) expected.push_back(clean.samples[i]);
  }
  ASSERT_EQ(trace.samples.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(trace.samples[i].run, expected[i].run) << "index " << i;
    ASSERT_EQ(trace.samples[i].node, expected[i].node) << "index " << i;
  }
}

TEST(SanitizeSamples, InjectedAndIngestedTraceKeepsRunEndOrder) {
  sim::Trace trace = shared_tiny_trace();
  inject::corrupt_trace(trace, inject::FaultConfig::uniform(0.25, 31));
  sim::ingest_trace(trace);
  EXPECT_TRUE(ordered_by_end(trace.samples));
}

// --- injection determinism ---------------------------------------------------

TEST(Injection, ZeroRatesAreAnExactNoOp) {
  const sim::Trace& clean = shared_tiny_trace();
  sim::Trace trace = clean;
  const auto report =
      inject::corrupt_trace(trace, inject::FaultConfig::uniform(0.0));
  EXPECT_EQ(report.total(), 0u);
  EXPECT_TRUE(trace.pending_sbe_events.empty());
  EXPECT_EQ(trace.sbe_log.events().size(), clean.sbe_log.events().size());
  EXPECT_TRUE(same_records(trace.samples, clean.samples));
}

TEST(Injection, DeterministicAcrossThreadCounts) {
  const sim::Trace& clean = shared_tiny_trace();
  const auto config = inject::FaultConfig::uniform(0.1, /*seed=*/777);

  const std::size_t saved = parallel_threads();
  inject::InjectionReport reports[2];
  sim::IngestReport ingests[2];
  std::vector<sim::RunNodeSample> samples[2];
  std::vector<faults::SbeEvent> events[2];
  const std::size_t thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    set_parallel_threads(thread_counts[i]);
    sim::Trace trace = clean;
    reports[i] = inject::corrupt_trace(trace, config);
    ingests[i] = sim::ingest_trace(trace);
    samples[i] = trace.samples;
    events[i] = trace.sbe_log.events();
  }
  set_parallel_threads(saved);

  EXPECT_GT(reports[0].total(), 0u);
  EXPECT_EQ(reports[0].total(), reports[1].total());
  EXPECT_EQ(ingests[0].quarantined(), ingests[1].quarantined());
  EXPECT_EQ(ingests[0].repaired(), ingests[1].repaired());
  EXPECT_EQ(ingests[0].samples.fields_imputed, ingests[1].samples.fields_imputed);
  EXPECT_TRUE(same_records(samples[0], samples[1]));
  EXPECT_TRUE(same_records(events[0], events[1]));
}

TEST(Injection, AccountingClosesEndToEnd) {
  const sim::Trace& clean = shared_tiny_trace();
  sim::Trace trace = clean;
  inject::FaultConfig config = inject::FaultConfig::uniform(0.2, 99);
  const auto injected = inject::corrupt_trace(trace, config);
  EXPECT_GT(injected.total(), 0u);
  EXPECT_FALSE(trace.pending_sbe_events.empty());
  EXPECT_TRUE(trace.sbe_log.events().empty());  // parked, not indexed

  const sim::IngestReport report = sim::ingest_trace(trace);
  EXPECT_TRUE(trace.pending_sbe_events.empty());
  // Every injected reset/rollback surfaces in the quarantine ledger (the
  // duplicate of a reset event is itself also dropped as a reset, so >=).
  EXPECT_GE(report.sbe.resets_dropped, injected.sbe_resets);
  EXPECT_GE(report.sbe.rollbacks_dropped, injected.sbe_rollbacks);
  EXPECT_GT(report.samples.fields_imputed, 0u);  // dropouts/spikes repaired
  EXPECT_FALSE(report.summary().empty());

  // No NaN survives the hardened ingest.
  for (const sim::RunNodeSample& s : trace.samples) {
    EXPECT_TRUE(std::isfinite(s.run_gpu_temp.mean));
    EXPECT_TRUE(std::isfinite(s.run_gpu_power.mean));
    for (std::size_t w = 0; w < sim::kPreWindowsMin.size(); ++w) {
      EXPECT_TRUE(std::isfinite(s.pre_gpu_temp[w].mean));
      EXPECT_TRUE(std::isfinite(s.pre_gpu_power[w].mean));
    }
    for (std::size_t i = 0; i < s.recent_len; ++i) {
      EXPECT_TRUE(std::isfinite(s.recent_gpu_temp[i]));
      EXPECT_TRUE(std::isfinite(s.recent_gpu_power[i]));
    }
  }
}

TEST(Injection, CorruptedPipelineTrainsAndPredictsFinite) {
  const sim::Trace& clean = shared_tiny_trace();
  sim::Trace trace = clean;
  inject::corrupt_trace(trace, inject::FaultConfig::uniform(0.15, 5));
  sim::ingest_trace(trace);

  const auto split = core::SplitSpec::sliding(30, 20, 8, 1, 1).front();
  const core::TwoStageRun run =
      core::run_two_stage(trace, {}, split.train, split.test);
  ASSERT_FALSE(run.idx.empty());
  for (const float p : run.proba) {
    EXPECT_TRUE(std::isfinite(p));
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
  EXPECT_TRUE(std::isfinite(run.metrics.positive.f1));
}

TEST(Injection, AllResetsDegradeTwoStageGracefully) {
  const sim::Trace& clean = shared_tiny_trace();
  sim::Trace trace = clean;
  inject::FaultConfig config;
  config.sbe_reset_rate = 1.0;  // every SBE event quarantined as a reset
  inject::corrupt_trace(trace, config);
  const sim::IngestReport report = sim::ingest_trace(trace);
  EXPECT_EQ(report.sbe.accepted, 0u);
  EXPECT_TRUE(trace.sbe_log.events().empty());

  const auto split = core::SplitSpec::sliding(30, 20, 8, 1, 1).front();
  // Must not throw: a degraded predictor still counts as trained.
  const core::TwoStageRun run =
      core::run_two_stage(trace, {}, split.train, split.test);
  EXPECT_TRUE(run.degraded);
  ASSERT_FALSE(run.idx.empty());
  for (const float p : run.proba) EXPECT_EQ(p, 0.0f);
  for (const auto y : run.pred) EXPECT_EQ(y, 0);
  EXPECT_EQ(run.metrics.confusion.tp, 0u);
  EXPECT_EQ(run.metrics.confusion.fp, 0u);
}

// --- file-level corruption (trace cache format) -----------------------------

/// Metrics on, from zero, for the scope of one test.
class MetricsOn {
 public:
  MetricsOn() {
    obs::reset();
    obs::set_enabled(true);
  }
  ~MetricsOn() {
    obs::set_enabled(false);
    obs::reset();
  }
  MetricsOn(const MetricsOn&) = delete;
  MetricsOn& operator=(const MetricsOn&) = delete;
};

std::uint64_t counter_value(const char* name) {
  return obs::counter(name).value();
}

/// Flips one bit of the byte at `off` in the file at `path`.
void flip_bit(const std::string& path, std::streamoff off, unsigned bit) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekg(off);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ (1u << bit));
  f.seekp(off);
  f.write(&byte, 1);
  ASSERT_TRUE(f.good());
}

/// Overwrites the file's format magic (its first word).
void write_magic(const std::string& path, std::uint64_t magic) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
}

class TraceFileFuzz : public ::testing::Test {
 protected:
  /// Large enough that the samples fill more than one of the reader's
  /// blocks, so corruption can be aimed at a block seam.
  static const sim::SimConfig& config() {
    static const sim::SimConfig cfg = [] {
      sim::SimConfig c = sim::SimConfig::testing(/*test_days=*/16,
                                                 /*test_seed=*/13);
      c.faults.base_rate_per_min = 2.0e-3;
      return c;
    }();
    return cfg;
  }
  /// Per-process name, so test binaries of different build trees running
  /// at once never share the pristine file or its `.fuzz`/`.unordered`
  /// copies.
  static const std::string& pristine_path() {
    static const std::string path = ::testing::TempDir() +
                                    "repro_inject_trace_" +
                                    std::to_string(::getpid()) + ".bin";
    return path;
  }
  static void SetUpTestSuite() {
    sim::save_trace(sim::simulate(config()), config(), pristine_path());
  }
  static void TearDownTestSuite() {
    std::filesystem::remove(pristine_path());
  }
  /// Fresh mutable copy of the pristine file for one fuzz trial.
  std::string working_copy() const {
    const std::string p = pristine_path() + ".fuzz";
    std::filesystem::copy_file(pristine_path(), p,
                               std::filesystem::copy_options::overwrite_existing);
    return p;
  }
  /// The header: magic, fingerprint, payload size, payload checksum.
  static constexpr std::uintmax_t kHeaderBytes = 4 * sizeof(std::uint64_t);
  /// First sample of the reader's second block of samples.
  static constexpr std::size_t kSeam =
      sim::kTraceReadBlockBytes / sizeof(sim::RunNodeSample);
  /// File offset of sample i: the payload opens with the trace duration
  /// and the samples' length prefix.
  static constexpr std::uintmax_t sample_offset(std::size_t i) {
    return kHeaderBytes + sizeof(Minute) + sizeof(std::uint64_t) +
           i * sizeof(sim::RunNodeSample);
  }
};

TEST_F(TraceFileFuzz, RoundTripAndAtomicity) {
  // The writer's temp file was renamed away, not left beside the trace.
  const std::filesystem::path pristine(pristine_path());
  const std::string tmp_prefix = pristine.filename().string() + ".tmp";
  for (const auto& e :
       std::filesystem::directory_iterator(pristine.parent_path())) {
    EXPECT_NE(e.path().filename().string().rfind(tmp_prefix, 0), 0u)
        << "left behind " << e.path();
  }
  const sim::Trace reloaded = sim::read_trace(config(), pristine_path());
  const sim::Trace direct = sim::simulate(config());
  EXPECT_TRUE(same_records(reloaded.samples, direct.samples));
  EXPECT_EQ(reloaded.sbe_log.events().size(), direct.sbe_log.events().size());
}

TEST_F(TraceFileFuzz, EverySingleByteTruncationIsRejectedNotCrashed) {
  const std::string p = working_copy();
  const auto full = std::filesystem::file_size(p);
  // Sweep truncation points across the whole file: header cuts, payload
  // cuts, and zero bytes. Every one must be a clean nullopt.
  for (const double frac : {0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999}) {
    const auto keep = static_cast<std::uintmax_t>(
        static_cast<double>(full) * frac);
    std::filesystem::copy_file(
        pristine_path(), p, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(p, keep);
    EXPECT_FALSE(sim::load_trace(config(), p).has_value())
        << "accepted a file truncated to " << keep << "/" << full << " bytes";
  }
  std::filesystem::remove(p);
}

TEST_F(TraceFileFuzz, ChecksumCatchesEverySingleBitFlip) {
  const auto full = std::filesystem::file_size(pristine_path());
  // Deterministically flip one bit at a spread of offsets, covering the
  // header (magic, fingerprint, payload length, checksum) and payload.
  Rng rng(0xB17F11Bu);
  for (int trial = 0; trial < 24; ++trial) {
    const std::string p = working_copy();
    const auto off = static_cast<std::streamoff>(rng.uniform_index(full));
    ASSERT_NO_FATAL_FAILURE(
        flip_bit(p, off, static_cast<unsigned>(rng.uniform_index(8))));
    EXPECT_FALSE(sim::load_trace(config(), p).has_value())
        << "accepted a bit flip at byte " << off;
    std::filesystem::remove(p);
  }
}

TEST_F(TraceFileFuzz, BitFlipsAtLaneStartsSeamsAndTheEndAreRejected) {
  // Deterministic flips where the checksum's lanes and the reader's blocks
  // begin and end: the first payload word of each of the four lanes, the
  // last byte before the first seam in the samples and the first after it,
  // and the last payload byte.
  const auto full = std::filesystem::file_size(pristine_path());
  ASSERT_LT(sample_offset(kSeam + 1), full) << "samples fit in one block";
  const std::uintmax_t offsets[] = {kHeaderBytes,
                                    kHeaderBytes + 8,
                                    kHeaderBytes + 16,
                                    kHeaderBytes + 24,
                                    sample_offset(kSeam) - 1,
                                    sample_offset(kSeam),
                                    full - 1};
  for (const std::uintmax_t off : offsets) {
    for (const unsigned bit : {0u, 7u}) {
      const std::string p = working_copy();
      ASSERT_NO_FATAL_FAILURE(
          flip_bit(p, static_cast<std::streamoff>(off), bit));
      EXPECT_THROW((void)sim::read_trace(config(), p), CheckError)
          << "byte " << off << " bit " << bit;
      EXPECT_FALSE(sim::load_trace(config(), p).has_value())
          << "accepted a flip of bit " << bit << " at byte " << off;
      std::filesystem::remove(p);
    }
  }
}

TEST_F(TraceFileFuzz, RandomCorruptionNeverCrashesTheLoader) {
  for (int trial = 0; trial < 16; ++trial) {
    const std::string p = working_copy();
    inject::FaultConfig config_file;
    config_file.seed = 1000u + static_cast<std::uint64_t>(trial);
    config_file.file_truncate_prob = 0.5;
    config_file.file_bitflips_per_kb = 0.05;
    const auto result = inject::corrupt_file(p, config_file);
    EXPECT_TRUE(result.existed);
    // Either rejected (usual) or, if flips happened to cancel out, loaded
    // intact — but never a crash, hang, or out-of-bounds access.
    const auto loaded = sim::load_trace(config(), p);
    if (loaded.has_value()) {
      EXPECT_FALSE(result.truncated);
    }
    std::filesystem::remove(p);
  }
}

TEST_F(TraceFileFuzz, OutOfOrderSamplesAreRejected) {
  // A well-formed file (valid checksum) whose samples break run-end order
  // is still corrupt: readers binary-search samples by run end.
  sim::Trace trace = sim::read_trace(config(), pristine_path());
  ASSERT_GT(trace.samples.size(), 2u);
  ASSERT_LT(trace.samples.front().end, trace.samples.back().end);
  std::swap(trace.samples.front(), trace.samples.back());
  const std::string p = pristine_path() + ".unordered";
  sim::save_trace(trace, config(), p);
  EXPECT_THROW((void)sim::read_trace(config(), p), CheckError);
  EXPECT_FALSE(sim::load_trace(config(), p).has_value());
  std::filesystem::remove(p);
}

TEST_F(TraceFileFuzz, OutOfOrderPairAcrossABlockSeamIsRejected) {
  // Each block alone stays sorted; only the last sample of the first block
  // and the first of the second are out of order.
  sim::Trace trace = sim::read_trace(config(), pristine_path());
  ASSERT_GT(trace.samples.size(), kSeam + 1);
  trace.samples[kSeam].end = trace.samples[kSeam - 1].end - 1;
  const std::string p = pristine_path() + ".seam_unordered";
  sim::save_trace(trace, config(), p);
  EXPECT_THROW((void)sim::read_trace(config(), p), CheckError);
  EXPECT_FALSE(sim::load_trace(config(), p).has_value());
  std::filesystem::remove(p);
}

TEST_F(TraceFileFuzz, VersionMismatchReadsAsStaleNotCorrupt) {
  const std::string p = working_copy();
  write_magic(p, 0x54524143'45763035ULL);  // "TRACEv05"
  EXPECT_FALSE(sim::load_trace(config(), p).has_value());
  EXPECT_THROW((void)sim::read_trace(config(), p), CheckError);
  std::filesystem::remove(p);
}

TEST_F(TraceFileFuzz, PreviousVersionIsStaleAndResimulatedOnce) {
  // A cache entry in the previous format (TRACEv06) is a normal miss:
  // counted stale, not rejected, and cached_simulate replaces it in place.
  const MetricsOn metrics;
  const std::string dir = ::testing::TempDir() + "repro_inject_cache_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string p = sim::cache_path(config(), dir);
  std::filesystem::copy_file(pristine_path(), p);
  write_magic(p, 0x54524143'45763036ULL);  // "TRACEv06"
  EXPECT_FALSE(sim::load_trace(config(), p).has_value());
  EXPECT_EQ(counter_value("ingest.trace_cache_stale"), 1u);
  EXPECT_EQ(counter_value("ingest.trace_file_rejected"), 0u);

  const sim::Trace trace = sim::cached_simulate(config(), dir);
  EXPECT_EQ(counter_value("sim.trace_cache_misses"), 1u);
  EXPECT_EQ(counter_value("ingest.trace_cache_stale"), 2u);
  const auto reloaded = sim::load_trace(config(), p);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_TRUE(same_records(reloaded->samples, trace.samples));
  EXPECT_EQ(counter_value("ingest.trace_file_rejected"), 0u);
  // The new trace replaced the stale entry instead of sitting beside it.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            1);
  std::filesystem::remove_all(dir);
}

TEST_F(TraceFileFuzz, FileShorterThanItsHeaderIsRejectedNotStale) {
  const MetricsOn metrics;
  const std::string p = working_copy();
  std::uint64_t rejected = 0;
  for (const std::uintmax_t bytes : {0u, 10u, 31u}) {
    std::filesystem::copy_file(
        pristine_path(), p, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(p, bytes);
    EXPECT_FALSE(sim::load_trace(config(), p).has_value()) << bytes;
    EXPECT_EQ(counter_value("ingest.trace_file_rejected"), ++rejected)
        << bytes << "-byte file not rejected";
    EXPECT_EQ(counter_value("ingest.trace_cache_stale"), 0u)
        << bytes << "-byte file counted stale";
    EXPECT_THROW((void)sim::read_trace(config(), p), CheckError) << bytes;
  }
  std::filesystem::remove(p);
}

TEST_F(TraceFileFuzz, LoadIsTimedAndCountsItsBytes) {
  // Any direct load_trace call is timed, not only cached_simulate's, and
  // adds the bytes it loaded, so a traced run yields MB/s.
  const MetricsOn metrics;
  ASSERT_TRUE(sim::load_trace(config(), pristine_path()).has_value());
  EXPECT_EQ(obs::timer("sim.trace_cache_load").calls(), 1u);
  EXPECT_GT(obs::timer("sim.trace_cache_load").seconds(), 0.0);
  EXPECT_EQ(counter_value("sim.trace_cache_load_bytes"),
            std::filesystem::file_size(pristine_path()));
}

}  // namespace
}  // namespace repro
