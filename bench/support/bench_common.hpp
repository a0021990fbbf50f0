// Shared infrastructure of the experiment driver (bench/repro_bench.cpp):
// the BENCH_<id>.json artifact writer and the experiment context.
//
// Every experiment consumes the same "paper trace": a 102-day trace of the
// scaled Titan (25x8 cabinets, 1,600 nodes) with machine drift starting at
// day 88 so that the DS3 test window (days 88-102) is post-drift, exactly
// the hardest-dataset structure of Table II. The trace is simulated once
// and cached on disk (bench_cache/ in the working directory); later runs
// load it in under a second.
#pragma once

#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "core/baselines.hpp"
#include "core/sample_index.hpp"
#include "core/splits.hpp"
#include "core/two_stage.hpp"
#include "obs/obs.hpp"
#include "sim/trace_io.hpp"

namespace repro::bench {

inline constexpr std::int64_t kPaperDays = 102;

/// JSON string escaping for BenchJson keys and values (quotes, backslashes,
/// and control characters — enough for the identifiers and paths we emit).
inline std::string bench_json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Machine-readable bench artifact: accumulates key/value metrics and
/// writes `BENCH_<name>.json` into the working directory on write().
/// Dotted keys ("gbdt.fit_seconds") are kept flat; consumers split on '.'.
/// write() stamps wall-clock since construction and the effective thread
/// count, merges the obs metrics snapshot under an "obs." prefix, and
/// honors REPRO_TRACE so perf trajectories can be compared run-over-run.
///
/// Integer metrics go through set_int: a bare integral argument to set()
/// was ambiguous between the size_t, bool, and double overloads (all one
/// conversion away), so the integral overload is explicitly deleted.
class BenchJson {
 public:
  explicit BenchJson(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {
    // Benches always collect metrics; trace capture stays opt-in via
    // REPRO_TRACE (obs::init reads it on first use).
    obs::set_enabled(true);
  }

  void set(const std::string& key, double value) {
    // JSON has no NaN/Inf literal; "%.9g" would emit "nan"/"inf" and break
    // every consumer (tools/bench_diff included). Non-finite values encode
    // as null, which parsers treat as "metric absent".
    if (!std::isfinite(value)) {
      entries_.emplace_back(key, "null");
      return;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    entries_.emplace_back(key, buf);
  }
  void set(const std::string& key, bool value) {
    entries_.emplace_back(key, value ? "true" : "false");
  }
  template <std::integral T>
  void set(const std::string&, T) = delete;  // use set_int / set(bool)
  template <std::integral T>
  void set_int(const std::string& key, T value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void set_string(const std::string& key, const std::string& value) {
    entries_.emplace_back(key, "\"" + bench_json_escape(value) + "\"");
  }

  [[nodiscard]] std::string path() const { return "BENCH_" + name_ + ".json"; }

  /// Writes the artifact; returns the path written. Also writes the Chrome
  /// trace when REPRO_TRACE=<path> is set.
  std::string write() {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    // Snapshot after the measured work: counters come out integral, timer
    // aggregates as *_seconds / *_calls pairs.
    for (const obs::Metric& m : obs::snapshot()) {
      if (m.integral) {
        set_int("obs." + m.key, static_cast<long long>(m.count));
      } else {
        set("obs." + m.key, m.value);
      }
    }
    // Atomic publish (tmp + rename): a bench killed mid-write must never
    // leave a torn BENCH_*.json for bench_diff to choke on.
    const std::string tmp = path() + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      out << "{\n  \"bench\": \"" << bench_json_escape(name_) << "\",\n";
      out << "  \"threads\": " << parallel_threads() << ",\n";
      char wall_buf[64];
      std::snprintf(wall_buf, sizeof(wall_buf), "%.3f", wall);
      out << "  \"wall_seconds\": " << wall_buf;
      for (const auto& [key, value] : entries_) {
        out << ",\n  \"" << bench_json_escape(key) << "\": " << value;
      }
      out << "\n}\n";
      out.flush();
      if (!out) {
        std::fprintf(stderr, "[bench] write to %s failed\n", tmp.c_str());
        return path();
      }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path(), ec);
    if (ec) {
      std::fprintf(stderr, "[bench] cannot publish %s: %s\n", path().c_str(),
                   ec.message().c_str());
      return path();
    }
    std::fprintf(stderr, "[bench] wrote %s\n", path().c_str());
    obs::write_trace_if_requested();
    return path();
  }

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

inline sim::SimConfig paper_config() {
  sim::SimConfig cfg;
  cfg.system = topo::SystemConfig::titan_scaled();
  cfg.days = kPaperDays;
  cfg.seed = 42;
  cfg.faults.drift_day = 88;
  cfg.probe_nodes = {0, 1, 2, 3};  // full-resolution series for Fig 8
  return cfg;
}

/// A run's audit numbers (DESIGN.md §8) under `model`: the test window's
/// positive rate, the stage-1 survivor rates, the train rows' positive rate
/// and the train-vs-test feature drift. A rate or report the run could not
/// compute is left out rather than written as a 0.
inline std::vector<std::pair<std::string, double>> audit_keys(
    const std::string& model, const core::TwoStageRun& run) {
  std::vector<std::pair<std::string, double>> k;
  const auto set = [&](const char* leaf, double value) {
    k.emplace_back(model + "." + leaf, value);
  };
  if (run.quality.valid) set("positive_rate", run.quality.positive_rate);
  if (!run.degraded) {
    if (!run.idx.empty()) set("survivor_rate", run.survivor_rate);
    set("train_survivor_rate", run.train_survivor_rate);
    set("train_positive_rate", run.train_positive_rate);
  }
  const audit::DriftSummary& d = run.drift;
  if (d.valid) {
    set("psi_max", d.psi_max);
    set("psi_argmax_feature", static_cast<double>(d.psi_argmax));
    set("ks_max", d.ks_max);
    set("ks_argmax_feature", static_cast<double>(d.ks_argmax));
    set("psi_drifted_features", static_cast<double>(d.psi_drifted));
  }
  return k;
}

/// What the experiments share: one trace, its train/test splits, Basic A
/// per split and a grid of TwoStage runs keyed on (split, whole config).
/// Each cell is computed on first request, one at a time with the whole
/// thread pool, so a run's fit_seconds always means "this fit ran
/// alone", whichever experiment asked first.
class Context {
 public:
  Context(sim::SimConfig config, std::vector<core::SplitSpec> splits,
          std::string cache_dir)
      : config_(std::move(config)),
        splits_(std::move(splits)),
        cache_dir_(std::move(cache_dir)) {}

  [[nodiscard]] const sim::SimConfig& config() const { return config_; }
  [[nodiscard]] const std::vector<core::SplitSpec>& splits() const {
    return splits_;
  }

  /// The trace, loaded from the disk cache or simulated and cached there.
  const sim::Trace& trace() {
    if (!trace_) {
      std::fprintf(stderr, "[bench] loading/simulating the %lld-day trace "
                   "(cache: %s/)...\n",
                   static_cast<long long>(config_.days), cache_dir_.c_str());
      trace_.emplace(sim::cached_simulate(config_, cache_dir_, &cache_hit_));
    }
    return *trace_;
  }
  /// Whether trace() was served by a valid cache entry. A stale or
  /// corrupt entry at the cache path is a miss.
  [[nodiscard]] bool trace_cache_hit() const { return cache_hit_; }

  /// Basic A (Sec. VI-B) trained on split `s`, evaluated on its test window.
  const ml::ClassMetrics& basic_a(std::size_t s) {
    auto it = basic_a_.find(s);
    if (it == basic_a_.end()) {
      const sim::Trace& t = trace();
      const auto idx = core::samples_in(t, splits_.at(s).test);
      core::BasicScheme scheme(core::BasicKind::kBasicA);
      scheme.train(t, splits_[s].train);
      it = basic_a_.emplace(s, core::evaluate_predictions(
                                   t, idx, scheme.predict(t, idx)))
               .first;
    }
    return it->second;
  }

  /// TwoStage trained on split `s` with `config`, scored on its test window.
  const core::TwoStageRun& run(std::size_t s,
                               const core::TwoStageConfig& config = {}) {
    const std::pair key{s, config};
    auto it = runs_.find(key);
    if (it == runs_.end()) {
      const core::SplitSpec& split = splits_.at(s);
      it = runs_.emplace(key, core::run_two_stage(trace(), config,
                                                  split.train, split.test))
               .first;
    }
    return it->second;
  }

 private:
  sim::SimConfig config_;
  std::vector<core::SplitSpec> splits_;
  std::string cache_dir_;
  std::optional<sim::Trace> trace_;
  bool cache_hit_ = false;
  std::map<std::size_t, ml::ClassMetrics> basic_a_;
  std::map<std::pair<std::size_t, core::TwoStageConfig>, core::TwoStageRun>
      runs_;
};

}  // namespace repro::bench
