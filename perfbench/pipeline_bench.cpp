// Pipeline benchmark: runs one workload for a fixed wall-clock budget
// and prints one JSON result line. perfbench/run.py builds this binary and
// is the entry point named in BENCHMARK.json.
//
//   pipeline_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The pipeline is composed here from each layer's public entry point —
// simulate, trace cache save/load, stage 1, featurize, scale, bin, boost,
// predict, evaluate — so that every layer can be timed from outside the
// library. Layer clocks run only with --trace 1; --trace 0 makes the same
// calls untimed and reports the end-to-end metrics.
//
// Both workloads read the benches' 102-day, 1,600-GPU paper trace from the
// trace cache (run.py pins REPRO_THREADS=1):
//   train_window  retrain TwoStage+GBDT on a 12-hour window, then score and
//                 evaluate the day after it: stage 1, featurize, scale, bin,
//                 boost, then filter, extract, predict. Six fixed windows.
//   score_hourly  a trained model scores the runs that finished in each hour
//                 of a 14-day test window, as a scheduler hook would: filter,
//                 extract and predict on ~180-sample batches, no training.
//
// Each workload is a fixed set of items (windows, hours); one round runs
// every item once. --seed picks the order of the items in a round, so the
// work is the same for every seed and figures from different seeds are
// comparable.
//
// Operations are short (tens of ms and below) because the shared hosts this
// runs on slow each core down by 1.3-1.8x, independently of the others, for
// spells of milliseconds to minutes. op_ms is the mean over items of each
// item's 5th-percentile time: the time of an operation that ran on an
// uncontended core, which moves little from run to run while a median
// moves with the spells. The single benchmark thread moves to the next
// allowed CPU every round, so that one core's long spell cannot hold a
// whole run.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/sample_index.hpp"
#include "core/two_stage.hpp"
#include "features/features.hpp"
#include "ml/gbdt.hpp"
#include "ml/metrics.hpp"
#include "ml/model.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_io.hpp"

namespace {

using namespace repro;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Layer clocks: the wall time of every call into a layer, kept in memory and
// summarised when the run ends. With --trace 0 no clock is read.

struct LayerLog {
  bool on = false;
  std::map<std::string, std::vector<double>, std::less<>> seconds;
};
LayerLog g_layers;

class LayerSpan {
 public:
  explicit LayerSpan(const char* layer) : layer_(layer) {
    if (g_layers.on) start_ = Clock::now();
  }
  ~LayerSpan() {
    if (!g_layers.on) return;
    const double s = seconds_since(start_);
    auto it = g_layers.seconds.find(layer_);
    if (it == g_layers.seconds.end()) {
      it = g_layers.seconds.emplace(layer_, std::vector<double>{}).first;
    }
    it->second.push_back(s);
  }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  const char* layer_;
  Clock::time_point start_{};
};

/// Training runs stage1 -> featurize -> scale -> (bin) -> boost; scoring
/// runs filter (stage 1 again) -> extract (featurize + scale one row at a
/// time) -> predict.
constexpr const char* kLayers[] = {
    "simulate", "trace_save", "trace_load", "stage1",  "featurize",
    "scale",    "bin",        "boost",      "filter",  "extract",
    "predict",  "evaluate"};

// ---------------------------------------------------------------------------
// Inputs.

const std::filesystem::path kWorkDir = ".bench_build/perfbench-work";

/// The benches' paper trace (bench/support/bench_common.hpp): the scaled
/// Titan, 25x8 cabinets x 8 GPUs, 102 days, drift from day 88.
sim::SimConfig paper_config() {
  sim::SimConfig c;
  c.system = topo::SystemConfig::titan_scaled();
  c.days = 102;
  c.seed = 42;
  c.faults.drift_day = 88;
  c.probe_nodes = {0, 1, 2, 3};
  return c;
}

/// A 256-GPU machine with denser faults, as in examples/quickstart; only
/// the traced layer probe simulates it.
sim::SimConfig cold_config() {
  sim::SimConfig c;
  c.system = {.grid_x = 8, .grid_y = 4, .cages_per_cabinet = 1,
              .slots_per_cage = 4, .nodes_per_slot = 4};
  c.days = 16;
  c.seed = 7;
  c.faults.base_rate_per_min = 2.5e-4;
  return c;
}

struct Split {
  Interval train;
  Interval test;
};

/// train_window's items: six consecutive 12-hour training windows from day
/// 20 on, each tested on the day after it (all well before day 88, where
/// the paper trace's drift starts). Each trains on 100-150 rows.
std::vector<Split> retrain_splits() {
  constexpr Minute kWindow = 12 * kMinutesPerHour;
  std::vector<Split> splits;
  for (Minute i = 0; i < 6; ++i) {
    const Minute start = day_start(20) + i * kWindow;
    splits.push_back({{start, start + kWindow},
                      {start + kWindow, start + kWindow + kMinutesPerDay}});
  }
  return splits;
}

/// score_hourly's model: trained on the week before a 14-day test window,
/// which holds 336 hours.
Split scoring_split() {
  return {{day_start(53), day_start(60)}, {day_start(60), day_start(74)}};
}

/// The order in which a round visits `n` items: a Fisher-Yates shuffle
/// driven by splitmix64 from `seed`.
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t x = seed;
  for (std::size_t i = n; i > 1; --i) {
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    std::swap(order[i - 1], order[z % i]);
  }
  return order;
}

// ---------------------------------------------------------------------------
// The pipeline, one public layer call at a time. It mirrors what
// core::TwoStagePredictor does (stage-1 offender filter, then a GBDT on the
// scaled features of offender-node samples); Expected below holds it to
// the library's own predictor.

sim::Trace simulate_trace(const sim::SimConfig& config) {
  LayerSpan span("simulate");
  return sim::simulate(config);
}

/// sim::cached_simulate's miss path: simulate, then save to the cache.
sim::Trace simulate_and_save(const sim::SimConfig& config,
                             const std::string& path) {
  sim::Trace trace = simulate_trace(config);
  LayerSpan span("trace_save");
  sim::save_trace(trace, config, path);
  return trace;
}

/// sim::cached_simulate's hit path.
sim::Trace load(const sim::SimConfig& config, const std::string& path) {
  LayerSpan span("trace_load");
  std::optional<sim::Trace> trace = sim::load_trace(config, path);
  REPRO_CHECK_MSG(trace.has_value(), "trace cache " << path << " unreadable");
  return std::move(*trace);
}

void check_same_trace(const sim::Trace& a, const sim::Trace& b) {
  REPRO_CHECK_MSG(a.samples.size() == b.samples.size() &&
                      a.sbe_log.events().size() == b.sbe_log.events().size(),
                  "traces differ in size");
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const auto& x = a.samples[i];
    const auto& y = b.samples[i];
    REPRO_CHECK_MSG(x.run == y.run && x.node == y.node && x.end == y.end &&
                        x.sbe_count == y.sbe_count &&
                        x.run_gpu_temp.mean == y.run_gpu_temp.mean,
                    "traces differ at sample " << i);
  }
}

struct TrainedModel {
  std::vector<char> offenders;
  std::unique_ptr<features::FeatureExtractor> extractor;
  ml::StandardScaler scaler;
  std::unique_ptr<ml::Model> gbdt;
  std::size_t train_rows = 0;
};

TrainedModel train(const sim::Trace& trace, Interval window) {
  TrainedModel m;
  std::vector<std::size_t> rows;
  {
    LayerSpan span("stage1");
    m.offenders = trace.sbe_log.offender_mask(0, window.end);
    for (const std::size_t i : core::samples_in(trace, window)) {
      if (m.offenders[static_cast<std::size_t>(trace.samples[i].node)]) {
        rows.push_back(i);
      }
    }
  }
  REPRO_CHECK_MSG(!rows.empty(), "no offender-node samples to train on");
  m.extractor = std::make_unique<features::FeatureExtractor>(
      trace, features::FeatureSpec{});
  ml::Dataset data = [&] {
    LayerSpan span("featurize");
    return m.extractor->build(rows);
  }();
  {
    LayerSpan span("scale");
    m.scaler.fit(data.X);
    m.scaler.transform_inplace(data.X);
  }
  if (g_layers.on) {
    // fit() bins internally; this extra, traced-only call times that step.
    LayerSpan span("bin");
    ml::FeatureBinner binner;
    binner.fit(data.X, ml::GradientBoostedTrees::Params{}.max_bins);
    REPRO_CHECK(binner.transform_columns(data.X).rows == data.size());
  }
  {
    LayerSpan span("boost");
    m.gbdt = ml::make_model(ml::ModelKind::kGbdt, core::TwoStageConfig{}.seed);
    m.gbdt->fit(data);
  }
  m.train_rows = data.size();
  return m;
}

/// P(SBE) per sample: stage-1 rejects get 0, the rest go through the model.
std::vector<float> score(const TrainedModel& m, const sim::Trace& trace,
                         std::span<const std::size_t> idx) {
  std::vector<float> out(idx.size(), 0.0f);
  std::vector<std::size_t> accepted;
  {
    LayerSpan span("filter");
    for (std::size_t k = 0; k < idx.size(); ++k) {
      if (m.offenders[static_cast<std::size_t>(trace.samples[idx[k]].node)]) {
        accepted.push_back(k);
      }
    }
  }
  if (accepted.empty()) return out;
  ml::Matrix X(accepted.size(), m.extractor->dim());
  {
    LayerSpan span("extract");
    for (std::size_t i = 0; i < accepted.size(); ++i) {
      m.extractor->extract(trace.samples[idx[accepted[i]]], X.row(i));
      m.scaler.transform_row(X.row(i));
    }
  }
  const std::vector<float> proba = [&] {
    LayerSpan span("predict");
    return m.gbdt->predict_proba_many(X);
  }();
  for (std::size_t i = 0; i < accepted.size(); ++i) out[accepted[i]] = proba[i];
  return out;
}

struct Quality {
  double f1 = 0.0;
  double auc = 0.0;
};

Quality evaluate(const sim::Trace& trace, std::span<const std::size_t> idx,
                 std::span<const float> proba) {
  LayerSpan span("evaluate");
  const std::vector<ml::Label> truth = core::labels_of(trace, idx);
  return {ml::evaluate_proba(truth, proba, core::TwoStageConfig{}.threshold)
              .positive.f1,
          ml::roc_auc(truth, proba)};
}

/// The expected output of one window's scores. The first scores seen must
/// be probabilities, separate the classes well, and decide like
/// core::TwoStagePredictor on the same window (a few borderline flips are
/// allowed, so that a re-baselined model does not read as a broken one);
/// every later scoring of the window must repeat them exactly.
class Expected {
 public:
  Expected(const sim::Trace& trace, const Split& split,
           std::span<const std::size_t> test_idx) {
    core::TwoStagePredictor reference(core::TwoStageConfig{});
    reference.train(trace, split.train);
    decisions_ = reference.predict(trace, test_idx);
  }

  void check(std::span<const float> proba, const Quality& q) {
    if (!proba_.empty()) {
      REPRO_CHECK_MSG(std::equal(proba.begin(), proba.end(), proba_.begin(),
                                 proba_.end()),
                      "scores differ from the first scoring of the window");
      return;
    }
    REPRO_CHECK(proba.size() == decisions_.size());
    std::size_t disagree = 0;
    for (std::size_t k = 0; k < proba.size(); ++k) {
      REPRO_CHECK_MSG(std::isfinite(proba[k]) && proba[k] >= 0.0f &&
                          proba[k] <= 1.0f,
                      "score outside [0, 1]: " << proba[k]);
      disagree += (proba[k] >= core::TwoStageConfig{}.threshold) !=
                  (decisions_[k] != 0);
    }
    REPRO_CHECK_MSG(disagree * 100 <= proba.size(),
                    disagree << " of " << proba.size()
                             << " decisions differ from TwoStagePredictor");
    REPRO_CHECK_MSG(q.auc >= 0.75, "ROC-AUC " << q.auc << " below 0.75");
    proba_.assign(proba.begin(), proba.end());
    quality_ = q;
  }

  [[nodiscard]] const Quality& quality() const { return quality_; }

 private:
  std::vector<ml::Label> decisions_;
  std::vector<float> proba_;
  Quality quality_;
};

// ---------------------------------------------------------------------------
// Running a workload.

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

struct Run {
  std::vector<double> setup_s;             ///< wall time of each set-up
  std::vector<std::vector<double>> op_s;   ///< per item, each op's wall time
  double op_total_s = 0.0;                 ///< wall time of all good ops
  double samples = 0.0;  ///< <run, node> samples the ops handled
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Quality quality;
  std::map<std::string, double> counts;
};

/// Set-up runs this often: once before the ops, then spread evenly over
/// the run, so that its median spans the same host conditions as the ops.
constexpr std::size_t kSetups = 9;

/// op_ms takes this quantile of each item's op times.
constexpr double kOpQuantile = 0.05;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto k =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

/// Mean over items of the q-quantile of each item's op times.
double mean_item_quantile(const Run& run, double q) {
  double sum = 0.0;
  for (const std::vector<double>& s : run.op_s) sum += quantile(s, q);
  return run.op_s.empty() ? 0.0 : sum / static_cast<double>(run.op_s.size());
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Moves the calling thread to `cpu`; a refusal leaves it where it was.
void move_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Times `setup`, runs the untimed `check` that fixes the expected outputs
/// and returns the number of items, then repeats rounds of `op(item)` over
/// every item, in the seed's order, until `seconds` of wall time have
/// passed, each round on the next allowed CPU. Between rounds `setup` runs
/// again (each replaces the previous one's state) until it has run kSetups
/// times. `op` returns the samples it handled and throws when its output is
/// wrong.
template <typename Setup, typename Check, typename Op>
void measure(const Args& args, Run& run, Setup&& setup, Check&& check,
             Op&& op) {
  const auto timed_setup = [&] {
    const auto t0 = Clock::now();
    setup();
    run.setup_s.push_back(seconds_since(t0));
  };
  timed_setup();
  const std::size_t items = check();
  run.op_s.assign(items, {});
  const std::vector<std::size_t> order = seeded_order(items, args.seed);
  const std::vector<int> cpus = allowed_cpus();
  const auto start = Clock::now();
  std::size_t rounds = 0;
  do {
    if (!cpus.empty()) move_to(cpus[rounds % cpus.size()]);
    for (const std::size_t item : order) {
      ++run.attempted;
      const auto t0 = Clock::now();
      try {
        run.samples += static_cast<double>(op(item));
        const double s = seconds_since(t0);
        run.op_s[item].push_back(s);
        run.op_total_s += s;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[perfbench] operation failed: %s\n", e.what());
        ++run.failed;
      }
    }
    ++rounds;
    const double done = seconds_since(start) / args.seconds;
    if (run.setup_s.size() < kSetups &&
        done * static_cast<double>(kSetups) >=
            static_cast<double>(run.setup_s.size())) {
      timed_setup();
    }
  } while (seconds_since(start) < args.seconds ||
           run.setup_s.size() < kSetups);
  std::fprintf(stderr,
               "[perfbench] %zu rounds of %zu items: p%.0f %.4g ms, median "
               "%.4g ms; set-up median %.4g s of %zu\n",
               rounds, items, 100 * kOpQuantile,
               1e3 * mean_item_quantile(run, kOpQuantile),
               1e3 * mean_item_quantile(run, 0.5), median(run.setup_s),
               run.setup_s.size());
}

/// Path of the paper trace in the benchmark's trace cache, simulated (once
/// per checkout and untimed; run.py does it right after the build) if it is
/// not there yet. The file name carries the config fingerprint and format
/// version, and writes are atomic, so an existing file is the current,
/// complete trace.
std::string paper_cache() {
  std::filesystem::create_directories(kWorkDir);
  const std::string path = sim::cache_path(paper_config(), kWorkDir.string());
  if (!std::filesystem::exists(path)) {
    std::fprintf(stderr, "[perfbench] simulating the paper trace once...\n");
    sim::save_trace(sim::simulate(paper_config()), paper_config(), path);
  }
  return path;
}

void record_sizes(Run& run, const sim::Trace& trace, std::size_t train_rows,
                  std::size_t test_rows) {
  run.counts["trace_samples"] = static_cast<double>(trace.samples.size());
  run.counts["train_rows"] = static_cast<double>(train_rows);
  run.counts["test_rows"] = static_cast<double>(test_rows);
}

void train_window(const Args& args, Run& run) {
  const std::string path = paper_cache();
  const std::vector<Split> splits = retrain_splits();
  std::unique_ptr<sim::Trace> trace;
  std::vector<std::vector<std::size_t>> test_idx;
  std::vector<Expected> expected;
  std::vector<std::size_t> train_rows(splits.size(), 0);
  measure(
      args, run,
      [&] {
        trace.reset();
        trace = std::make_unique<sim::Trace>(load(paper_config(), path));
      },
      [&] {
        for (const Split& split : splits) {
          test_idx.push_back(core::samples_in(*trace, split.test));
          expected.emplace_back(*trace, split, test_idx.back());
        }
        return splits.size();
      },
      [&](std::size_t i) {
        const TrainedModel m = train(*trace, splits[i].train);
        const std::vector<float> proba = score(m, *trace, test_idx[i]);
        expected[i].check(proba, evaluate(*trace, test_idx[i], proba));
        train_rows[i] = m.train_rows;
        return m.train_rows + test_idx[i].size();
      });
  std::size_t rows = 0, tests = 0;
  for (std::size_t i = 0; i < splits.size(); ++i) {
    rows += train_rows[i];
    tests += test_idx[i].size();
    run.quality.f1 += expected[i].quality().f1 / splits.size();
    run.quality.auc += expected[i].quality().auc / splits.size();
  }
  record_sizes(run, *trace, rows, tests);
}

void score_hourly(const Args& args, Run& run) {
  const std::string path = paper_cache();
  const Split split = scoring_split();
  std::unique_ptr<sim::Trace> trace;
  std::unique_ptr<TrainedModel> model;
  // Test-window samples grouped by the hour their run ended in; the scores
  // of the whole window, sliced the same way, are each hour's expected
  // output.
  std::vector<std::vector<std::size_t>> hours;
  std::vector<std::vector<float>> hour_scores;
  std::optional<Expected> expected;
  measure(
      args, run,
      [&] {
        model.reset();
        trace.reset();
        trace = std::make_unique<sim::Trace>(load(paper_config(), path));
        model = std::make_unique<TrainedModel>(train(*trace, split.train));
      },
      [&] {
        const std::vector<std::size_t> test_idx =
            core::samples_in(*trace, split.test);
        expected.emplace(*trace, split, test_idx);
        const std::vector<float> proba = score(*model, *trace, test_idx);
        expected->check(proba, evaluate(*trace, test_idx, proba));
        Minute hour = -1;
        for (std::size_t k = 0; k < test_idx.size(); ++k) {
          const Minute h = trace->samples[test_idx[k]].end / kMinutesPerHour;
          if (h != hour) {
            hour = h;
            hours.emplace_back();
            hour_scores.emplace_back();
          }
          hours.back().push_back(test_idx[k]);
          hour_scores.back().push_back(proba[k]);
        }
        record_sizes(run, *trace, model->train_rows, test_idx.size());
        return hours.size();
      },
      [&](std::size_t h) {
        const std::vector<float> proba = score(*model, *trace, hours[h]);
        REPRO_CHECK_MSG(proba == hour_scores[h],
                        "hourly scores differ from whole-window scores");
        return hours[h].size();
      });
  run.quality = expected->quality();
}

// ---------------------------------------------------------------------------
// Output.

class MetricsJson {
 public:
  void add(const std::string& name, double value, const char* unit) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name.c_str(), value, unit);
    body_ += buf;
  }
  [[nodiscard]] const std::string& body() const { return body_; }

 private:
  std::string body_;
};

void print_result(const Args& args, const Run& run) {
  MetricsJson m;
  if (!args.trace) {
    m.add("op_ms", 1e3 * mean_item_quantile(run, kOpQuantile), "ms");
    m.add("auc", run.quality.auc, "ratio");
    m.add("setup_s", median(run.setup_s), "s");
  } else {
    m.add("op_median_ms", 1e3 * mean_item_quantile(run, 0.5), "ms");
    for (const char* layer : kLayers) {
      const auto it = g_layers.seconds.find(layer);
      const std::vector<double> calls =
          it == g_layers.seconds.end() ? std::vector<double>{} : it->second;
      m.add(std::string(layer) + "_ms", 1e3 * median(calls), "ms");
      m.add(std::string(layer) + "_calls", static_cast<double>(calls.size()),
            "count");
    }
    for (const auto& [name, value] : run.counts) m.add(name, value, "count");
    m.add("samples_per_s",
          run.op_total_s > 0.0 ? run.samples / run.op_total_s : 0.0, "1/s");
    m.add("f1", run.quality.f1, "ratio");
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}}\n",
      run.failed == 0 ? "true" : "false", run.attempted, run.failed,
      m.body().c_str());
}

bool parse_args(int argc, char** argv, Args& args) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--prepare") == 0) {
    try {
      paper_cache();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[perfbench] prepare: %s\n", e.what());
      return 1;
    }
    return 0;
  }
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --prepare\n"
                 "       %s --workload train_window|score_hourly "
                 "--seed N --seconds S --trace 0|1\n",
                 argv[0], argv[0]);
    return 2;
  }
  void (*workload)(const Args&, Run&) = nullptr;
  if (args.workload == "train_window") workload = train_window;
  if (args.workload == "score_hourly") workload = score_hourly;
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  g_layers.on = args.trace;
  Run run;
  try {
    workload(args, run);
    if (args.trace) {
      // Both workloads read a cached trace. So that every layer has a figure
      // in every traced run, time one cold-cache round trip of a small
      // machine as well: simulate, save, load.
      const sim::SimConfig config = cold_config();
      const std::string path = (kWorkDir / "layer_probe.trace").string();
      const sim::Trace simulated = simulate_and_save(config, path);
      check_same_trace(load(config, path), simulated);
      std::filesystem::remove(path);
    }
  } catch (const std::exception& e) {
    // A failed set-up or check leaves no trustworthy result to print.
    std::fprintf(stderr, "[perfbench] %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  print_result(args, run);
  return 0;
}
