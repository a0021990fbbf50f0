// Table III: mean training time of the four stage-2 models on the DS1
// training set, measured with google-benchmark. The paper's ordering is
// LR << GBDT < NN << SVM (4.8 s / 40.5 s / 20 min / 1.04 h on their Xeon);
// we reproduce the ordering, not the absolute wall-clock.
//
// Emits BENCH_table3.json with the fit time of every model that ran plus
// GBDT eval metrics on the DS1 test window, so the trainer's perf
// trajectory is tracked run-over-run (see bench/artifacts/).
#include <benchmark/benchmark.h>

#include <map>

#include "common/parallel.hpp"
#include "support/bench_common.hpp"

namespace {

using namespace repro;

// Pre-PR reference: the frontier-copying GBDT engine (PR 1) took this long
// to fit the DS1 stage-2 set at REPRO_THREADS=1 on the CI container.
// Kept in the JSON artifact so the speedup of the histogram-subtraction
// engine stays visible without digging through git history.
constexpr double kGbdtFitSecondsPr1Baseline = 10.73;

std::map<std::string, double>& recorded() {
  static std::map<std::string, double> values;
  return values;
}

void fit_model(benchmark::State& state, ml::ModelKind kind) {
  const sim::Trace& trace = bench::paper_trace();
  const core::SplitSpec ds1 = bench::paper_splits()[0];
  for (auto _ : state) {
    const core::TwoStageConfig config{.model = kind};
    double fit_seconds = 0.0;
    std::size_t stage2_samples = 0;
    if (kind == ml::ModelKind::kGbdt) {
      // The paper's model is also evaluated on the DS1 test window, and its
      // audit gauges land in the artifact as obs.audit.* keys.
      const core::TwoStageRun run =
          core::run_two_stage(trace, config, ds1.train, ds1.test);
      core::publish(run);
      fit_seconds = run.train_seconds;
      stage2_samples = run.stage2_size;
      recorded()["GBDT.f1"] = run.metrics.positive.f1;
      recorded()["GBDT.precision"] = run.metrics.positive.precision;
      recorded()["GBDT.recall"] = run.metrics.positive.recall;
    } else {
      core::TwoStagePredictor predictor(config);
      predictor.train(trace, ds1.train);
      fit_seconds = predictor.train_seconds();
      stage2_samples = predictor.stage2_training_size();
    }
    benchmark::DoNotOptimize(stage2_samples);
    state.counters["stage2_samples"] = static_cast<double>(stage2_samples);
    state.counters["fit_seconds"] = fit_seconds;
    // Thread count the deterministic parallel layer ran with (REPRO_THREADS
    // or hardware concurrency); results are identical across values.
    state.counters["threads"] = static_cast<double>(parallel_threads());

    const std::string key(ml::to_string(kind));
    recorded()[key + ".fit_seconds"] = fit_seconds;
    recorded()[key + ".stage2_samples"] = static_cast<double>(stage2_samples);
  }
}

void BM_TrainLR(benchmark::State& s) { fit_model(s, ml::ModelKind::kLogisticRegression); }
void BM_TrainGBDT(benchmark::State& s) { fit_model(s, ml::ModelKind::kGbdt); }
void BM_TrainNN(benchmark::State& s) { fit_model(s, ml::ModelKind::kNeuralNetwork); }
void BM_TrainSVM(benchmark::State& s) { fit_model(s, ml::ModelKind::kSvm); }

BENCHMARK(BM_TrainLR)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_TrainGBDT)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_TrainNN)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_TrainSVM)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Table III", "Mean training time for the four models (DS1)",
                "ordering LR << GBDT < NN << SVM (paper: 4.8 s, 40.5 s, "
                "20 min, 1.04 h)");
  repro::bench::BenchJson json("table3");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  json.set("GBDT.fit_seconds_pr1_baseline", kGbdtFitSecondsPr1Baseline);
  for (const auto& [key, value] : recorded()) json.set(key, value);
  if (recorded().count("GBDT.fit_seconds") != 0) {
    json.set("GBDT.speedup_vs_pr1",
             kGbdtFitSecondsPr1Baseline / recorded()["GBDT.fit_seconds"]);
  }
  json.write();
  return 0;
}
