// Quickstart: simulate a small GPU cluster trace, train the paper's
// TwoStage+GBDT predictor on the first weeks, and evaluate it on the rest.
//
//   ./quickstart [days] [seed]
#include <cstdio>
#include <cstdlib>

#include "core/baselines.hpp"
#include "core/two_stage.hpp"
#include "sim/simulator.hpp"

int main(int argc, char** argv) {
  using namespace repro;
  const std::int64_t days = argc > 1 ? std::atoll(argv[1]) : 45;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  // 1. Simulate a scaled-down Titan: 8x4 cabinet grid, 256 GPUs.
  sim::SimConfig config;
  config.system = {.grid_x = 8, .grid_y = 4, .cages_per_cabinet = 1,
                   .slots_per_cage = 4, .nodes_per_slot = 4};
  config.days = days;
  config.seed = seed;
  config.faults.base_rate_per_min = 2.5e-4;  // denser faults on a small fleet
  std::printf("simulating %lld days on %d GPUs (seed %llu)...\n",
              static_cast<long long>(days), config.system.total_nodes(),
              static_cast<unsigned long long>(seed));
  const sim::Trace trace = sim::simulate(config);
  std::printf("  %zu <aprun, node> samples, %.2f%% SBE-affected\n",
              trace.samples.size(), 100.0 * trace.positive_rate());

  // 2. Train TwoStage (stage 1: offender-node filter; stage 2: GBDT) and
  //    score the held-out weeks.
  const Interval train{0, day_start(days * 3 / 4)};
  const Interval test{train.end, day_start(days)};
  const core::TwoStageRun run = core::run_two_stage(trace, {}, train, test);
  std::printf("trained GBDT on %zu offender-node samples in %.2f s\n",
              run.stage2_size, run.train_seconds);

  // 3. Evaluate on the held-out weeks, next to the Basic A baseline.
  const ml::ClassMetrics& metrics = run.metrics;
  core::BasicScheme basic_a(core::BasicKind::kBasicA);
  basic_a.train(trace, train);
  const std::vector<std::size_t>& idx = run.idx;
  const auto base =
      core::evaluate_predictions(trace, idx, basic_a.predict(trace, idx));
  std::printf("\n            precision  recall  F1\n");
  std::printf("Basic A     %.2f       %.2f    %.2f\n", base.positive.precision,
              base.positive.recall, base.positive.f1);
  std::printf("TwoStage    %.2f       %.2f    %.2f\n",
              metrics.positive.precision, metrics.positive.recall,
              metrics.positive.f1);

  // 4. Score a few upcoming runs the way a scheduler hook would.
  const std::vector<float>& proba = run.proba;
  std::printf("\nfirst test-window samples (P(SBE) / truth):\n");
  for (std::size_t k = 0; k < idx.size() && k < 8; ++k) {
    const auto& s = trace.samples[idx[k]];
    std::printf("  run %-5lld app %-8s node %-4d  P=%.3f  %s\n",
                static_cast<long long>(s.run),
                trace.catalog.spec(s.app).name.c_str(), s.node, proba[k],
                s.sbe_affected() ? "SBE" : "clean");
  }
  return 0;
}
