// Quickstart: simulate a small GPU cluster trace, train the paper's
// TwoStage+GBDT predictor on the first weeks, evaluate it on the rest, and
// account what its ECC advice saves (the paper's motivating use, Sec. I,
// VIII).
//
//   ./quickstart [days] [seed]
#include <cstdio>
#include <cstdlib>

#include "core/baselines.hpp"
#include "core/ecc_advisor.hpp"
#include "core/two_stage.hpp"
#include "sim/simulator.hpp"

int main(int argc, char** argv) {
  using namespace repro;
  const std::int64_t days = argc > 1 ? std::atoll(argv[1]) : 45;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  // 1. Simulate a scaled-down Titan: 8x4 cabinet grid, 512 GPUs.
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
              run.stage2_size, run.fit_seconds);

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

  // 5. ECC advice: ECC costs ~10% of GPU performance, so turn it off for
  //    runs predicted clean and keep it on elsewhere; a missed SBE with ECC
  //    off pays a re-execution. Compare against the two trivial policies.
  const core::EccReport report = core::advise_ecc(trace, idx, run.pred);
  std::size_t ecc_off = 0;
  for (const auto& d : report.decisions) ecc_off += d.ecc_on ? 0 : 1;
  std::printf("\nECC advice: off for %zu of %zu run-node decisions\n", ecc_off,
              report.decisions.size());
  std::printf("  always-on ECC overhead : %8.1f GPU core-hours\n",
              report.baseline_overhead_hours);
  std::printf("  overhead still spent   : %8.1f (ECC kept on where SBE predicted)\n",
              report.spent_overhead_hours);
  std::printf("  re-execution paid      : %8.1f (%zu missed SBE run-nodes)\n",
              report.reexecution_hours, report.missed_sbe_runs);
  const std::vector<ml::Label> always_on(idx.size(), 1);
  const std::vector<ml::Label> always_off(idx.size(), 0);
  std::printf("net core-hours saved: always on %.1f | always off %.1f | "
              "predictor %.1f (%.0f%% of the ECC bill)\n",
              core::advise_ecc(trace, idx, always_on).net_savings_hours(),
              core::advise_ecc(trace, idx, always_off).net_savings_hours(),
              report.net_savings_hours(), 100.0 * report.savings_ratio());
  return 0;
}
