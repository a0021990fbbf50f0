// ECC advisor: the paper's motivating application (Sec. I, VIII). ECC
// protection costs ~10% of GPU performance; a good SBE predictor lets the
// facility turn ECC off for runs predicted clean and keep it on elsewhere.
// This example trains TwoStage+GBDT and accounts the GPU core-hours saved
// against re-execution paid for missed SBEs.
#include <cstdio>

#include "core/ecc_advisor.hpp"
#include "core/two_stage.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace repro;
  sim::SimConfig config;
  config.system = {.grid_x = 10, .grid_y = 4, .cages_per_cabinet = 1,
                   .slots_per_cage = 4, .nodes_per_slot = 4};
  config.days = 60;
  config.seed = 17;
  config.faults.base_rate_per_min = 2.5e-4;
  std::printf("simulating 60 days on %d GPUs...\n",
              config.system.total_nodes());
  const sim::Trace trace = sim::simulate(config);

  const Interval train{0, day_start(46)};
  const Interval test{train.end, day_start(60)};
  const core::TwoStageRun run = core::run_two_stage(trace, {}, train, test);
  const std::vector<std::size_t>& idx = run.idx;

  const core::EccPolicy policy{.ecc_overhead = 0.10, .reexecution_cost = 1.0};
  const core::EccReport report =
      core::advise_ecc(trace, idx, run.pred, policy);

  std::size_t ecc_off = 0;
  for (const auto& d : report.decisions) ecc_off += d.ecc_on ? 0 : 1;
  std::printf("\ntest window: %zu run-node decisions, ECC off for %zu (%.0f%%)\n",
              report.decisions.size(), ecc_off,
              100.0 * static_cast<double>(ecc_off) /
                  static_cast<double>(report.decisions.size()));
  std::printf("always-on ECC overhead : %10.1f GPU core-hours\n",
              report.baseline_overhead_hours);
  std::printf("overhead still spent   : %10.1f (ECC kept on where SBE predicted)\n",
              report.spent_overhead_hours);
  std::printf("re-execution paid      : %10.1f (%zu missed SBE run-nodes)\n",
              report.reexecution_hours, report.missed_sbe_runs);
  std::printf("net savings            : %10.1f core-hours (%.0f%% of the ECC bill)\n",
              report.net_savings_hours(), 100.0 * report.savings_ratio());

  // Compare against the two trivial policies.
  const std::vector<ml::Label> always_on(idx.size(), 1);
  const std::vector<ml::Label> always_off(idx.size(), 0);
  std::printf("\npolicy comparison (net core-hours saved):\n");
  std::printf("  always ECC on : %10.1f\n",
              core::advise_ecc(trace, idx, always_on, policy).net_savings_hours());
  std::printf("  always ECC off: %10.1f (pays re-execution for every SBE)\n",
              core::advise_ecc(trace, idx, always_off, policy).net_savings_hours());
  std::printf("  predictor     : %10.1f\n", report.net_savings_hours());
  return 0;
}
