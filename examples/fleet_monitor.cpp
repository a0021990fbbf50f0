// Fleet monitor: the deployment loop of Sec. VI-A — retrain the TwoStage
// model every two weeks on a sliding window and track prediction quality,
// offender-set growth and training cost over the life of the machine.
#include <cstdio>

#include "common/table.hpp"
#include "core/retraining.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace repro;
  // Live pipeline counters (stage-1 survivor rates, per-phase seconds)
  // come from the obs layer; REPRO_TRACE=<path> additionally dumps a
  // chrome://tracing timeline of the whole run.
  obs::set_enabled(true);
  sim::SimConfig config;
  config.system = {.grid_x = 10, .grid_y = 4, .cages_per_cabinet = 1,
                   .slots_per_cage = 4, .nodes_per_slot = 4};
  config.days = 120;
  config.seed = 29;
  config.faults.base_rate_per_min = 2.5e-4;
  config.faults.drift_day = 85;  // the machine changes mid-life
  std::printf("simulating %lld days on %d GPUs (drift at day 85)...\n",
              static_cast<long long>(config.days), config.system.total_nodes());
  const sim::Trace trace = sim::simulate(config);

  core::RetrainingConfig retrain;
  retrain.train_days = 42;
  retrain.period_days = 14;
  retrain.warmup_days = 42;
  const auto periods = core::run_retraining(trace, retrain);

  TextTable t({"test days", "F1", "precision", "recall", "offender nodes",
               "test samples", "fit s"});
  for (const auto& p : periods) {
    t.add_row(std::to_string(day_of(p.test.begin)) + "-" +
                  std::to_string(day_of(p.test.end)),
              {p.metrics.positive.f1, p.metrics.positive.precision,
               p.metrics.positive.recall,
               static_cast<double>(p.offender_nodes),
               static_cast<double>(p.idx.size()), p.train_seconds});
  }
  std::printf("\n%s\n", t.render().c_str());

  // Drift & calibration panel (DESIGN.md §8): per-period model quality from
  // the audit layer — is the probability forecast still calibrated, and
  // which feature moved the most between the training window and the period
  // it was asked to score?
  TextTable audit_table({"test days", "Brier", "AUC", "ECE", "PSI max",
                         "KS max", "drifted feats"});
  const core::TwoStageRun* worst = nullptr;
  for (const auto& p : periods) {
    if (!p.quality.valid) continue;
    audit_table.add_row(std::to_string(day_of(p.test.begin)) + "-" +
                            std::to_string(day_of(p.test.end)),
                        {p.quality.brier, p.quality.auc, p.quality.ece,
                         p.drift.valid ? p.drift.psi_max : 0.0,
                         p.drift.valid ? p.drift.ks_max : 0.0,
                         p.drift.valid
                             ? static_cast<double>(p.drift.psi_drifted)
                             : 0.0},
                        3);
    if (p.drift.valid &&
        (worst == nullptr || p.drift.psi_drifted > worst->drift.psi_drifted)) {
      worst = &p;
    }
  }
  std::printf("drift & calibration (audit layer, DESIGN.md §8):\n%s\n",
              audit_table.render().c_str());
  if (worst != nullptr) {
    std::printf("widest drift: test days %lld-%lld — %zu features past"
                " PSI %.2f; PSI %.3f on '%s', KS %.3f on '%s'\n",
                static_cast<long long>(day_of(worst->test.begin)),
                static_cast<long long>(day_of(worst->test.end)),
                worst->drift.psi_drifted, audit::DriftDetector::kMajorShiftPsi,
                worst->drift.psi_max, worst->drift.psi_argmax_name.c_str(),
                worst->drift.ks_max, worst->drift.ks_argmax_name.c_str());
    std::printf("History features drift by construction (their support grows\n"
                "with the trace), so a steady baseline count is normal. The\n"
                "day-85 event is concept drift — node susceptibility is\n"
                "resampled, not the feature marginals — so it shows up in the\n"
                "calibration columns (watch AUC dip on the 84-98 row), which\n"
                "is why the audit layer tracks both.\n");
  }
  std::printf("Every row is one retraining period: the model is refit on the\n"
              "previous %lld days and evaluated on the following %lld days.\n"
              "Watch the F1 dip right after the day-85 drift, then recover as\n"
              "retraining folds the new offenders into stage 1.\n",
              static_cast<long long>(retrain.train_days),
              static_cast<long long>(retrain.period_days));

  // Pipeline observability: what the run actually did, from the obs layer.
  const auto obs_value = [](const char* key) -> double {
    for (const auto& m : obs::snapshot()) {
      if (m.key == key) return m.integral ? static_cast<double>(m.count)
                                          : m.value;
    }
    return 0.0;
  };
  const double train_seen = obs_value("two_stage.train_samples_seen");
  const double train_kept = obs_value("two_stage.train_stage1_survivors");
  const double pred_seen = obs_value("two_stage.predict_samples_seen");
  const double pred_kept = obs_value("two_stage.predict_stage1_survivors");
  std::printf("\npipeline counters (all %zu retraining periods):\n",
              periods.size());
  std::printf("  stage-1 survivor rate: train %.1f%% (%.0f of %.0f),"
              " predict %.1f%% (%.0f of %.0f)\n",
              train_seen > 0 ? 100.0 * train_kept / train_seen : 0.0,
              train_kept, train_seen,
              pred_seen > 0 ? 100.0 * pred_kept / pred_seen : 0.0,
              pred_kept, pred_seen);
  std::printf("  phase seconds: simulate %.2f, featurize %.2f,"
              " stage-2 fit %.2f, predict %.2f\n",
              obs_value("sim.simulate_seconds"),
              obs_value("two_stage.featurize_seconds"),
              obs_value("two_stage.stage2_fit_seconds"),
              obs_value("two_stage.predict_seconds"));
  if (obs::write_trace_if_requested()) {
    std::printf("  trace written to %s (open in chrome://tracing or"
                " ui.perfetto.dev)\n", obs::trace_request_path().c_str());
  }
  return 0;
}
