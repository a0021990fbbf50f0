#include "core/retraining.hpp"

#include "obs/obs.hpp"

namespace repro::core {

std::vector<TwoStageRun> run_retraining(const sim::Trace& trace,
                                        const RetrainingConfig& config) {
  REPRO_CHECK(config.train_days > 0 && config.period_days > 0);
  REPRO_CHECK(config.warmup_days >= config.train_days);
  std::vector<TwoStageRun> out;
  const std::int64_t total_days = trace.duration / kMinutesPerDay;

  for (std::int64_t at = config.warmup_days;
       at + config.period_days <= total_days; at += config.period_days) {
    OBS_SPAN("retraining.period");
    OBS_COUNT("retraining.periods");
    out.push_back(run_two_stage(
        trace, config.predictor,
        {day_start(at - config.train_days), day_start(at)},
        {day_start(at), day_start(at + config.period_days)}));
    publish(out.back());
  }
  return out;
}

}  // namespace repro::core
