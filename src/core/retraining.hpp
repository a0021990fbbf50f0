// Periodic-retraining driver (Sec. VI-A: "model construction is relatively
// less frequent, i.e., once every two weeks"). Slides a training window
// over the trace, retrains TwoStage at each period boundary, and evaluates
// the fresh model on the following period — the deployment loop a facility
// like Titan would actually run.
#pragma once

#include <cstdint>
#include <vector>

#include "core/two_stage.hpp"

namespace repro::core {

struct RetrainingConfig {
  TwoStageConfig predictor{};
  std::int64_t train_days = 45;    ///< look-back window for each retrain
  std::int64_t period_days = 14;   ///< retrain cadence == evaluation horizon
  std::int64_t warmup_days = 45;   ///< first retrain happens after warmup
};

/// Runs the full loop over the trace; one run_two_stage per evaluation
/// period, in period order. Each period is published as it finishes, so
/// the last period's audit values remain on the audit.* gauges.
std::vector<TwoStageRun> run_retraining(const sim::Trace& trace,
                                        const RetrainingConfig& config);

}  // namespace repro::core
