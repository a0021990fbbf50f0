// Time-series forecasting of telemetry features (paper Sec. VI-A second
// approach + Sec. VIII).
//
// Some stage-2 inputs — the GPU temperature/power statistics DURING the
// run — are not knowable before the application executes. The paper's
// first approach evaluates at run end (possibly triggering re-execution);
// the second approach forecasts those features from recent telemetry with
// time-series models (they cite ARMA/ARIMA and neural approaches, e.g.
// PRACTISE [16]) and reports "similar results".
//
// This module implements that second approach:
//  - Ar2Forecaster: a least-squares AR(2) model with drift fitted to the
//    last observed window, extrapolated over the run horizon;
//  - forecast_run_stats(): turns a pre-run window + horizon into the same
//    FourStats summary the real run would produce, so the forecast slots
//    straight into the feature extractor (features::FeatureSpec::
//    forecast_current_run flips the TwoStage pipeline to approach 2).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "telemetry/series.hpp"

namespace repro::forecast {

/// AR(2)-with-drift model: x[t] = c + a1*x[t-1] + a2*x[t-2] + eps.
/// Fitted with ordinary least squares over one observed window.
class Ar2Forecaster {
 public:
  /// Fits to the window (oldest first). Requires >= 3 samples; with fewer
  /// the model falls back to persistence (last value carried forward).
  void fit(std::span<const float> window);

  /// Forecasts the next `horizon` steps after the fitted window.
  [[nodiscard]] std::vector<float> forecast(std::size_t horizon) const;

  [[nodiscard]] bool fitted() const noexcept { return fitted_; }
  [[nodiscard]] double c() const noexcept { return c_; }
  [[nodiscard]] double a1() const noexcept { return a1_; }
  [[nodiscard]] double a2() const noexcept { return a2_; }
  /// Residual standard deviation of the fit (innovation scale).
  [[nodiscard]] double sigma() const noexcept { return sigma_; }

 private:
  bool fitted_ = false;
  float window_min_ = 0.0f;
  float window_max_ = 0.0f;
  double c_ = 0.0;
  double a1_ = 1.0;  // persistence fallback
  double a2_ = 0.0;
  double sigma_ = 0.0;
  float last_ = 0.0f;
  float prev_ = 0.0f;
};

/// Forecasts the paper's four-stat summary (mean/std/diff-mean/diff-std)
/// of a channel over a run of `horizon_minutes`, given the `history`
/// window observed just before the run starts (oldest first).
///
/// The value mean/std come from the AR(2) trajectory; the diff stats
/// combine the trajectory's drift with the innovation scale (an AR point
/// forecast is smooth, so using its raw diffs would underestimate the
/// consecutive-sample variability the real series has).
telemetry::FourStats forecast_run_stats(std::span<const float> history,
                                        std::size_t horizon_minutes);

}  // namespace repro::forecast
