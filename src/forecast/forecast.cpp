#include "forecast/forecast.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace repro::forecast {

void Ar2Forecaster::fit(std::span<const float> window) {
  fitted_ = true;
  if (window.empty()) {
    c_ = 0.0;
    a1_ = a2_ = 0.0;
    sigma_ = 0.0;
    last_ = prev_ = 0.0f;
    return;
  }
  last_ = window.back();
  prev_ = window.size() >= 2 ? window[window.size() - 2] : window.back();
  window_min_ = *std::min_element(window.begin(), window.end());
  window_max_ = *std::max_element(window.begin(), window.end());
  if (window.size() < 6) {
    // Too short for a stable regression: persistence.
    c_ = 0.0;
    a1_ = 1.0;
    a2_ = 0.0;
    sigma_ = 0.0;
    return;
  }

  // OLS for x[t] = c + a1 x[t-1] + a2 x[t-2] via the 3x3 normal equations.
  double s1 = 0.0, s2 = 0.0, sy = 0.0;
  double s11 = 0.0, s22 = 0.0, s12 = 0.0, s1y = 0.0, s2y = 0.0;
  const std::size_t n = window.size() - 2;
  for (std::size_t t = 2; t < window.size(); ++t) {
    const double x1 = window[t - 1];
    const double x2 = window[t - 2];
    const double y = window[t];
    s1 += x1;
    s2 += x2;
    sy += y;
    s11 += x1 * x1;
    s22 += x2 * x2;
    s12 += x1 * x2;
    s1y += x1 * y;
    s2y += x2 * y;
  }
  const double dn = static_cast<double>(n);
  // Solve [n s1 s2; s1 s11 s12; s2 s12 s22] [c a1 a2]' = [sy s1y s2y]'.
  const double m00 = dn, m01 = s1, m02 = s2;
  const double m11 = s11, m12 = s12, m22 = s22;
  const double det = m00 * (m11 * m22 - m12 * m12) -
                     m01 * (m01 * m22 - m12 * m02) +
                     m02 * (m01 * m12 - m11 * m02);
  if (std::abs(det) < 1e-9) {
    c_ = 0.0;
    a1_ = 1.0;
    a2_ = 0.0;
  } else {
    // Cramer's rule.
    const double dc = sy * (m11 * m22 - m12 * m12) -
                      m01 * (s1y * m22 - m12 * s2y) +
                      m02 * (s1y * m12 - m11 * s2y);
    const double da1 = m00 * (s1y * m22 - s2y * m12) -
                       sy * (m01 * m22 - m12 * m02) +
                       m02 * (m01 * s2y - s1y * m02);
    const double da2 = m00 * (m11 * s2y - s1y * m12) -
                       m01 * (m01 * s2y - s1y * m02) +
                       sy * (m01 * m12 - m11 * m02);
    c_ = dc / det;
    a1_ = da1 / det;
    a2_ = da2 / det;
    // The fit must be (near-)stationary or long-horizon forecasts explode:
    // the AR(2) stationarity triangle is |a2| < 1, a2 + a1 < 1, a2 - a1 < 1.
    const double margin = 0.999;
    if (!(std::abs(a2_) < margin && a2_ + a1_ < margin &&
          a2_ - a1_ < margin)) {
      c_ = 0.0;
      a1_ = 1.0;  // persistence fallback
      a2_ = 0.0;
    }
  }
  double ss = 0.0;
  for (std::size_t t = 2; t < window.size(); ++t) {
    const double pred = c_ + a1_ * window[t - 1] + a2_ * window[t - 2];
    const double e = window[t] - pred;
    ss += e * e;
  }
  sigma_ = std::sqrt(ss / dn);
}

std::vector<float> Ar2Forecaster::forecast(std::size_t horizon) const {
  REPRO_CHECK_MSG(fitted_, "forecast before fit");
  std::vector<float> out;
  out.reserve(horizon);
  // Keep the trajectory inside an envelope around the observed window:
  // telemetry is physically bounded, and a forecast that leaves the
  // vicinity of everything it has seen is extrapolation noise.
  const double span = std::max(1.0, static_cast<double>(window_max_) - window_min_);
  const double lo = window_min_ - span;
  const double hi = window_max_ + span;
  double x1 = last_, x2 = prev_;
  for (std::size_t h = 0; h < horizon; ++h) {
    const double next = std::clamp(c_ + a1_ * x1 + a2_ * x2, lo, hi);
    out.push_back(static_cast<float>(next));
    x2 = x1;
    x1 = next;
  }
  return out;
}

telemetry::FourStats forecast_run_stats(std::span<const float> history,
                                        std::size_t horizon_minutes) {
  telemetry::FourStats out;
  if (horizon_minutes == 0) return out;
  if (history.empty()) return out;

  Ar2Forecaster model;
  model.fit(history);
  const std::vector<float> path = model.forecast(horizon_minutes);

  telemetry::WindowAccumulator acc;
  for (const float v : path) acc.add(v);
  const telemetry::FourStats smooth = acc.stats();

  out.mean = smooth.mean;
  // The point forecast is smooth; real series carry the innovation noise
  // on top, so the value/diff spreads combine both components.
  const double sig = model.sigma();
  out.std = static_cast<float>(
      std::sqrt(static_cast<double>(smooth.std) * smooth.std + sig * sig));
  out.diff_mean = smooth.diff_mean;
  out.diff_std = static_cast<float>(std::sqrt(
      static_cast<double>(smooth.diff_std) * smooth.diff_std + 2.0 * sig * sig));
  return out;
}

}  // namespace repro::forecast
