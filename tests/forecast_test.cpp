#include "forecast/forecast.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace repro::forecast {
namespace {

std::vector<float> make_series(std::size_t n, double c, double a1, double a2,
                               double noise, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> xs = {30.0f, 30.5f};
  for (std::size_t t = 2; t < n; ++t) {
    const double next =
        c + a1 * xs[t - 1] + a2 * xs[t - 2] + noise * rng.normal();
    xs.push_back(static_cast<float>(next));
  }
  return xs;
}

TEST(Ar2Forecaster, RecoversGeneratingCoefficients) {
  const auto xs = make_series(600, 4.0, 0.6, 0.3, 0.2, 1);
  Ar2Forecaster model;
  model.fit(xs);
  EXPECT_NEAR(model.a1(), 0.6, 0.12);
  EXPECT_NEAR(model.a2(), 0.3, 0.12);
  EXPECT_NEAR(model.sigma(), 0.2, 0.06);
}

TEST(Ar2Forecaster, ConstantSeriesForecastsConstant) {
  const std::vector<float> xs(64, 42.0f);
  Ar2Forecaster model;
  model.fit(xs);
  for (const float v : model.forecast(10)) EXPECT_NEAR(v, 42.0f, 1e-3);
  EXPECT_NEAR(model.sigma(), 0.0, 1e-6);
}

TEST(Ar2Forecaster, NoisyTrendIsExtrapolated) {
  // A perfectly linear ramp makes the AR(2) regressors collinear (both
  // x[t]=x[t-1]+c and x[t]=2x[t-1]-x[t-2] fit exactly), so use a noisy
  // ramp as real telemetry would be.
  std::vector<float> xs;
  Rng rng(2);
  for (int t = 0; t < 128; ++t) {
    xs.push_back(static_cast<float>(10.0 + 0.5 * t + 0.3 * rng.normal()));
  }
  Ar2Forecaster model;
  model.fit(xs);
  const auto path = model.forecast(8);
  // A trend is a near-unit-root process; the stationarity guard may fall
  // back to persistence, so require at least level-holding behaviour.
  EXPECT_NEAR(path[0], xs.back(), 3.0);
  EXPECT_NEAR(path[7], xs.back(), 8.0);
}

TEST(Ar2Forecaster, ShortWindowFallsBackToPersistence) {
  const std::vector<float> xs = {5.0f, 7.0f};
  Ar2Forecaster model;
  model.fit(xs);
  for (const float v : model.forecast(5)) EXPECT_FLOAT_EQ(v, 7.0f);
}

TEST(Ar2Forecaster, EmptyWindowForecastsZero) {
  Ar2Forecaster model;
  model.fit({});
  for (const float v : model.forecast(3)) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Ar2Forecaster, ForecastBeforeFitThrows) {
  const Ar2Forecaster model;
  EXPECT_THROW(model.forecast(1), CheckError);
}

TEST(Ar2Forecaster, UnstableFitDegradesToPersistence) {
  // Alternating series can fit explosive coefficients; the guard should
  // keep forecasts bounded.
  std::vector<float> xs;
  Rng rng(3);
  for (int t = 0; t < 64; ++t) {
    xs.push_back(static_cast<float>(40.0 + 30.0 * ((t % 2) * 2 - 1) +
                                    rng.normal()));
  }
  Ar2Forecaster model;
  model.fit(xs);
  for (const float v : model.forecast(30)) {
    EXPECT_LT(std::abs(v), 500.0f);
  }
}

TEST(ForecastRunStats, MeanTracksStationarySeries) {
  const auto xs = make_series(64, 12.0, 0.4, 0.3, 0.4, 5);  // mean = 40
  const auto stats = forecast_run_stats(xs, 120);
  EXPECT_NEAR(stats.mean, 40.0f, 2.5f);
  EXPECT_GT(stats.std, 0.0f);       // innovation scale keeps spread > 0
  EXPECT_GT(stats.diff_std, 0.0f);
}

TEST(ForecastRunStats, DegenerateInputs) {
  const auto zero_h = forecast_run_stats(std::vector<float>{1.0f, 2.0f}, 0);
  EXPECT_FLOAT_EQ(zero_h.mean, 0.0f);
  const auto no_hist = forecast_run_stats({}, 10);
  EXPECT_FLOAT_EQ(no_hist.mean, 0.0f);
}

TEST(Ar2Forecaster, OneStepErrorBeatsNaiveMeanOnArSeries) {
  const auto xs = make_series(300, 8.0, 0.5, 0.3, 0.5, 7);
  // Mean absolute error of one-step forecasts, each fitted on the prefix.
  double model_mae = 0.0;
  const std::size_t warmup = 16;
  Ar2Forecaster model;
  for (std::size_t t = warmup; t + 1 < xs.size(); ++t) {
    model.fit(std::span<const float>(xs).subspan(0, t + 1));
    model_mae += std::abs(static_cast<double>(xs[t + 1]) - model.forecast(1).front());
  }
  model_mae /= static_cast<double>(xs.size() - warmup - 1);
  // Naive "predict the global mean" error for comparison.
  double mean = 0.0;
  for (const float v : xs) mean += v;
  mean /= static_cast<double>(xs.size());
  double naive = 0.0;
  for (const float v : xs) naive += std::abs(v - mean);
  naive /= static_cast<double>(xs.size());
  EXPECT_LT(model_mae, naive);
  EXPECT_GT(model_mae, 0.0);
}

}  // namespace
}  // namespace repro::forecast
