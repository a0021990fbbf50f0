#include "ml/logistic_regression.hpp"

#include <cmath>
#include <numeric>

namespace repro::ml {

LogisticRegression::LogisticRegression(const Params& params, std::uint64_t seed)
    : params_(params), rng_(seed) {}

namespace {
inline float sigmoid(float z) noexcept {
  return 1.0f / (1.0f + std::exp(-z));
}
}  // namespace

void LogisticRegression::fit(const Dataset& train) {
  train.validate();
  REPRO_CHECK_MSG(train.size() > 0, "empty training set");
  const std::size_t d = train.features();
  weights_.assign(d, 0.0f);
  bias_ = 0.0f;

  // Adam state.
  std::vector<double> m(d + 1, 0.0), v(d + 1, 0.0);
  constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;
  std::vector<double> grad(d + 1, 0.0);
  std::size_t step = 0;

  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  for (std::size_t epoch = 0; epoch < params_.epochs; ++epoch) {
    rng_.shuffle(order);
    for (std::size_t begin = 0; begin < order.size();
         begin += params_.batch_size) {
      const std::size_t end =
          std::min(begin + params_.batch_size, order.size());
      std::fill(grad.begin(), grad.end(), 0.0);
      for (std::size_t i = begin; i < end; ++i) {
        const auto row = train.X.row(order[i]);
        const float target = train.y[order[i]];
        float z = bias_;
        for (std::size_t c = 0; c < d; ++c) z += weights_[c] * row[c];
        const double w_sample = target > 0.5f ? params_.pos_weight : 1.0;
        const double err = (sigmoid(z) - target) * w_sample;
        for (std::size_t c = 0; c < d; ++c) grad[c] += err * row[c];
        grad[d] += err;
      }
      const double scale = 1.0 / static_cast<double>(end - begin);
      ++step;
      const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(step));
      const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(step));
      for (std::size_t c = 0; c <= d; ++c) {
        double g = grad[c] * scale;
        if (c < d) g += params_.l2 * weights_[c];
        m[c] = kBeta1 * m[c] + (1.0 - kBeta1) * g;
        v[c] = kBeta2 * v[c] + (1.0 - kBeta2) * g * g;
        const double update = params_.learning_rate * (m[c] / bc1) /
                              (std::sqrt(v[c] / bc2) + kEps);
        if (c < d) {
          weights_[c] -= static_cast<float>(update);
        } else {
          bias_ -= static_cast<float>(update);
        }
      }
    }
  }
}

float LogisticRegression::predict_proba(std::span<const float> x) const {
  REPRO_CHECK_MSG(x.size() == weights_.size(), "feature width mismatch");
  float z = bias_;
  for (std::size_t c = 0; c < x.size(); ++c) z += weights_[c] * x[c];
  return sigmoid(z);
}

}  // namespace repro::ml
