// L2-regularized logistic regression trained with mini-batch Adam.
// The paper's fastest/simplest model (Table III) and its linear baseline.
#pragma once

#include <compare>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "ml/model.hpp"

namespace repro::ml {

class LogisticRegression final : public Model {
 public:
  struct Params {
    using Family = LogisticRegression;
    static constexpr std::string_view kName = "LR";

    std::size_t epochs = 12;
    std::size_t batch_size = 256;
    double learning_rate = 0.05;
    double l2 = 1e-4;
    double pos_weight = 1.0;  ///< weight multiplier for positive samples

    auto operator<=>(const Params&) const = default;
  };

  explicit LogisticRegression(const Params& params, std::uint64_t seed = 1234);

  void fit(const Dataset& train) override;
  [[nodiscard]] float predict_proba(std::span<const float> x) const override;

  /// Learned coefficients (valid after fit).
  [[nodiscard]] std::span<const float> weights() const noexcept {
    return weights_;
  }

 private:
  Params params_;
  Rng rng_;
  std::vector<float> weights_;
  float bias_ = 0.0f;
};

}  // namespace repro::ml
