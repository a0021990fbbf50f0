// Support Vector Machine with an RBF kernel — the paper's slowest but
// kernel-powered model (Table III: ~1 h on their Xeon vs 40 s for GBDT).
//
// An exact kernel SVM solved in the dual with simplified SMO (Platt) and an
// incrementally-maintained decision-value cache. Faithful to what
// off-the-shelf libraries (libsvm/sklearn) do and, like them,
// quadratic-ish in training size — this is the honest source of SVM's place
// at the bottom of the training-time table. The training set is
// (stratified-)subsampled to kMaxSmoSamples.
//
// Probabilities come from Platt scaling (a 1-D logistic fit on margins).
#pragma once

#include <compare>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "ml/model.hpp"

namespace repro::ml {

class Svm final : public Model {
 public:
  struct Params {
    using Family = Svm;
    static constexpr std::string_view kName = "SVM";

    double gamma = 0.0;          ///< RBF width; 0 = 1/num_features heuristic
    double c = 1.0;              ///< SVM regularization tradeoff
    double pos_weight = 1.0;

    auto operator<=>(const Params&) const = default;
  };

  static constexpr std::size_t kMaxSmoSamples = 5000;  ///< dual problem cap
  static constexpr double kSmoTol = 1e-3;  ///< KKT violation tolerance
  static constexpr std::size_t kSmoMaxPasses = 3;  ///< idle sweeps to stop
  static constexpr std::size_t kSmoMaxIters = 150'000;  ///< iteration cap
  static constexpr std::uint64_t kPlattIters = 200;

  explicit Svm(const Params& params, std::uint64_t seed = 1234);

  void fit(const Dataset& train) override;
  [[nodiscard]] float predict_proba(std::span<const float> x) const override;

  /// Raw decision value (valid after fit); > 0 predicts the SBE class.
  [[nodiscard]] float margin(std::span<const float> x) const;

  /// Number of support vectors.
  [[nodiscard]] std::size_t support_vector_count() const noexcept {
    return support_.rows();
  }

 private:
  void fit_platt(std::span<const float> margins,
                 std::span<const Label> labels);

  Params params_;
  Rng rng_;
  std::size_t input_dims_ = 0;
  double gamma_ = 0.0;

  // Support vectors + dual coefficients (alpha_i * y_i).
  Matrix support_;
  std::vector<float> dual_coef_;
  float smo_bias_ = 0.0f;

  // Platt scaling: P(y=1|m) = sigmoid(a*m + b).
  float platt_a_ = 1.0f;
  float platt_b_ = 0.0f;
};

}  // namespace repro::ml
