// Abstract two-class probabilistic classifier (Sec. VI-D): the interface
// shared by Logistic Regression, GBDT, SVM and the neural network, plus the
// standardizing scaler most of them need. ml/model_spec.hpp builds them.
#pragma once

#include <span>
#include <vector>

#include "ml/dataset.hpp"

namespace repro::ml {

class Model {
 public:
  virtual ~Model() = default;

  /// Trains on the dataset. May be called repeatedly (re-fits from scratch).
  virtual void fit(const Dataset& train) = 0;

  /// P(y = 1 | x) for one feature row (width = training width).
  [[nodiscard]] virtual float predict_proba(
      std::span<const float> x) const = 0;

  /// P(y = 1 | x) for every row of X. The default fans predict_proba over
  /// row chunks; models with cheaper batched inference (GBDT) override it.
  /// Overrides must return bitwise the same values as the default.
  [[nodiscard]] virtual std::vector<float> predict_proba_many(
      const Matrix& X) const;

  /// Thresholded predict_proba_many.
  [[nodiscard]] std::vector<Label> predict_batch(const Matrix& X,
                                                 float threshold = 0.5f) const;
};

/// Per-feature standardization (x - mean) / std, fit on training data.
/// Constant features pass through unchanged.
class StandardScaler {
 public:
  void fit(const Matrix& X);
  [[nodiscard]] bool fitted() const noexcept { return !mean_.empty(); }

  void transform_inplace(Matrix& X) const;
  void transform_row(std::span<float> row) const;

 private:
  std::vector<float> mean_;
  std::vector<float> std_;
};

}  // namespace repro::ml
