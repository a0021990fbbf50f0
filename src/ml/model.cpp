#include "ml/model.hpp"

#include <cmath>
#include <type_traits>

#include "common/parallel.hpp"
#include "ml/model_spec.hpp"

namespace repro::ml {

// Inference is const and rows are independent, so the default batched path
// is row-parallel with per-index writes.
std::vector<float> Model::predict_proba_many(const Matrix& X) const {
  std::vector<float> out(X.rows());
  parallel_for(X.rows(), 64, [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      out[r] = predict_proba(X.row(r));
    }
  });
  return out;
}

std::vector<Label> Model::predict_batch(const Matrix& X,
                                        float threshold) const {
  const std::vector<float> proba = predict_proba_many(X);
  std::vector<Label> out(proba.size());
  for (std::size_t r = 0; r < proba.size(); ++r) {
    out[r] = proba[r] >= threshold ? 1 : 0;
  }
  return out;
}

void StandardScaler::fit(const Matrix& X) {
  REPRO_CHECK_MSG(X.rows() > 0, "cannot fit scaler on empty matrix");
  const std::size_t d = X.cols();
  std::vector<double> sum(d, 0.0), sum2(d, 0.0);
  for (std::size_t r = 0; r < X.rows(); ++r) {
    const auto row = X.row(r);
    for (std::size_t c = 0; c < d; ++c) {
      sum[c] += row[c];
      sum2[c] += static_cast<double>(row[c]) * row[c];
    }
  }
  mean_.resize(d);
  std_.resize(d);
  const auto n = static_cast<double>(X.rows());
  for (std::size_t c = 0; c < d; ++c) {
    const double m = sum[c] / n;
    const double var = sum2[c] / n - m * m;
    mean_[c] = static_cast<float>(m);
    std_[c] = var > 1e-12 ? static_cast<float>(std::sqrt(var)) : 1.0f;
  }
}

void StandardScaler::transform_row(std::span<float> row) const {
  REPRO_CHECK_MSG(row.size() == mean_.size(), "scaler width mismatch");
  for (std::size_t c = 0; c < row.size(); ++c) {
    row[c] = (row[c] - mean_[c]) / std_[c];
  }
}

void StandardScaler::transform_inplace(Matrix& X) const {
  for (std::size_t r = 0; r < X.rows(); ++r) transform_row(X.row(r));
}

std::string_view to_string(const ModelSpec& spec) noexcept {
  return std::visit([](const auto& params) { return params.kName; }, spec);
}

std::unique_ptr<Model> make_model(const ModelSpec& spec, std::uint64_t seed) {
  return std::visit(
      [seed](const auto& params) -> std::unique_ptr<Model> {
        using Family = typename std::decay_t<decltype(params)>::Family;
        return std::make_unique<Family>(params, seed);
      },
      spec);
}

}  // namespace repro::ml
