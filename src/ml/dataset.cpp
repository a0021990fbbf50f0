#include "ml/dataset.hpp"

#include <algorithm>
#include <cmath>

namespace repro::ml {

std::size_t Dataset::positives() const noexcept {
  std::size_t p = 0;
  for (const Label l : y) p += l;
  return p;
}

Dataset Dataset::select(const std::vector<std::size_t>& idx) const {
  Dataset out;
  out.feature_names = feature_names;
  out.X = Matrix(idx.size(), X.cols());
  out.y.reserve(idx.size());
  for (std::size_t r = 0; r < idx.size(); ++r) {
    REPRO_CHECK(idx[r] < size());
    const auto src = X.row(idx[r]);
    std::copy(src.begin(), src.end(), out.X.row(r).begin());
    out.y.push_back(y[idx[r]]);
  }
  return out;
}

void Dataset::validate() const {
  REPRO_CHECK_MSG(X.rows() == y.size(), "X rows != labels");
  REPRO_CHECK_MSG(feature_names.empty() || feature_names.size() == X.cols(),
                  "feature names width mismatch");
  for (const Label l : y) REPRO_CHECK_MSG(l <= 1, "labels must be 0/1");
  // A NaN would break the binner's sort and route one way in the binned fit
  // and the other in the tree walk; every model refuses non-finite input.
  for (std::size_t r = 0; r < X.rows(); ++r) {
    const auto row = X.row(r);
    for (std::size_t f = 0; f < row.size(); ++f) {
      REPRO_CHECK_MSG(std::isfinite(row[f]),
                      "non-finite feature " << f << " in row " << r);
    }
  }
}

Dataset undersample_majority(const Dataset& d, double ratio, Rng& rng) {
  REPRO_CHECK(ratio > 0.0);
  std::vector<std::size_t> pos, neg;
  for (std::size_t i = 0; i < d.size(); ++i) {
    (d.y[i] ? pos : neg).push_back(i);
  }
  const auto keep_neg = std::min<std::size_t>(
      neg.size(),
      static_cast<std::size_t>(std::llround(ratio * static_cast<double>(pos.size()))));
  rng.shuffle(neg);
  neg.resize(keep_neg);
  std::vector<std::size_t> idx = pos;
  idx.insert(idx.end(), neg.begin(), neg.end());
  rng.shuffle(idx);
  return d.select(idx);
}

}  // namespace repro::ml
