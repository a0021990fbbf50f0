// Labeled dataset plus random under-sampling of the majority class, the
// imbalance mitigation discussed in Sec. VI-B. The paper's TwoStage method
// makes it largely unnecessary (stage 1 rebalances to ~2:1); the ablation
// benches use it to show that.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ml/matrix.hpp"

namespace repro::ml {

using Label = std::uint8_t;  // 0 = negative (SBE-free), 1 = positive (SBE)

struct Dataset {
  Matrix X;
  std::vector<Label> y;
  std::vector<std::string> feature_names;

  [[nodiscard]] std::size_t size() const noexcept { return y.size(); }
  [[nodiscard]] std::size_t features() const noexcept { return X.cols(); }
  [[nodiscard]] std::size_t positives() const noexcept;
  [[nodiscard]] std::size_t negatives() const noexcept {
    return size() - positives();
  }

  /// New dataset with the given rows (indices may repeat).
  [[nodiscard]] Dataset select(const std::vector<std::size_t>& idx) const;

  /// Consistency check: X/y sizes agree, names match width (or are empty),
  /// labels are 0/1 and every feature value is finite.
  void validate() const;
};

/// Randomly keeps all positives and `ratio` negatives per positive.
/// A ratio >= current imbalance returns a shuffled copy.
Dataset undersample_majority(const Dataset& d, double ratio, Rng& rng);

}  // namespace repro::ml
