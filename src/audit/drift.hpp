// Per-feature distribution-drift detection for the model audit layer
// (DESIGN.md §8). A DriftDetector is fitted on the (scaled) stage-2
// training matrix of one retraining period and later compared against the
// feature matrix the deployed model actually scored, answering "which
// features moved between train and test" when a period's quality degrades.
//
// Two statistics per feature:
//   * PSI  — population stability index over 10 train-quantile bins
//            (< 0.1 stable, 0.1-0.25 moderate shift, > 0.25 major shift);
//   * KS   — exact two-sample Kolmogorov-Smirnov statistic against the
//            retained (possibly stride-subsampled) sorted train column.
//
// Everything is deterministic: bin edges come from sorted train columns at
// fixed rank positions, subsampling is a fixed stride (never random), and
// compare() reads shared state but writes none.
#pragma once

#include <cstddef>
#include <vector>

#include "ml/matrix.hpp"

namespace repro::audit {

struct FeatureDrift {
  double psi = 0.0;
  double ks = 0.0;
};

/// Result of one train-vs-test comparison, plus the argmax features Table
/// III reports.
struct DriftSummary {
  bool valid = false;
  std::vector<FeatureDrift> per_feature;
  double psi_max = 0.0;
  std::size_t psi_argmax = 0;
  double ks_max = 0.0;
  std::size_t ks_argmax = 0;
  /// Features with PSI above the major-shift threshold. Time-cumulative
  /// history features drift by construction (their support grows with the
  /// trace), so this count — not psi_max — is the signal that moves when
  /// the machine itself changes.
  std::size_t psi_drifted = 0;
};

class DriftDetector {
 public:
  static constexpr std::size_t kBins = 10;      ///< PSI quantile bins
  static constexpr std::size_t kMaxRows = 20'000;  ///< retained per feature
  /// PSI above this counts as a major shift (standard rule of thumb).
  static constexpr double kMajorShiftPsi = 0.25;

  /// Learns the train reference: per feature, a stride-subsampled sorted
  /// column, its decile edges, and the train bin fractions. Deterministic
  /// for any thread count (features fan out with disjoint writes).
  void fit(const ml::Matrix& train_X);

  [[nodiscard]] bool fitted() const noexcept { return !edges_.empty(); }
  [[nodiscard]] std::size_t features() const noexcept { return edges_.size(); }

  /// PSI/KS of every feature of test_X against the train reference.
  /// test_X must have fit()'s width.
  [[nodiscard]] DriftSummary compare(const ml::Matrix& test_X) const;

 private:
  /// Bin of a value: count of edges strictly below it (ties land low).
  [[nodiscard]] std::size_t bin_of(std::size_t feature, float value) const;

  std::vector<std::vector<float>> sorted_cols_;  ///< per feature, ascending
  std::vector<std::vector<float>> edges_;        ///< deduped interior edges
  std::vector<std::vector<double>> train_frac_;  ///< per-bin train fraction
};

}  // namespace repro::audit
