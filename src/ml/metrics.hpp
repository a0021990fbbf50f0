// Binary-classification evaluation: confusion matrix, per-class precision /
// recall / F1 (Sec. VI-C1 Eq. 2-3 and Sec. VII-A Eq. 4). The paper reports
// metrics separately for the SBE (positive) and non-SBE (negative) classes,
// so ClassMetrics carries both.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace repro::ml {

struct Confusion {
  std::uint64_t tp = 0;
  std::uint64_t fp = 0;
  std::uint64_t tn = 0;
  std::uint64_t fn = 0;

  void add(bool truth, bool predicted) noexcept;
  [[nodiscard]] std::uint64_t total() const noexcept {
    return tp + fp + tn + fn;
  }
};

struct PrMetrics {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
};

struct ClassMetrics {
  Confusion confusion;
  PrMetrics positive;  ///< metrics for the SBE class
  PrMetrics negative;  ///< metrics for the SBE-free class
  double accuracy = 0.0;
};

/// Precision/recall/F1 for the class whose "hits" are (tp, fp, fn).
PrMetrics pr_metrics(std::uint64_t tp, std::uint64_t fp, std::uint64_t fn);

/// Full two-class evaluation from 0/1 truth and prediction vectors.
ClassMetrics evaluate(std::span<const std::uint8_t> truth,
                      std::span<const std::uint8_t> predicted);

/// Evaluation from probabilities with a decision threshold.
ClassMetrics evaluate_proba(std::span<const std::uint8_t> truth,
                            std::span<const float> proba,
                            float threshold = 0.5f);

// --- score-quality statistics (src/audit model observability) -------------
//
// Pure, deterministic functions over (truth, score) or distribution pairs;
// the audit layer reports them per run in core::TwoStageRun. All accumulate
// in double regardless of the input width.

/// Mean squared error of the probability forecast: mean((p - y)^2).
/// Lower is better; 0.25 is the score of a constant 0.5 forecast.
double brier_score(std::span<const std::uint8_t> truth,
                   std::span<const float> proba);

/// Area under the ROC curve via the rank statistic (Mann-Whitney U) with
/// midrank tie handling. Degenerate inputs (single-class truth, empty)
/// return 0.5 — "no ranking information".
double roc_auc(std::span<const std::uint8_t> truth,
               std::span<const float> proba);

/// One calibration (reliability-diagram) bin over equal-width score bins.
struct ReliabilityBin {
  double mean_score = 0.0;    ///< mean predicted probability in the bin
  double positive_rate = 0.0; ///< observed fraction of positives in the bin
  std::uint64_t count = 0;
};

/// Equal-width reliability bins over [0, 1]; scores land in bin
/// min(floor(p * bins), bins - 1). Empty bins are kept (count 0) so the
/// result always has exactly `bins` entries.
std::vector<ReliabilityBin> reliability_bins(
    std::span<const std::uint8_t> truth, std::span<const float> proba,
    std::size_t bins = 10);

/// Expected calibration error: count-weighted mean |mean_score -
/// positive_rate| over non-empty bins.
double expected_calibration_error(std::span<const ReliabilityBin> bins);

/// Population stability index between two binned distributions given as
/// fractions (each summing to ~1): sum (a - e) * ln(a / e), with both
/// fractions clamped to at least `eps` so empty bins stay finite.
/// Rule of thumb: < 0.1 stable, 0.1-0.25 moderate shift, > 0.25 major.
double population_stability_index(std::span<const double> expected,
                                  std::span<const double> actual,
                                  double eps = 1e-6);

/// Exact two-sample Kolmogorov-Smirnov statistic between two *sorted*
/// samples: max |F_a(x) - F_b(x)|. Either side empty returns 0.
double ks_statistic_sorted(std::span<const float> a_sorted,
                           std::span<const float> b_sorted);

}  // namespace repro::ml
