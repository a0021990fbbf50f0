// Prediction-quality breakdowns from the paper's analysis section
// (Sec. VII-D): spatial robustness at cabinet level (Fig 13), effect of
// application runtime (Table V), and effect of SBE severity (Table VI).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/sample_index.hpp"
#include "core/two_stage.hpp"
#include "sim/trace.hpp"

namespace repro::core {

/// Per-cabinet counts of SBE-affected samples: ground truth, predicted
/// (TP + FP), and true positives (Fig 13).
struct CabinetCounts {
  std::vector<double> ground_truth;    ///< indexed by CabinetId
  std::vector<double> predicted;
  std::vector<double> true_positives;

  /// ground_truth[c] - predicted[c] per cabinet (Fig 13b).
  [[nodiscard]] std::vector<double> differences() const;
};

CabinetCounts cabinet_counts(const sim::Trace& trace,
                             std::span<const std::size_t> idx,
                             std::span<const ml::Label> predicted);

/// Precision/recall/F1 for all samples and for samples of "short-running"
/// (bottom-25%-runtime) and "long-running" (top 25%) applications (Table V).
struct RuntimeBreakdown {
  ml::PrMetrics all;
  ml::PrMetrics short_running;
  ml::PrMetrics long_running;
  double short_cutoff_min = 0.0;  ///< 25th percentile runtime
  double long_cutoff_min = 0.0;   ///< 75th percentile runtime
};

RuntimeBreakdown runtime_breakdown(const sim::Trace& trace,
                                   std::span<const std::size_t> idx,
                                   std::span<const ml::Label> predicted);

/// Fraction of SBE-affected runs correctly labeled per severity quartile
/// (Light / Moderate / Severe / Extreme by SBE count, Table VI).
struct SeverityBreakdown {
  std::array<double, 4> correct_fraction{};  ///< index 0 = Light
  std::array<std::size_t, 4> counts{};       ///< samples per level
  std::array<double, 3> cutoffs{};           ///< 25/50/75 pct SBE counts
};

SeverityBreakdown severity_breakdown(const sim::Trace& trace,
                                     std::span<const std::size_t> idx,
                                     std::span<const ml::Label> predicted);

}  // namespace repro::core
