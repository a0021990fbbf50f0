// Model-quality observability (DESIGN.md §8): the layer that answers *why*
// a retraining period degraded, not just that it did. Two parts:
//
//   * Quality assessment — Brier score, ROC-AUC, ECE and the positive rate
//     over (truth, probability) pairs (ml/metrics primitives).
//   * Drift detection — see audit/drift.hpp.
//   Both come back as values in every core::TwoStageRun. Table III writes
//   the DS1 GBDT run's as its own artifact keys (`GBDT.auc`, `GBDT.brier`,
//   `GBDT.psi_max`, ...).
//
// Determinism contract: every audit computation is a pure read of pipeline
// state, so the numbers never change a prediction and are bit-identical
// for any REPRO_THREADS.
#pragma once

#include <cstdint>
#include <span>

#include "ml/metrics.hpp"

namespace repro::audit {

struct QualityReport {
  bool valid = false;
  double brier = 0.0;
  double auc = 0.5;
  double ece = 0.0;  ///< over 10 equal-width reliability bins
  double positive_rate = 0.0;
};

/// Pure quality assessment of a probability forecast against truth.
QualityReport assess(std::span<const std::uint8_t> truth,
                     std::span<const float> proba);

}  // namespace repro::audit
