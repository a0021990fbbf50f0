// The paper's primary contribution (Sec. VI-C2, Fig 9): the TwoStage
// prediction method.
//
//   Stage 1: has this node ever logged an SBE (up to training time)?
//            If not, predict SBE-free. This shrinks the training set,
//            removes most of the noise, and collapses the ~50:1 class
//            imbalance to roughly 2:1..4:1.
//   Stage 2: a machine-learning classifier (LR / GBDT / SVM / NN) over the
//            Sec. V features, trained only on offender-node samples,
//            decides the remaining cases.
//
// The deliberate cost: SBEs on previously error-free nodes are always
// missed; periodic retraining (a new TwoStage on each sliding window of
// SplitSpec::sliding) keeps that loss small.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "audit/audit.hpp"
#include "audit/drift.hpp"
#include "core/sample_index.hpp"
#include "core/splits.hpp"
#include "features/features.hpp"
#include "ml/model_spec.hpp"
#include "sim/trace.hpp"

namespace repro::core {

struct TwoStageConfig {
  /// The stage-2 model, family and parameters (the paper's GBDT).
  ml::ModelSpec model = ml::GradientBoostedTrees::Params{};
  features::FeatureSpec features{};
  /// 0 = keep stage-2 training data as-is (the paper's choice, since stage
  /// 1 already rebalances); > 0 = additionally undersample negatives to
  /// this many per positive (ablation knob).
  double undersample_ratio = 0.0;
  float threshold = 0.5f;
  std::uint64_t seed = 1234;

  /// Field-wise, so a config can key a memo of runs.
  auto operator<=>(const TwoStageConfig&) const = default;
};

class TwoStagePredictor {
 public:
  explicit TwoStagePredictor(const TwoStageConfig& config);

  /// Trains stage 1 (offender set from all history before
  /// train_window.end) and stage 2 (model on offender samples whose runs
  /// ended inside train_window).
  void train(const sim::Trace& trace, Interval train_window);

  /// P(SBE) per sample; stage-1 rejects get probability 0. Pure: when
  /// `drift` is non-null and stage 2 trained, it also receives the
  /// train-vs-serve feature drift of the stage-2 survivors (DESIGN.md §8).
  [[nodiscard]] std::vector<float> predict_proba(
      const sim::Trace& trace, std::span<const std::size_t> idx,
      audit::DriftSummary* drift = nullptr) const;
  /// Thresholded predictions. `proba_out`, when non-null, receives the
  /// underlying probabilities so callers needing both never score twice;
  /// `drift_out` is as in predict_proba.
  [[nodiscard]] std::vector<ml::Label> predict(
      const sim::Trace& trace, std::span<const std::size_t> idx,
      std::vector<float>* proba_out = nullptr,
      audit::DriftSummary* drift_out = nullptr) const;

  [[nodiscard]] bool trained() const noexcept {
    return model_ != nullptr || degraded_;
  }
  /// True when the last train() was left with an empty stage-2 training
  /// set (no offender-node samples in its window, or none kept by
  /// undersampling) and fell back to all-negative predictions (stage 1
  /// alone). A corrupted or heavily-quarantined trace must degrade, not
  /// crash.
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }
  [[nodiscard]] const std::vector<char>& offender_mask() const noexcept {
    return offender_mask_;
  }
  /// Wall-clock seconds of the last stage-2 model fit (Table III).
  [[nodiscard]] double fit_seconds() const noexcept { return fit_seconds_; }
  /// Stage-2 training-set size after filtering (and resampling, if any).
  [[nodiscard]] std::size_t stage2_training_size() const noexcept {
    return stage2_size_;
  }
  /// Share of the training window's samples that survived stage 1, and
  /// the positive rate of the stage-2 training set (0 when degraded).
  [[nodiscard]] double train_survivor_rate() const noexcept {
    return train_survivor_rate_;
  }
  [[nodiscard]] double train_positive_rate() const noexcept {
    return train_positive_rate_;
  }

 private:
  TwoStageConfig config_;
  std::unique_ptr<features::FeatureExtractor> extractor_;
  std::unique_ptr<ml::Model> model_;
  ml::StandardScaler scaler_;
  std::vector<char> offender_mask_;
  double fit_seconds_ = 0.0;
  std::size_t stage2_size_ = 0;
  double train_survivor_rate_ = 0.0;
  double train_positive_rate_ = 0.0;
  bool degraded_ = false;
  audit::DriftDetector drift_;
};

/// Everything one train -> score -> evaluate run of TwoStage produces
/// (Sec. VI-C2, VII-A): the test window's samples, scored once, with their
/// metrics, plus the training cost and the stage-1 shape of the run.
struct TwoStageRun {
  Interval train;
  Interval test;
  std::vector<std::size_t> idx;  ///< samples_in(trace, test)
  std::vector<float> proba;      ///< P(SBE) per idx entry
  std::vector<ml::Label> pred;   ///< proba thresholded at config.threshold
  ml::ClassMetrics metrics;
  double fit_seconds = 0.0;      ///< stage-2 fit wall-clock (Table III)
  std::size_t stage2_size = 0;
  std::size_t offender_nodes = 0;
  bool degraded = false;         ///< see TwoStagePredictor::degraded
  double train_survivor_rate = 0.0;
  double train_positive_rate = 0.0;
  double survivor_rate = 0.0;    ///< share of idx on offender nodes
  /// Model-quality audit (DESIGN.md §8): calibration of proba against
  /// truth (non-empty test window) and train-vs-test feature drift (stage 2
  /// trained, some test sample on an offender node).
  audit::QualityReport quality;
  audit::DriftSummary drift;
};

/// The TwoStage pipeline: trains a predictor on `train`, scores the
/// samples whose runs end in `test` once, and evaluates them. Safe to run
/// concurrently.
TwoStageRun run_two_stage(const sim::Trace& trace,
                          const TwoStageConfig& config, Interval train,
                          Interval test);

}  // namespace repro::core
