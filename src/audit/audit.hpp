// Model-quality observability (DESIGN.md §8): the layer that answers *why*
// a retraining period degraded, not just that it did. Three parts:
//
//   * Quality assessment — Brier score, ROC-AUC, reliability bins and ECE
//     over (truth, probability) pairs (ml/metrics primitives).
//   * Drift detection — see audit/drift.hpp.
//   Both come back as values in every core::TwoStageRun. Table III writes
//   the DS1 GBDT run's as its own artifact keys (`GBDT.auc`, `GBDT.brier`,
//   `GBDT.psi_max`, ...).
//   * Prediction audit log — an opt-in JSONL sink (REPRO_AUDIT=<path>)
//     with one manifest line per trained model and one record per
//     prediction: score, threshold, decision, truth, stage-1 outcome, and
//     the top-k per-feature score contributions (ml::Model::explain).
//
// Determinism contract: every audit computation is a pure read of pipeline
// state, and the sink writes only while active (call sites gate on
// audit::sink()), so audit-on vs audit-off pipelines produce bit-identical
// predictions and metrics. The
// JSONL writer builds record lines in parallel into an index-addressed
// buffer and flushes them in index order under one mutex, so runs made one
// after another produce byte-identical files for any REPRO_THREADS;
// concurrent runs interleave whole batches, never partial lines.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ml/metrics.hpp"

namespace repro::audit {

// --- calibration & quality -------------------------------------------------

struct QualityReport {
  bool valid = false;
  double brier = 0.0;
  double auc = 0.5;
  double ece = 0.0;
  double positive_rate = 0.0;
  std::vector<ml::ReliabilityBin> bins;
};

/// Pure quality assessment of a probability forecast against truth.
QualityReport assess(std::span<const std::uint8_t> truth,
                     std::span<const float> proba,
                     std::size_t reliability_bin_count = 10);

// --- prediction audit log (JSONL) ------------------------------------------

/// Number of feature contributions kept per audit record.
inline constexpr std::size_t kTopK = 5;

/// Append-only JSONL file. Lines are written whole under a mutex; write()
/// batches preserve index order (see the determinism contract above).
class Sink {
 public:
  explicit Sink(const std::string& path);

  /// False once the file failed to open or a write failed. A failed sink
  /// warns once on stderr and permanently disables itself — audit logging
  /// is observability, never worth crashing (or spamming) the pipeline.
  [[nodiscard]] bool ok() const noexcept {
    return healthy_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  void write_line(const std::string& line);
  /// Writes every line in order as one atomic batch, then flushes.
  void write_lines(std::span<const std::string> lines);

 private:
  /// Under mu_: warn once and disable after a failed write.
  void note_failure();

  std::string path_;
  std::ofstream out_;
  std::mutex mu_;
  std::atomic<bool> healthy_{false};
};

/// The process-wide sink: nullptr unless REPRO_AUDIT=<path> was set (read
/// once, on first call) or set_sink_path() installed one. The pointer stays
/// valid for the process lifetime.
Sink* sink();

/// Installs (or, with "", removes) the active sink at runtime — used by
/// tests and tools; overrides whatever REPRO_AUDIT said.
void set_sink_path(const std::string& path);

// --- record schema ----------------------------------------------------------

/// Provenance header: one line per trained model, written by the predictor
/// when training finishes, so every block of prediction records that
/// follows is attributable to an exact configuration.
struct Manifest {
  std::string model;               ///< ml::to_string(ModelSpec)
  std::uint64_t seed = 0;
  float threshold = 0.5f;
  std::size_t feature_dim = 0;
  std::uint32_t feature_mask = 0;
  bool forecast_current_run = false;
  double undersample_ratio = 0.0;
  std::size_t threads = 1;         ///< effective REPRO_THREADS
  std::int64_t train_begin = 0;    ///< training window [begin, end) minutes
  std::int64_t train_end = 0;
  std::size_t stage2_training_size = 0;
};

/// One `<application, node>` prediction. `contrib` holds the top-k score
/// contributions by |value| (log-odds space), largest first; empty when the
/// model has no decomposition or stage 1 rejected the sample.
struct PredictionRecord {
  std::size_t sample = 0;          ///< index into trace.samples
  std::int64_t run = -1;
  std::int64_t app = -1;
  std::int64_t node = -1;
  float score = 0.0f;
  float threshold = 0.5f;
  bool decision = false;
  bool truth = false;
  bool stage1_accepted = false;
  bool has_contrib = false;
  double bias = 0.0;               ///< meaningful when has_contrib
  std::vector<std::pair<std::string_view, double>> contrib;
};

std::string to_json_line(const Manifest& m);
std::string to_json_line(const PredictionRecord& r);

/// Top-k (index, value) contributions by descending |value|, ties broken
/// by ascending feature index so the selection is deterministic.
std::vector<std::pair<std::size_t, double>> top_k_contributions(
    std::span<const double> contributions, std::size_t k = kTopK);

}  // namespace repro::audit
