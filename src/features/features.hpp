// Feature engineering (paper Sec. V): turns RunNodeSamples into the
// numeric feature vectors the machine-learning models consume.
//
// Features are organized exactly along the paper's two dimensions:
//
//  Temporal (Sec. V-A)
//   - Application: binary name (hashed one-hot), previous application on
//     the node (post-effects), execution time, GPU resource utilization
//     (core-hours, aggregate memory, maximum memory).
//   - Temperature/power: mean/std of the value and of consecutive diffs
//     (a) during the run and (b) in 5/15/30/60-minute windows before it.
//
//  Spatial (Sec. V-B)
//   - Node location (cabinet x/y, cage, slot, node-in-slot, plus a stable
//     per-node hash so trees can isolate individual cards).
//   - CPU temperature on the same node, GPU temperature/power of the slot
//     neighbors (same four-stat encoding).
//   - SBE history: counts at node level (today / yesterday / before),
//     machine level (same three lengths), and application (+ app-on-node)
//     over the past 24 hours. Counts enter raw (tree models are invariant
//     to monotone transforms; linear models see the same heavy tails the
//     paper's pipeline would feed them).
//
// Every atom has a mask bit; the named combinations reproduce the paper's
// experiments: Fig 11 groups (Hist / TP / App / All), Table IV sets (Cur /
// CurPrev / CurNei / CurPrevNei), and the Fig 12 removal ablations.
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.hpp"
#include "sim/trace.hpp"

namespace repro::features {

using FeatureMask = std::uint32_t;

enum : FeatureMask {
  kFeatApp = 1u << 0,          ///< app identity + utilization + prev app
  kFeatLocation = 1u << 1,     ///< node location
  kFeatTpCur = 1u << 2,        ///< target-node T/P during the run
  kFeatTpPrev = 1u << 3,       ///< pre-run windows (5/15/30/60 min)
  kFeatTpNei = 1u << 4,        ///< CPU temp + slot-neighbor T/P
  kFeatHistLocalToday = 1u << 5,
  kFeatHistLocalYesterday = 1u << 6,
  kFeatHistLocalBefore = 1u << 7,
  kFeatHistGlobalToday = 1u << 8,
  kFeatHistGlobalYesterday = 1u << 9,
  kFeatHistGlobalBefore = 1u << 10,
  kFeatHistApp = 1u << 11,     ///< app + app-on-node SBEs, past 24 h
};

inline constexpr FeatureMask kHistLocal =
    kFeatHistLocalToday | kFeatHistLocalYesterday | kFeatHistLocalBefore;
inline constexpr FeatureMask kHistGlobal =
    kFeatHistGlobalToday | kFeatHistGlobalYesterday | kFeatHistGlobalBefore;
inline constexpr FeatureMask kHistToday =
    kFeatHistLocalToday | kFeatHistGlobalToday | kFeatHistApp;
inline constexpr FeatureMask kHistYesterday =
    kFeatHistLocalYesterday | kFeatHistGlobalYesterday;
inline constexpr FeatureMask kHistBefore =
    kFeatHistLocalBefore | kFeatHistGlobalBefore;

/// Fig 11 feature groups.
inline constexpr FeatureMask kGroupHist = kHistLocal | kHistGlobal | kFeatHistApp;
inline constexpr FeatureMask kGroupTp = kFeatTpCur | kFeatTpPrev | kFeatTpNei;
inline constexpr FeatureMask kGroupApp = kFeatApp;
inline constexpr FeatureMask kAllFeatures =
    kGroupHist | kGroupTp | kGroupApp | kFeatLocation;

/// Table IV temperature/power feature sets ("together with all other
/// groups of features", Sec. VII-C).
inline constexpr FeatureMask kSetCur =
    kAllFeatures & ~(kFeatTpPrev | kFeatTpNei);
inline constexpr FeatureMask kSetCurPrev = kAllFeatures & ~kFeatTpNei;
inline constexpr FeatureMask kSetCurNei = kAllFeatures & ~kFeatTpPrev;
inline constexpr FeatureMask kSetCurPrevNei = kAllFeatures;

/// One-hot widths of the app-name and previous-app hash features.
inline constexpr std::size_t kAppHashBuckets = 16;
inline constexpr std::size_t kPrevAppHashBuckets = 8;

struct FeatureSpec {
  FeatureMask mask = kAllFeatures;
  /// Approach 2 (Sec. VI-A / VIII): replace the measured current-run T/P
  /// statistics with AR(2) forecasts computed from the telemetry observed
  /// BEFORE the run starts, so every feature is available a priori.
  bool forecast_current_run = false;

  auto operator<=>(const FeatureSpec&) const = default;
};

/// Stateless (per trace) sample -> feature-vector mapper.
class FeatureExtractor {
 public:
  FeatureExtractor(const sim::Trace& trace, const FeatureSpec& spec);

  [[nodiscard]] std::size_t dim() const noexcept { return names_.size(); }
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }

  /// Fills `out` (size dim()) for one sample. History features look at the
  /// SbeLog strictly before the sample's start minute.
  void extract(const sim::RunNodeSample& s, std::span<float> out) const;

  /// Builds a labeled dataset from the given sample indices of the trace.
  [[nodiscard]] ml::Dataset build(std::span<const std::size_t> sample_idx) const;

 private:
  void build_names();

  const sim::Trace& trace_;
  topo::Topology topology_;
  FeatureSpec spec_;
  std::vector<std::string> names_;
};

}  // namespace repro::features
