// The paper's non-learning prediction schemes (Sec. VI-C1, Table I):
//
//  Random  — coin flip with P(SBE) = 0.5;
//  Basic A — any run on a known SBE-offender node is predicted SBE;
//  Basic B — any run of a previously SBE-affected application is SBE;
//  Basic C — any run of a "top" SBE application (top 20% by training-window
//            SBE count) is SBE.
//
// These anchor the evaluation: TwoStage + ML must beat them to justify
// its complexity.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/sample_index.hpp"
#include "sim/trace.hpp"

namespace repro::core {

enum class BasicKind : std::uint8_t { kRandom, kBasicA, kBasicB, kBasicC };

[[nodiscard]] std::string_view to_string(BasicKind kind) noexcept;

class BasicScheme {
 public:
  explicit BasicScheme(BasicKind kind, std::uint64_t seed = 7777)
      : kind_(kind), seed_(seed) {}

  /// Learns the offender-node / affected-app sets from the SBE history
  /// observable up to `train_window.end` (node/app sets use the full
  /// history before that point, as a deployed scheme would).
  void train(const sim::Trace& trace, Interval train_window);

  [[nodiscard]] ml::Label predict(const sim::RunNodeSample& s) const;
  [[nodiscard]] std::vector<ml::Label> predict(
      const sim::Trace& trace, std::span<const std::size_t> idx) const;

 private:
  BasicKind kind_;
  std::uint64_t seed_;
  std::vector<char> offender_nodes_;  ///< Basic A
  std::vector<char> affected_apps_;   ///< Basic B
  std::vector<char> top_apps_;        ///< Basic C
};

}  // namespace repro::core
