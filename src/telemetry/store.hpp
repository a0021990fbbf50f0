// Machine-wide telemetry state: one ring buffer per channel per node plus
// whole-trace cumulative statistics (for the Fig. 5 cabinet grids).
#pragma once

#include <array>
#include <vector>

#include "common/stats.hpp"
#include "common/time.hpp"
#include "telemetry/series.hpp"
#include "topology/topology.hpp"

namespace repro::telemetry {

enum class Channel : std::uint8_t { kGpuTemp = 0, kGpuPower = 1, kCpuTemp = 2 };
inline constexpr std::size_t kChannels = 3;

/// One minute of telemetry for one node.
struct Reading {
  float gpu_temp = 0.0f;   ///< degrees Celsius
  float gpu_power = 0.0f;  ///< watts
  float cpu_temp = 0.0f;   ///< degrees Celsius

  [[nodiscard]] float channel(Channel c) const noexcept {
    switch (c) {
      case Channel::kGpuTemp: return gpu_temp;
      case Channel::kGpuPower: return gpu_power;
      case Channel::kCpuTemp: return cpu_temp;
    }
    return 0.0f;
  }
};

/// Rolling + cumulative telemetry for every node in the machine.
///
/// record() must be called exactly once per node per simulated minute (the
/// simulator drives this); ring buffers then answer "stats over the last W
/// minutes" queries that feed the pre-run feature windows. record() trusts
/// its input: the thermal model only produces finite, in-range values.
class TelemetryStore {
 public:
  /// `history_minutes` bounds the look-back window (>= 61 for the paper's
  /// largest 60-minute pre-run window plus the current minute).
  TelemetryStore(std::int32_t total_nodes, std::size_t history_minutes = 64);

  void record(topo::NodeId node, const Reading& r);

  /// Most recent reading of a channel; requires at least one record().
  [[nodiscard]] float latest(topo::NodeId node, Channel c) const;

  /// Four-stat summary of the last `window` minutes of a channel.
  [[nodiscard]] FourStats window_stats(topo::NodeId node, Channel c,
                                       std::size_t window) const;

  /// Number of samples currently retained for a node (<= history_minutes).
  [[nodiscard]] std::size_t history_size(topo::NodeId node) const;
  /// Raw sample `age` minutes back (age 0 = most recent); age < history_size.
  [[nodiscard]] float history_at(topo::NodeId node, Channel c,
                                 std::size_t age) const;

  /// Whole-trace per-node aggregate of a channel (mean/min/max/sum).
  [[nodiscard]] const RunningStats& cumulative(topo::NodeId node,
                                               Channel c) const;

  [[nodiscard]] std::int32_t total_nodes() const noexcept {
    return static_cast<std::int32_t>(cumulative_.size());
  }
  [[nodiscard]] std::size_t history_minutes() const noexcept {
    return history_minutes_;
  }

 private:
  struct PerNode {
    RingSeries series[kChannels];
    explicit PerNode(std::size_t cap)
        : series{RingSeries(cap), RingSeries(cap), RingSeries(cap)} {}
  };

  std::size_t history_minutes_;
  std::vector<PerNode> nodes_;
  std::vector<std::array<RunningStats, kChannels>> cumulative_;
};

}  // namespace repro::telemetry
