#include "telemetry/store.hpp"

namespace repro::telemetry {

TelemetryStore::TelemetryStore(std::int32_t total_nodes,
                               std::size_t history_minutes)
    : history_minutes_(history_minutes) {
  REPRO_CHECK(total_nodes > 0);
  REPRO_CHECK_MSG(history_minutes >= 61,
                  "need >= 61 minutes of history for the 60-minute window");
  nodes_.reserve(static_cast<std::size_t>(total_nodes));
  for (std::int32_t i = 0; i < total_nodes; ++i) {
    nodes_.emplace_back(history_minutes);
  }
  cumulative_.resize(static_cast<std::size_t>(total_nodes));
}

void TelemetryStore::record(topo::NodeId node, const Reading& r) {
  auto& pn = nodes_.at(static_cast<std::size_t>(node));
  auto& cum = cumulative_[static_cast<std::size_t>(node)];
  for (std::size_t c = 0; c < kChannels; ++c) {
    const float v = r.channel(static_cast<Channel>(c));
    pn.series[c].push(v);
    cum[c].add(v);
  }
}

float TelemetryStore::latest(topo::NodeId node, Channel c) const {
  return nodes_.at(static_cast<std::size_t>(node))
      .series[static_cast<std::size_t>(c)]
      .back();
}

FourStats TelemetryStore::window_stats(topo::NodeId node, Channel c,
                                       std::size_t window) const {
  return nodes_.at(static_cast<std::size_t>(node))
      .series[static_cast<std::size_t>(c)]
      .stats_last(window);
}

std::size_t TelemetryStore::history_size(topo::NodeId node) const {
  return nodes_.at(static_cast<std::size_t>(node)).series[0].size();
}

float TelemetryStore::history_at(topo::NodeId node, Channel c,
                                 std::size_t age) const {
  return nodes_.at(static_cast<std::size_t>(node))
      .series[static_cast<std::size_t>(c)]
      .at_age(age);
}

const RunningStats& TelemetryStore::cumulative(topo::NodeId node,
                                               Channel c) const {
  return cumulative_.at(static_cast<std::size_t>(node))[static_cast<std::size_t>(c)];
}

}  // namespace repro::telemetry
