#include "faults/sbe_log.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/error.hpp"

namespace repro::faults {

namespace {

// Windows that reach before the trace start are truncated at minute 0; a
// genuinely inverted window is a caller bug, not an empty query.
std::pair<Minute, Minute> clamp_window(Minute lo, Minute hi) {
  lo = std::max<Minute>(lo, 0);
  hi = std::max<Minute>(hi, 0);
  REPRO_CHECK_MSG(lo <= hi, "inverted SBE history window");
  return {lo, hi};
}

}  // namespace

SbeLog::SbeLog(std::int32_t total_nodes, std::int32_t total_apps)
    : by_node_(static_cast<std::size_t>(total_nodes)),
      by_app_(static_cast<std::size_t>(total_apps)) {
  REPRO_CHECK(total_nodes > 0 && total_apps > 0);
}

std::size_t SbeLog::Index::lower(Minute t, std::size_t upto) const {
  const auto first = when.begin();
  return static_cast<std::size_t>(
      std::lower_bound(first, first + static_cast<std::ptrdiff_t>(upto), t) -
      first);
}

std::uint64_t SbeLog::Index::between(Minute lo, Minute hi) const {
  const std::size_t i1 = lower(hi, when.size());
  return cum[i1] - cum[lower(lo, i1)];
}

std::uint64_t SbeLog::Index::app_count(workload::AppId a, std::size_t i0,
                                       std::size_t i1) const noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = i0; i < i1; ++i) {
    if (app[i] == a) total += cum[i + 1] - cum[i];
  }
  return total;
}

const SbeLog::Index& SbeLog::node_index(topo::NodeId node) const {
  REPRO_CHECK_MSG(node >= 0 && node < total_nodes(),
                  "SBE query for node " << node << " outside the machine");
  return by_node_[static_cast<std::size_t>(node)];
}

const SbeLog::Index& SbeLog::app_index(workload::AppId app) const {
  REPRO_CHECK_MSG(app >= 0 && app < total_apps(),
                  "SBE query for app " << app << " outside the catalog");
  return by_app_[static_cast<std::size_t>(app)];
}

std::uint64_t SbeLog::global_before(Minute m) const noexcept {
  const auto i = static_cast<std::size_t>(m);
  return i < per_minute_.size() ? per_minute_[i] : total_;
}

void SbeLog::add(const SbeEvent& e) {
  REPRO_CHECK_MSG(e.count > 0, "SbeLog only stores positive observations");
  REPRO_CHECK(e.node >= 0 && e.node < total_nodes());
  REPRO_CHECK(e.app >= 0 && e.app < total_apps());
  REPRO_CHECK_MSG(e.end >= 0 && e.end <= kMaxSbeMinute,
                  "SBE observation at minute " << e.end << " out of range");
  // per_minute_ ends at the latest observation's minute.
  REPRO_CHECK_MSG(static_cast<std::size_t>(e.end) + 1 >= per_minute_.size(),
                  "SBE events must be added in time order");
  events_.push_back(e);
  for (Index* index : {&by_node_[static_cast<std::size_t>(e.node)],
                       &by_app_[static_cast<std::size_t>(e.app)]}) {
    index->when.push_back(e.end);
    index->cum.push_back(index->cum.back() + e.count);
  }
  by_node_[static_cast<std::size_t>(e.node)].app.push_back(e.app);
  // Every earlier observation ends at or before e.end, so each minute
  // after the table's last entry up to e.end has seen all of them.
  per_minute_.resize(static_cast<std::size_t>(e.end) + 1, total_);
  total_ += e.count;
}

SbeHistory SbeLog::history(topo::NodeId node, workload::AppId app,
                           Minute day2, Minute day1, Minute t) const {
  const Index& n = node_index(node);
  const Index& a = app_index(app);
  std::tie(day1, t) = clamp_window(day1, t);
  std::tie(day2, day1) = clamp_window(day2, day1);
  // Each window edge lies at or before the next, so every search is
  // bounded by the previous one's result.
  const std::size_t nt = n.lower(t, n.when.size());
  const std::size_t n1 = n.lower(day1, nt);
  const std::size_t n2 = n.lower(day2, n1);
  const std::size_t at = a.lower(t, a.when.size());
  const std::size_t a1 = a.lower(day1, at);
  const std::uint64_t g2 = global_before(day2);
  const std::uint64_t g1 = global_before(day1);
  return {.node_today = n.cum[nt] - n.cum[n1],
          .node_yesterday = n.cum[n1] - n.cum[n2],
          .node_before = n.cum[n2],
          .global_today = global_before(t) - g1,
          .global_yesterday = g1 - g2,
          .global_before = g2,
          .app_today = a.cum[at] - a.cum[a1],
          .app_node_today = n.app_count(app, n1, nt)};
}

std::uint64_t SbeLog::node_count_between(topo::NodeId node, Minute lo,
                                         Minute hi) const {
  const Index& index = node_index(node);
  const auto [l, h] = clamp_window(lo, hi);
  return index.between(l, h);
}

std::uint64_t SbeLog::app_count_between(workload::AppId app, Minute lo,
                                        Minute hi) const {
  const Index& index = app_index(app);
  const auto [l, h] = clamp_window(lo, hi);
  return index.between(l, h);
}

std::uint64_t SbeLog::global_count_between(Minute lo, Minute hi) const {
  const auto [l, h] = clamp_window(lo, hi);
  return global_before(h) - global_before(l);
}

std::uint64_t SbeLog::app_node_count_between(workload::AppId app,
                                             topo::NodeId node, Minute lo,
                                             Minute hi) const {
  const Index& index = node_index(node);
  app_index(app);  // range check only
  const auto [l, h] = clamp_window(lo, hi);
  const std::size_t i1 = index.lower(h, index.when.size());
  return index.app_count(app, index.lower(l, i1), i1);
}

std::vector<char> SbeLog::offender_mask(Minute lo, Minute hi) const {
  const auto [l, h] = clamp_window(lo, hi);
  std::vector<char> mask(by_node_.size(), 0);
  for (std::size_t n = 0; n < by_node_.size(); ++n) {
    mask[n] = by_node_[n].between(l, h) > 0 ? 1 : 0;
  }
  return mask;
}

SbeSanitizeStats sanitize_events(std::vector<SbeEvent>& events,
                                 std::int32_t total_nodes,
                                 std::int32_t total_apps) {
  SbeSanitizeStats stats;
  // Pass 1: per-record validation. Quarantine anything an index would
  // choke on or that reads as a counter artifact; keep the rest.
  std::size_t w = 0;
  for (std::size_t r = 0; r < events.size(); ++r) {
    const SbeEvent& e = events[r];
    if (e.node < 0 || e.node >= total_nodes || e.app < 0 ||
        e.app >= total_apps) {
      ++stats.out_of_range_dropped;
      continue;
    }
    if (e.start < 0 || e.end < e.start || e.end > kMaxSbeMinute) {
      ++stats.bad_interval_dropped;
      continue;
    }
    if (e.count == 0) {
      ++stats.resets_dropped;
      continue;
    }
    if (e.count > kMaxPlausibleSbeCount) {
      ++stats.rollbacks_dropped;
      continue;
    }
    events[w++] = e;
  }
  events.resize(w);
  // Pass 2: monotonicity repair. The log's contract is non-decreasing
  // observation (`end`) time; a stable sort restores it while preserving
  // the original order of simultaneous observations.
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i].end < events[i - 1].end) ++stats.reordered_repaired;
  }
  if (stats.reordered_repaired > 0) {
    std::stable_sort(events.begin(), events.end(),
                     [](const SbeEvent& a, const SbeEvent& b) {
                       return a.end < b.end;
                     });
  }
  // Pass 3: drop exact duplicates (a duplicated scheduler record yields a
  // byte-identical event; distinct observations at the same minute are
  // legitimate and kept). Duplicates are adjacent after the stable sort
  // only if they were adjacent before it, so scan the whole tie-range.
  w = 0;
  for (std::size_t r = 0; r < events.size(); ++r) {
    const SbeEvent& e = events[r];
    bool dup = false;
    for (std::size_t p = w; p-- > 0 && events[p].end == e.end;) {
      const SbeEvent& q = events[p];
      if (q.run == e.run && q.app == e.app && q.node == e.node &&
          q.start == e.start && q.count == e.count) {
        dup = true;
        break;
      }
    }
    if (dup) {
      ++stats.duplicates_dropped;
      continue;
    }
    events[w++] = e;
  }
  events.resize(w);
  stats.accepted = events.size();
  return stats;
}

SbeLog rebuild_log(std::vector<SbeEvent> events, std::int32_t total_nodes,
                   std::int32_t total_apps, SbeSanitizeStats* stats) {
  const SbeSanitizeStats s =
      sanitize_events(events, total_nodes, total_apps);
  if (stats != nullptr) *stats = s;
  SbeLog log(total_nodes, total_apps);
  for (const SbeEvent& e : events) log.add(e);
  return log;
}

}  // namespace repro::faults
