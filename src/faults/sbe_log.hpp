// Append-only log of SBE observations with the paper's snapshot semantics:
// counts become visible at the END minute of the aprun that produced them
// (nvidia-smi is read before/after each batch job, Sec. II). All history
// features and the stage-1 offender filter query this log, so prediction
// never sees information that would not have been available at that time.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "topology/topology.hpp"
#include "workload/application.hpp"
#include "workload/scheduler.hpp"

namespace repro::faults {

/// One positive SBE observation: `count` errors attributed to (run, node).
struct SbeEvent {
  workload::RunId run = -1;
  workload::AppId app = -1;
  topo::NodeId node = -1;
  Minute start = 0;      ///< aprun start
  Minute end = 0;        ///< aprun end == observation time
  std::uint32_t count = 0;
  /// Fills the tail so the record has no padding: save_trace writes events
  /// raw, and padding would carry indeterminate bytes into the cache file.
  std::uint32_t reserved = 0;
};

/// Latest observation minute SbeLog accepts: ten years. Its machine-wide
/// prefix table holds one 8-byte entry per minute up to the latest
/// observation (1.2 MB for the 102-day paper trace), so an unbounded
/// minute from a dirty stream could demand any amount of memory.
inline constexpr Minute kMaxSbeMinute = 10 * 365 * kMinutesPerDay;

/// The eight SBE-history counts of one sample (paper Sec. V-B) that starts
/// at minute t, over the windows before = [0, day2), yesterday =
/// [day2, day1) and today = [day1, t).
struct SbeHistory {
  std::uint64_t node_today = 0, node_yesterday = 0, node_before = 0;
  std::uint64_t global_today = 0, global_yesterday = 0, global_before = 0;
  std::uint64_t app_today = 0;       ///< app across all nodes, today
  std::uint64_t app_node_today = 0;  ///< app on the sample's node, today
};

/// Indexed SBE history. Every query clamps its window bounds at minute 0,
/// and throws CheckError on an inverted window or a node/app id outside
/// the machine. Node and app windows cost a binary search per bound over
/// that node's or app's observations; machine-wide windows cost two loads
/// from a per-minute prefix table.
class SbeLog {
 public:
  explicit SbeLog(std::int32_t total_nodes, std::int32_t total_apps);

  /// Events must arrive in non-decreasing `end` order (simulation order),
  /// with 0 <= end <= kMaxSbeMinute and count > 0.
  void add(const SbeEvent& e);

  /// All eight history counts of a sample of `app` on `node` starting at
  /// `t`, in one pass: requires day2 <= day1 <= t (after clamping at 0).
  [[nodiscard]] SbeHistory history(topo::NodeId node, workload::AppId app,
                                   Minute day2, Minute day1, Minute t) const;

  /// Total SBE count observed on `node` in observation window [lo, hi).
  [[nodiscard]] std::uint64_t node_count_between(topo::NodeId node, Minute lo,
                                                 Minute hi) const;
  /// Total SBE count of `app` (across all nodes) observed in [lo, hi).
  [[nodiscard]] std::uint64_t app_count_between(workload::AppId app, Minute lo,
                                                Minute hi) const;
  /// Machine-wide SBE count observed in [lo, hi).
  [[nodiscard]] std::uint64_t global_count_between(Minute lo, Minute hi) const;
  /// SBE count of (app, node) pairs observed in [lo, hi).
  [[nodiscard]] std::uint64_t app_node_count_between(workload::AppId app,
                                                     topo::NodeId node,
                                                     Minute lo,
                                                     Minute hi) const;

  /// Per-node flag vector: node saw >= 1 SBE in [lo, hi). This is the
  /// paper's stage-1 "SBE offender node" set for a training window.
  [[nodiscard]] std::vector<char> offender_mask(Minute lo, Minute hi) const;

  [[nodiscard]] const std::vector<SbeEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::vector<SbeEvent> take_events() && noexcept {
    return std::move(events_);
  }
  [[nodiscard]] std::int32_t total_nodes() const noexcept {
    return static_cast<std::int32_t>(by_node_.size());
  }
  [[nodiscard]] std::int32_t total_apps() const noexcept {
    return static_cast<std::int32_t>(by_app_.size());
  }

 private:
  // One node's or app's observations in time order. cum[i] is the count
  // of the first i observations, so [i0, i1) holds cum[i1] - cum[i0].
  struct Index {
    std::vector<Minute> when;
    std::vector<std::uint64_t> cum{0};
    std::vector<workload::AppId> app;  // per observation; by_node_ only
    /// Position of the first observation at or after `t` in [0, upto).
    [[nodiscard]] std::size_t lower(Minute t, std::size_t upto) const;
    [[nodiscard]] std::uint64_t between(Minute lo, Minute hi) const;
    /// Count of the observations of app `a` at positions [i0, i1).
    [[nodiscard]] std::uint64_t app_count(workload::AppId a, std::size_t i0,
                                          std::size_t i1) const noexcept;
  };

  /// The id's index; throws CheckError for an id outside the machine.
  const Index& node_index(topo::NodeId node) const;
  const Index& app_index(workload::AppId app) const;
  /// Machine-wide count observed before minute m >= 0.
  [[nodiscard]] std::uint64_t global_before(Minute m) const noexcept;

  std::vector<SbeEvent> events_;
  std::vector<Index> by_node_;
  std::vector<Index> by_app_;
  // per_minute_[m] = machine-wide count observed before minute m, for m up
  // to the latest observation; total_ covers every later minute.
  std::vector<std::uint64_t> per_minute_;
  std::uint64_t total_ = 0;
};

// --- hardened ingest --------------------------------------------------------

/// Counts above this are physically implausible for one aprun and read as a
/// counter rollback (nvidia-smi SBE counters reset on reboot; the next
/// delta against the stale baseline underflows to a huge unsigned value).
inline constexpr std::uint32_t kMaxPlausibleSbeCount = 1u << 20;

/// Reason-coded outcome of sanitizing one batch of possibly-dirty SBE
/// events. `accepted` events satisfy every SbeLog invariant; everything
/// else was either repaired in place (still accepted, but counted) or
/// quarantined (dropped).
struct SbeSanitizeStats {
  std::uint64_t accepted = 0;
  std::uint64_t reordered_repaired = 0;   ///< out of time order; sorted back
  std::uint64_t duplicates_dropped = 0;   ///< byte-identical repeat records
  std::uint64_t resets_dropped = 0;       ///< count == 0 (counter reset)
  std::uint64_t rollbacks_dropped = 0;    ///< count > kMaxPlausibleSbeCount
  std::uint64_t out_of_range_dropped = 0; ///< node/app outside the machine
  std::uint64_t bad_interval_dropped = 0; ///< end < start, negative times
                                          ///< or end > kMaxSbeMinute

  [[nodiscard]] std::uint64_t quarantined() const noexcept {
    return duplicates_dropped + resets_dropped + rollbacks_dropped +
           out_of_range_dropped + bad_interval_dropped;
  }
};

/// Repairs `events` in place so the survivors satisfy every SbeLog
/// invariant: range checks, count > 0, plausible magnitude, stable
/// time-ordering (monotonicity repair), exact-duplicate removal. Always
/// deterministic — same input produces the same survivors and stats at any
/// thread count (the pass is serial and order-stable).
SbeSanitizeStats sanitize_events(std::vector<SbeEvent>& events,
                                 std::int32_t total_nodes,
                                 std::int32_t total_apps);

/// Builds an SbeLog from a possibly-dirty event batch: sanitize_events()
/// then add() every survivor. The hardened entry for untrusted logs —
/// SbeLog::add itself stays strict (REPRO_CHECK) for simulator-built logs.
SbeLog rebuild_log(std::vector<SbeEvent> events, std::int32_t total_nodes,
                   std::int32_t total_apps, SbeSanitizeStats* stats = nullptr);

}  // namespace repro::faults
