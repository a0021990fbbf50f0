// The synthetic equivalent of the paper's six-month Titan trace.
//
// A Trace is everything the downstream pipeline consumes:
//  - one RunNodeSample per <application-run, node> pair (the paper's unit
//    of prediction), carrying the raw ingredients of every feature from
//    Sec. V already reduced to window statistics;
//  - the SbeLog (snapshot-semantics SBE observations) for history features
//    and offender sets;
//  - characterization aggregates for the Sec. III figures (cumulative
//    telemetry per node, busy-period temperature/power histograms split by
//    SBE-affected vs SBE-free runs, optional full-resolution node probes).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "faults/sbe_log.hpp"
#include "telemetry/series.hpp"
#include "topology/topology.hpp"
#include "workload/application.hpp"

namespace repro::sim {

/// Pre-run look-back windows (minutes) for temperature/power features
/// (Sec. V-A: "four time windows: 5min, 15min, 30min, and 60min").
inline constexpr std::array<std::size_t, 4> kPreWindowsMin = {5, 15, 30, 60};

/// One <aprun, node> observation — the sample unit of the whole study.
struct RunNodeSample {
  workload::RunId run = -1;
  workload::AppId app = -1;
  workload::AppId prev_app = -1;   ///< app that ran before on this node (-1 none)
  topo::NodeId node = -1;
  /// Explicit zeros where the compiler would pad: save_trace writes
  /// samples raw, so every byte of the record must be determinate.
  std::uint32_t reserved0 = 0;
  Minute start = 0;
  Minute end = 0;

  // Application-level aggregates (identical across the run's samples).
  float runtime_min = 0.0f;
  float num_nodes = 0.0f;
  float gpu_core_hours = 0.0f;
  float total_mem_gb = 0.0f;
  float max_mem_gb = 0.0f;

  // Temporal T/P features: the run itself + four pre-run windows.
  telemetry::FourStats run_gpu_temp;
  telemetry::FourStats run_gpu_power;
  std::array<telemetry::FourStats, kPreWindowsMin.size()> pre_gpu_temp;
  std::array<telemetry::FourStats, kPreWindowsMin.size()> pre_gpu_power;

  /// Raw telemetry tail observed just before the run started (oldest
  /// first, up to kRecentMinutes entries; recent_len says how many are
  /// valid). This is what time-series forecasting of the current-run
  /// features (the paper's "second approach", Sec. VI-A/VIII) consumes.
  static constexpr std::size_t kRecentMinutes = 16;
  std::array<float, kRecentMinutes> recent_gpu_temp{};
  std::array<float, kRecentMinutes> recent_gpu_power{};
  std::uint8_t recent_len = 0;
  std::array<std::uint8_t, 3> reserved1{};

  // Spatial T/P features: same-node CPU and slot-neighbor means during the run.
  telemetry::FourStats run_cpu_temp;
  telemetry::FourStats slot_gpu_temp;
  telemetry::FourStats slot_gpu_power;

  // Label.
  std::uint32_t sbe_count = 0;

  /// Ground truth only (never a feature): the fault model's integrated SBE
  /// rate over the run. 1 - exp(-expected_sbe) is the Bayes-optimal
  /// positive probability; benches use it as the learnability ceiling.
  float expected_sbe = 0.0f;

  [[nodiscard]] bool sbe_affected() const noexcept { return sbe_count > 0; }
};

/// Per-node whole-trace telemetry aggregates (drives Fig 5).
struct NodeCumulative {
  RunningStats gpu_temp;
  RunningStats gpu_power;
  RunningStats cpu_temp;
};

/// Busy-minute T/P distributions per node, split by whether the enclosing
/// run turned out SBE-affected (drives Figs 6-7).
struct NodePeriodHists {
  Histogram temp_free{10.0, 70.0, 60};
  Histogram temp_affected{10.0, 70.0, 60};
  Histogram power_free{0.0, 300.0, 75};
  Histogram power_affected{0.0, 300.0, 75};
};

/// Full-resolution telemetry recorded for explicitly probed nodes (Fig 8).
struct ProbeSeries {
  topo::NodeId node = -1;
  std::vector<float> gpu_temp;    ///< one entry per minute of the trace
  std::vector<float> gpu_power;
  std::vector<float> cpu_temp;
  std::vector<float> slot_avg_temp;   ///< mean over the node's slot peers
  std::vector<float> slot_avg_power;
  std::vector<float> cage_avg_temp;   ///< mean over the node's cage peers
};

struct Trace {
  topo::SystemConfig system;
  workload::AppCatalog catalog;
  Minute duration = 0;

  /// Samples ordered by run end minute (simulation completion order).
  /// core::samples_in binary-searches on this order, read_trace rejects a
  /// payload that breaks it, and ingest only ever drops samples.
  std::vector<RunNodeSample> samples;
  faults::SbeLog sbe_log;
  /// Dirty SBE events awaiting hardened ingest. Normally empty — the
  /// simulator publishes straight into sbe_log. src/inject parks a
  /// corrupted event stream here (resetting sbe_log), and
  /// sim::ingest_trace() folds it back through faults::rebuild_log; until
  /// then history queries see an empty log, never a corrupt index.
  std::vector<faults::SbeEvent> pending_sbe_events;
  std::vector<NodeCumulative> cumulative;     ///< indexed by node
  std::vector<NodePeriodHists> period_hists;  ///< indexed by node
  std::vector<ProbeSeries> probes;

  Trace(topo::SystemConfig sys, workload::AppCatalog cat,
        std::int32_t total_apps)
      : system(sys),
        catalog(std::move(cat)),
        sbe_log(topo::Topology(sys).total_nodes(), total_apps),
        cumulative(static_cast<std::size_t>(topo::Topology(sys).total_nodes())),
        period_hists(
            static_cast<std::size_t>(topo::Topology(sys).total_nodes())) {}

  [[nodiscard]] std::int32_t total_nodes() const {
    return topo::Topology(system).total_nodes();
  }
  /// Fraction of samples with at least one SBE (the class imbalance).
  [[nodiscard]] double positive_rate() const noexcept;
};

}  // namespace repro::sim
