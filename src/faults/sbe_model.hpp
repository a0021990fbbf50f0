// Generative model of GPU single-bit errors (SBEs).
//
// This replaces the closed-source ground truth (Titan's nvidia-smi SBE
// counters). The generator is built so that the synthetic trace exhibits
// every statistical property the paper's characterization (Sec. III) and
// prediction pipeline rely on:
//
//  - Offender concentration (Fig 1): only a small fraction of nodes has a
//    non-negligible susceptibility (lognormal scale among offenders), and
//    offenders do not error uniformly over days (rates are low enough that
//    most offender-days are error-free).
//  - Application concentration (Figs 2-4): per-application susceptibility
//    is heavy-tailed and grows with the app's GPU memory footprint and
//    utilization, giving the positive SBE-vs-core-hours / SBE-vs-memory
//    rank correlations of Fig 4.
//  - Temperature/power coupling (Figs 6-7): the instantaneous SBE rate is
//    exponential in GPU temperature and mildly in power, so SBE-affected
//    periods are hotter/hungrier on average without a hard threshold.
//  - Temporal burstiness (SBE history features): a node that erred in the
//    last 24 hours has an elevated rate.
//  - Concept drift (DS3 hardness, Table II): at drift_day a fraction of
//    node susceptibilities is resampled, so models trained before the
//    drift degrade on post-drift test windows.
//
// The per-minute SBE count of a busy node is Poisson with rate
//   lambda = s_node(t) * s_app * exp(cT*(T - Tref) + cP*(P - Pref))
//            * (1 + burst * had_sbe_last_24h).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "telemetry/store.hpp"
#include "topology/topology.hpp"
#include "workload/application.hpp"
#include "workload/scheduler.hpp"

namespace repro::faults {

struct FaultParams {
  double node_offender_fraction = 0.035; ///< nodes with real susceptibility
  double node_scale_mu = 1.0;           ///< lognormal mu of offender scale
  double node_scale_sigma = 2.0;        ///< lognormal sigma of offender scale
  double floor_scale = 1e-5;            ///< tiny rate for non-offenders

  double app_heavy_fraction = 0.15;     ///< apps with real susceptibility
  double app_scale_sigma = 1.0;         ///< lognormal sigma across heavy apps
  double app_floor_scale = 0.01;        ///< multiplier for non-heavy apps
  /// P(app is heavy) = min(0.9, app_heavy_fraction * (pop*N)^e): the
  /// heavily-used codes are the SBE-prone ones. Without this, popular but
  /// immune apps dominate total core-hours and flip Fig 4's correlation.
  double heavy_pop_exponent = 0.5;
  double mem_exponent = 0.7;            ///< susceptibility ~ mem^a
  double util_exponent = 2.2;           ///< susceptibility ~ util^b
  /// Susceptibility also grows with the app's scale (typical runtime x
  /// node count): big long-running codes stress more memory for longer,
  /// which is what gives Fig 4's POSITIVE rank correlation between
  /// per-core-hour SBE rate and total core-hours / memory.
  double scale_exponent = 1.2;
  /// Hidden per-<run, node> rate multiplier exp(N(0, sigma)): the part of
  /// SBE proneness no telemetry observes (input data patterns, resident
  /// bit values, flux). This bounds what ANY feature-based predictor can
  /// achieve — the gap between the paper's GBDT (F1 0.81) and perfection.
  double run_luck_sigma = 1.4;
  /// Susceptibility ~ (normalized popularity)^c: the heavily-used large
  /// scientific codes are the SBE-prone ones, which concentrates SBEs in
  /// the head of the app ranking (Fig 3) and makes the per-core-hour SBE
  /// rate rank-correlate POSITIVELY with total core-hours/memory (Fig 4).
  double popularity_exponent = 0.5;

  double base_rate_per_min = 1.2e-4;    ///< overall rate calibration knob    ///< overall rate calibration knob
  // Temperature response: rate multiplier exp(cT * max(0, T-knee)^shape).
  // The knee+superlinear shape is what makes the task genuinely nonlinear
  // (a linear model over mean temperature cannot represent it), matching
  // the paper's finding that no hard threshold exists yet hot periods err
  // more (Sec. III-C2) and that GBDT beats LR by a wide margin (Fig 10).
  double temp_coeff = 0.03;             ///< scale of the knee response
  double temp_knee_c = 40.0;            ///< response starts above this
  double temp_shape = 1.6;              ///< superlinear exponent
  double power_coeff = 0.003;           ///< 1/W, mild linear term
  double power_ref_w = 120.0;
  double burst_boost = 4.0;             ///< extra rate after a recent SBE
  /// Soft saturation of the per-minute event rate (Michaelis-Menten:
  /// lambda_eff = cap * lambda / (cap + lambda)). A GPU has finitely many
  /// weak cells, so the event process saturates; without this, hot
  /// node/app pairs accumulate enormous expected counts and every sample
  /// becomes deterministic (no model separation, unlike Fig 10).
  double rate_cap_per_min = 0.007;

  // Counter burst sizes. One fault event increments the nvidia-smi SBE
  // counter many times (repeated corrections of the same weak cell while
  // the data stays resident), so per-run counts span orders of magnitude
  // like the paper's Fig 4 axes (1e-5..1e2 after core-hour
  // normalization). The burst median grows with the app's resident memory.
  double burst_per_gb = 6.0;            ///< median counter increments per GB
  double burst_sigma = 1.2;             ///< lognormal sigma of burst size

  std::int64_t drift_day = 1'000'000;   ///< day the machine "changes"
  double drift_node_fraction = 0.35;    ///< offender susceptibility resampled
};

/// Ground-truth susceptibilities + per-minute rate evaluation.
class SbeModel {
 public:
  SbeModel(const topo::Topology& topology,
           const workload::AppCatalog& catalog, const FaultParams& params,
           Rng rng);

  /// Per-minute Poisson rate for a busy node.
  /// `recent_sbe` is whether the node logged an SBE in the past 24 hours.
  [[nodiscard]] double minute_rate(topo::NodeId node, workload::AppId app,
                                   const telemetry::Reading& r, Minute now,
                                   bool recent_sbe) const noexcept;

  /// Draws a Poisson count for a precomputed rate (fast path for rates
  /// well below 1, exact Poisson otherwise).
  static std::uint32_t draw(double lambda, Rng& rng) noexcept;

  /// Counter increments produced by one fault event of this application.
  [[nodiscard]] std::uint32_t burst_size(workload::AppId app,
                                         Rng& rng) const noexcept;

  /// Deterministic hidden multiplier for a <run, node> pair (part of the
  /// ground-truth rate; never exposed as a feature).
  [[nodiscard]] double run_luck(workload::RunId run,
                                topo::NodeId node) const noexcept;

  /// Ground truth (hidden from the predictor; used by tests/calibration).
  [[nodiscard]] bool node_is_susceptible(topo::NodeId node,
                                         Minute now) const;
  [[nodiscard]] double app_scale(workload::AppId app) const;

  [[nodiscard]] const FaultParams& params() const noexcept { return params_; }

 private:
  FaultParams params_;
  std::vector<float> node_scale_pre_;   ///< susceptibility before drift
  std::vector<float> node_scale_post_;  ///< susceptibility after drift
  std::vector<float> app_scale_;
  std::vector<float> app_burst_median_;
};

}  // namespace repro::faults
