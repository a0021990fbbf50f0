#include "faults/sbe_model.hpp"

#include <cmath>

namespace repro::faults {

SbeModel::SbeModel(const topo::Topology& topology,
                   const workload::AppCatalog& catalog,
                   const FaultParams& params, Rng rng)
    : params_(params) {
  const auto n = static_cast<std::size_t>(topology.total_nodes());
  node_scale_pre_.resize(n);
  node_scale_post_.resize(n);

  Rng node_rng = rng.fork(0x5BE0);
  for (std::size_t i = 0; i < n; ++i) {
    const bool offender = node_rng.bernoulli(params_.node_offender_fraction);
    node_scale_pre_[i] = static_cast<float>(
        offender
            ? node_rng.lognormal(params_.node_scale_mu, params_.node_scale_sigma)
            : params_.floor_scale);
  }
  // Drift: resample susceptibility for a fraction of nodes. Some previous
  // offenders go quiet, some previously clean nodes start erring.
  Rng drift_rng = rng.fork(0xD21F7);
  for (std::size_t i = 0; i < n; ++i) {
    if (drift_rng.bernoulli(params_.drift_node_fraction)) {
      const bool offender = drift_rng.bernoulli(params_.node_offender_fraction);
      node_scale_post_[i] = static_cast<float>(
          offender ? drift_rng.lognormal(params_.node_scale_mu,
                                         params_.node_scale_sigma)
                   : params_.floor_scale);
    } else {
      node_scale_post_[i] = node_scale_pre_[i];
    }
  }

  app_scale_.resize(catalog.size());
  Rng app_rng = rng.fork(0xA44);
  for (std::size_t a = 0; a < catalog.size(); ++a) {
    const auto& spec = catalog.spec(static_cast<workload::AppId>(a));
    // Susceptibility grows with the app's resident memory (more bits
    // exposed) and utilization (more activity), with a heavy lognormal tail.
    const double pop = catalog.popularity(static_cast<workload::AppId>(a)) *
                       static_cast<double>(catalog.size());
    // Scale coupling uses the app's typical breadth (node count), not its
    // runtime: exposure time already multiplies the rate minute by minute.
    const double run_scale =
        (static_cast<double>(spec.min_nodes + spec.max_nodes) / 2.0) / 6.0;
    const double base = std::pow(spec.mem_mean_gb, params_.mem_exponent) *
                        std::pow(spec.util_mean, params_.util_exponent) *
                        std::pow(run_scale, params_.scale_exponent) *
                        std::pow(pop, params_.popularity_exponent) *
                        app_rng.lognormal(0.0, params_.app_scale_sigma);
    const double heavy_p = std::min(
        0.9, params_.app_heavy_fraction *
                 std::pow(pop, params_.heavy_pop_exponent));
    const bool heavy = app_rng.bernoulli(heavy_p);
    app_scale_[a] =
        static_cast<float>(heavy ? base : base * params_.app_floor_scale);
  }
  app_burst_median_.resize(catalog.size());
  for (std::size_t a = 0; a < catalog.size(); ++a) {
    app_burst_median_[a] = static_cast<float>(std::max(
        1.0, params_.burst_per_gb * catalog.spec(static_cast<workload::AppId>(a)).mem_mean_gb));
  }
}

double SbeModel::run_luck(workload::RunId run,
                          topo::NodeId node) const noexcept {
  // Deterministic "randomness": two independent uniforms from the pair's
  // hash, Box-Muller'd into a normal deviate.
  const std::uint64_t h1 = hash_combine(static_cast<std::uint64_t>(run),
                                        static_cast<std::uint64_t>(node));
  const std::uint64_t h2 = hash64(h1 ^ 0x1CEB00DAULL);
  const double u1 =
      (static_cast<double>(h1 >> 11) + 0.5) * 0x1.0p-53;
  const double u2 = static_cast<double>(h2 >> 11) * 0x1.0p-53;
  const double z = std::sqrt(-2.0 * std::log(u1)) *
                   std::cos(2.0 * 3.141592653589793 * u2);
  return std::exp(params_.run_luck_sigma * z);
}

std::uint32_t SbeModel::burst_size(workload::AppId app,
                                   Rng& rng) const noexcept {
  const double median = app_burst_median_[static_cast<std::size_t>(app)];
  const double v = median * std::exp(rng.normal(0.0, params_.burst_sigma));
  return v < 1.0 ? 1u : static_cast<std::uint32_t>(v);
}

double SbeModel::minute_rate(topo::NodeId node, workload::AppId app,
                             const telemetry::Reading& r, Minute now,
                             bool recent_sbe) const noexcept {
  const auto ni = static_cast<std::size_t>(node);
  const double s_node = day_of(now) >= params_.drift_day
                            ? node_scale_post_[ni]
                            : node_scale_pre_[ni];
  const double s_app = app_scale_[static_cast<std::size_t>(app)];
  const double hot = r.gpu_temp > params_.temp_knee_c
                         ? std::pow(r.gpu_temp - params_.temp_knee_c,
                                    params_.temp_shape)
                         : 0.0;
  const double env =
      std::exp(params_.temp_coeff * hot +
               params_.power_coeff * (r.gpu_power - params_.power_ref_w));
  const double burst = recent_sbe ? 1.0 + params_.burst_boost : 1.0;
  const double raw = params_.base_rate_per_min * s_node * s_app * env * burst;
  const double cap = params_.rate_cap_per_min;
  return cap * raw / (cap + raw);
}

std::uint32_t SbeModel::draw(double lambda, Rng& rng) noexcept {
  if (lambda <= 0.0) return 0;
  // Fast path: most minutes have rate << 1; one uniform decides "no event".
  if (lambda < 0.05) {
    if (rng.uniform() >= lambda) return 0;
    // Conditioned on >= 1 event at tiny rate, 1 event dominates.
    return 1;
  }
  return static_cast<std::uint32_t>(rng.poisson(lambda));
}

bool SbeModel::node_is_susceptible(topo::NodeId node, Minute now) const {
  const auto ni = static_cast<std::size_t>(node);
  REPRO_CHECK(ni < node_scale_pre_.size());
  const double s = day_of(now) >= params_.drift_day ? node_scale_post_[ni]
                                                    : node_scale_pre_[ni];
  return s > params_.floor_scale;
}

double SbeModel::app_scale(workload::AppId app) const {
  const auto ai = static_cast<std::size_t>(app);
  REPRO_CHECK(ai < app_scale_.size());
  return app_scale_[ai];
}

}  // namespace repro::faults
