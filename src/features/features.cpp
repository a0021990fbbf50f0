#include "features/features.hpp"

#include <algorithm>
#include <cmath>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "forecast/forecast.hpp"
#include "obs/obs.hpp"

namespace repro::features {

namespace {

void push_four_stat_names(std::vector<std::string>& names,
                          const std::string& prefix) {
  names.push_back(prefix + "_mean");
  names.push_back(prefix + "_std");
  names.push_back(prefix + "_dmean");
  names.push_back(prefix + "_dstd");
}

inline void emit_four(std::span<float> out, std::size_t& k,
                      const telemetry::FourStats& s) noexcept {
  out[k++] = s.mean;
  out[k++] = s.std;
  out[k++] = s.diff_mean;
  out[k++] = s.diff_std;
}

inline float count_feature(std::uint64_t c) noexcept {
  // Counts enter RAW (not log-transformed): every model sees the same
  // heavy-tailed values, as the paper's pipeline would. Tree models are
  // invariant to monotone transforms; linear models are not — part of why
  // GBDT wins (Fig 10).
  return static_cast<float>(c);
}

}  // namespace

FeatureExtractor::FeatureExtractor(const sim::Trace& trace,
                                   const FeatureSpec& spec)
    : trace_(trace), topology_(trace.system), spec_(spec) {
  REPRO_CHECK_MSG(spec_.mask != 0, "empty feature mask");
  build_names();
}

void FeatureExtractor::build_names() {
  names_.clear();
  const FeatureMask m = spec_.mask;

  if (m & kFeatApp) {
    for (std::size_t b = 0; b < kAppHashBuckets; ++b) {
      names_.push_back("app_hash_" + std::to_string(b));
    }
    for (std::size_t b = 0; b < kPrevAppHashBuckets; ++b) {
      names_.push_back("prev_app_hash_" + std::to_string(b));
    }
    names_.push_back("app_id");
    names_.push_back("prev_app_id");
    names_.push_back("app_runtime_min");
    names_.push_back("app_num_nodes");
    names_.push_back("app_core_hours");
    names_.push_back("app_total_mem");
    names_.push_back("app_max_mem");
  }
  if (m & kFeatLocation) {
    names_.push_back("loc_cab_x");
    names_.push_back("loc_cab_y");
    names_.push_back("loc_cage");
    names_.push_back("loc_slot");
    names_.push_back("loc_node_in_slot");
    names_.push_back("loc_node_id");
    names_.push_back("loc_node_hash");
  }
  if (m & kFeatTpCur) {
    push_four_stat_names(names_, "cur_gpu_temp");
    push_four_stat_names(names_, "cur_gpu_power");
  }
  if (m & kFeatTpPrev) {
    for (const std::size_t w : sim::kPreWindowsMin) {
      push_four_stat_names(names_, "pre" + std::to_string(w) + "_gpu_temp");
      push_four_stat_names(names_, "pre" + std::to_string(w) + "_gpu_power");
    }
  }
  if (m & kFeatTpNei) {
    push_four_stat_names(names_, "cur_cpu_temp");
    push_four_stat_names(names_, "slot_gpu_temp");
    push_four_stat_names(names_, "slot_gpu_power");
  }
  if (m & kFeatHistLocalToday) names_.push_back("hist_node_today");
  if (m & kFeatHistLocalYesterday) names_.push_back("hist_node_yesterday");
  if (m & kFeatHistLocalBefore) names_.push_back("hist_node_before");
  if (m & kFeatHistGlobalToday) names_.push_back("hist_global_today");
  if (m & kFeatHistGlobalYesterday) names_.push_back("hist_global_yesterday");
  if (m & kFeatHistGlobalBefore) names_.push_back("hist_global_before");
  if (m & kFeatHistApp) {
    names_.push_back("hist_app_today");
    names_.push_back("hist_app_node_today");
  }
}

void FeatureExtractor::extract(const sim::RunNodeSample& s,
                               std::span<float> out) const {
  REPRO_CHECK_MSG(out.size() == names_.size(), "output width mismatch");
  const FeatureMask m = spec_.mask;
  std::size_t k = 0;

  if (m & kFeatApp) {
    for (std::size_t b = 0; b < kAppHashBuckets; ++b) out[k + b] = 0.0f;
    out[k + hash64(static_cast<std::uint64_t>(s.app)) % kAppHashBuckets] = 1.0f;
    k += kAppHashBuckets;
    for (std::size_t b = 0; b < kPrevAppHashBuckets; ++b) out[k + b] = 0.0f;
    if (s.prev_app >= 0) {
      out[k + hash64(static_cast<std::uint64_t>(s.prev_app)) %
                  kPrevAppHashBuckets] = 1.0f;
    }
    k += kPrevAppHashBuckets;
    out[k++] = static_cast<float>(s.app);
    out[k++] = static_cast<float>(s.prev_app);
    out[k++] = s.runtime_min;
    out[k++] = s.num_nodes;
    out[k++] = s.gpu_core_hours;
    out[k++] = s.total_mem_gb;
    out[k++] = s.max_mem_gb;
  }
  if (m & kFeatLocation) {
    const auto addr = topology_.address_of(s.node);
    out[k++] = static_cast<float>(addr.cab_x);
    out[k++] = static_cast<float>(addr.cab_y);
    out[k++] = static_cast<float>(addr.cage);
    out[k++] = static_cast<float>(addr.slot);
    out[k++] = static_cast<float>(addr.node);
    out[k++] = static_cast<float>(s.node);
    out[k++] = static_cast<float>(
        static_cast<double>(hash64(static_cast<std::uint64_t>(s.node))) /
        18446744073709551616.0);
  }
  if (m & kFeatTpCur) {
    if (spec_.forecast_current_run) {
      const std::span<const float> temp_hist(s.recent_gpu_temp.data(),
                                             s.recent_len);
      const std::span<const float> power_hist(s.recent_gpu_power.data(),
                                              s.recent_len);
      // runtime_min is a float from the workload model; a negative or NaN
      // value would wrap to a huge size_t and the forecast would allocate
      // a buffer of that length. Clamp to [0, two weeks].
      constexpr float kMaxForecastHorizonMin =
          static_cast<float>(14 * kMinutesPerDay);
      const float rt =
          std::isfinite(s.runtime_min)
              ? std::clamp(s.runtime_min, 0.0f, kMaxForecastHorizonMin)
              : 0.0f;
      const auto horizon = static_cast<std::size_t>(rt);
      emit_four(out, k, forecast::forecast_run_stats(temp_hist, horizon));
      emit_four(out, k, forecast::forecast_run_stats(power_hist, horizon));
    } else {
      emit_four(out, k, s.run_gpu_temp);
      emit_four(out, k, s.run_gpu_power);
    }
  }
  if (m & kFeatTpPrev) {
    for (std::size_t w = 0; w < sim::kPreWindowsMin.size(); ++w) {
      emit_four(out, k, s.pre_gpu_temp[w]);
      emit_four(out, k, s.pre_gpu_power[w]);
    }
  }
  if (m & kFeatTpNei) {
    emit_four(out, k, s.run_cpu_temp);
    emit_four(out, k, s.slot_gpu_temp);
    emit_four(out, k, s.slot_gpu_power);
  }

  // SBE history, visible strictly before the run starts (snapshot
  // semantics are already enforced by SbeLog's observation times).
  // Clamp the window starts to 0: a run in the trace's first two days has
  // day1/day2 before minute zero.
  if (m & kGroupHist) {
    const Minute t = s.start;
    const faults::SbeHistory h = trace_.sbe_log.history(
        s.node, s.app, std::max<Minute>(t - 2 * kMinutesPerDay, 0),
        std::max<Minute>(t - kMinutesPerDay, 0), t);
    if (m & kFeatHistLocalToday) out[k++] = count_feature(h.node_today);
    if (m & kFeatHistLocalYesterday) out[k++] = count_feature(h.node_yesterday);
    if (m & kFeatHistLocalBefore) out[k++] = count_feature(h.node_before);
    if (m & kFeatHistGlobalToday) out[k++] = count_feature(h.global_today);
    if (m & kFeatHistGlobalYesterday) {
      out[k++] = count_feature(h.global_yesterday);
    }
    if (m & kFeatHistGlobalBefore) out[k++] = count_feature(h.global_before);
    if (m & kFeatHistApp) {
      out[k++] = count_feature(h.app_today);
      out[k++] = count_feature(h.app_node_today);
    }
  }
  REPRO_CHECK_MSG(k == names_.size(), "feature emission mismatch");

  // Last-line defense: non-finite values must never reach a learner (GBDT
  // split finding and the scaler both silently misbehave on NaN). A clean
  // trace emits only finite values, so a branch-free check over the row
  // comes first; a sample that bypassed sim::ingest_trace (or a forecast
  // over a NaN-holed tail) gets its non-finite values imputed to 0 and
  // counted.
  bool finite = true;
  for (const float v : out) finite &= std::isfinite(v);
  if (finite) return;
  std::size_t scrubbed = 0;
  for (float& v : out) {
    if (!std::isfinite(v)) {
      v = 0.0f;
      ++scrubbed;
    }
  }
  OBS_COUNT_ADD("features.values_imputed", scrubbed);
}

ml::Dataset FeatureExtractor::build(
    std::span<const std::size_t> sample_idx) const {
  OBS_SPAN("features.build");
  OBS_COUNT_ADD("features.rows_built", sample_idx.size());
  ml::Dataset d;
  d.feature_names = names_;
  d.X = ml::Matrix(sample_idx.size(), dim());
  d.y.assign(sample_idx.size(), 0);
  // Rows are independent and written disjointly; extract() is const.
  parallel_for(sample_idx.size(), 64, [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      REPRO_CHECK(sample_idx[r] < trace_.samples.size());
      const sim::RunNodeSample& s = trace_.samples[sample_idx[r]];
      extract(s, d.X.row(r));
      d.y[r] = s.sbe_affected() ? 1 : 0;
    }
  });
  return d;
}

}  // namespace repro::features
