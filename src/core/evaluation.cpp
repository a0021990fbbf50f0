#include "core/evaluation.hpp"

#include <algorithm>

#include "common/stats.hpp"
#include "topology/topology.hpp"

namespace repro::core {

std::vector<double> CabinetCounts::differences() const {
  std::vector<double> out(ground_truth.size());
  for (std::size_t c = 0; c < out.size(); ++c) {
    out[c] = ground_truth[c] - predicted[c];
  }
  return out;
}

CabinetCounts cabinet_counts(const sim::Trace& trace,
                             std::span<const std::size_t> idx,
                             std::span<const ml::Label> predicted) {
  REPRO_CHECK(idx.size() == predicted.size());
  const topo::Topology topology(trace.system);
  const auto cabs = static_cast<std::size_t>(topology.config().cabinets());
  CabinetCounts out;
  out.ground_truth.assign(cabs, 0.0);
  out.predicted.assign(cabs, 0.0);
  out.true_positives.assign(cabs, 0.0);
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const sim::RunNodeSample& s = trace.samples[idx[k]];
    const auto cab = static_cast<std::size_t>(topology.cabinet_of(s.node));
    const bool truth = s.sbe_affected();
    const bool pred = predicted[k] != 0;
    if (truth) out.ground_truth[cab] += 1.0;
    if (pred) out.predicted[cab] += 1.0;
    if (truth && pred) out.true_positives[cab] += 1.0;
  }
  return out;
}

RuntimeBreakdown runtime_breakdown(const sim::Trace& trace,
                                   std::span<const std::size_t> idx,
                                   std::span<const ml::Label> predicted) {
  REPRO_CHECK(idx.size() == predicted.size());
  std::vector<double> runtimes;
  runtimes.reserve(idx.size());
  for (const std::size_t i : idx) {
    runtimes.push_back(trace.samples[i].runtime_min);
  }
  RuntimeBreakdown out;
  out.short_cutoff_min = quantile(runtimes, 0.25);
  out.long_cutoff_min = quantile(runtimes, 0.75);

  ml::Confusion all, shrt, lng;
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const sim::RunNodeSample& s = trace.samples[idx[k]];
    const bool truth = s.sbe_affected();
    const bool pred = predicted[k] != 0;
    all.add(truth, pred);
    if (s.runtime_min <= out.short_cutoff_min) shrt.add(truth, pred);
    if (s.runtime_min >= out.long_cutoff_min) lng.add(truth, pred);
  }
  out.all = ml::pr_metrics(all.tp, all.fp, all.fn);
  out.short_running = ml::pr_metrics(shrt.tp, shrt.fp, shrt.fn);
  out.long_running = ml::pr_metrics(lng.tp, lng.fp, lng.fn);
  return out;
}

SeverityBreakdown severity_breakdown(const sim::Trace& trace,
                                     std::span<const std::size_t> idx,
                                     std::span<const ml::Label> predicted) {
  REPRO_CHECK(idx.size() == predicted.size());
  std::vector<double> counts;
  for (const std::size_t i : idx) {
    if (trace.samples[i].sbe_affected()) {
      counts.push_back(static_cast<double>(trace.samples[i].sbe_count));
    }
  }
  SeverityBreakdown out;
  if (counts.empty()) return out;
  std::sort(counts.begin(), counts.end());
  out.cutoffs = {quantile_sorted(counts, 0.25), quantile_sorted(counts, 0.50),
                 quantile_sorted(counts, 0.75)};

  std::array<std::size_t, 4> correct{};
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const sim::RunNodeSample& s = trace.samples[idx[k]];
    if (!s.sbe_affected()) continue;
    const auto c = static_cast<double>(s.sbe_count);
    std::size_t level = 0;
    if (c > out.cutoffs[2]) {
      level = 3;
    } else if (c > out.cutoffs[1]) {
      level = 2;
    } else if (c > out.cutoffs[0]) {
      level = 1;
    }
    ++out.counts[level];
    if (predicted[k] != 0) ++correct[level];
  }
  for (std::size_t l = 0; l < 4; ++l) {
    out.correct_fraction[l] =
        out.counts[l] == 0 ? 0.0
                           : static_cast<double>(correct[l]) /
                                 static_cast<double>(out.counts[l]);
  }
  return out;
}

}  // namespace repro::core
