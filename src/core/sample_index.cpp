#include "core/sample_index.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace repro::core {

std::vector<std::size_t> samples_in(const sim::Trace& trace,
                                    Interval window) {
  // Samples are ordered by run end, so the window is one index range.
  const auto& samples = trace.samples;
  const auto first = std::partition_point(
      samples.begin(), samples.end(),
      [&](const sim::RunNodeSample& s) { return s.end < window.begin; });
  const auto last = std::partition_point(
      first, samples.end(),
      [&](const sim::RunNodeSample& s) { return s.end < window.end; });
  std::vector<std::size_t> out(static_cast<std::size_t>(last - first));
  std::iota(out.begin(), out.end(),
            static_cast<std::size_t>(first - samples.begin()));
  return out;
}

std::vector<ml::Label> labels_of(const sim::Trace& trace,
                                 std::span<const std::size_t> idx) {
  std::vector<ml::Label> out;
  out.reserve(idx.size());
  for (const std::size_t i : idx) {
    REPRO_CHECK(i < trace.samples.size());
    out.push_back(trace.samples[i].sbe_affected() ? 1 : 0);
  }
  return out;
}

ml::ClassMetrics evaluate_predictions(const sim::Trace& trace,
                                      std::span<const std::size_t> idx,
                                      std::span<const ml::Label> predicted) {
  const std::vector<ml::Label> truth = labels_of(trace, idx);
  return ml::evaluate(truth, predicted);
}

}  // namespace repro::core
