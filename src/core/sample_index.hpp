// Sample selection utilities shared by predictors and benches: which
// RunNodeSamples of a trace fall into a time window, and evaluation of a
// prediction vector against ground-truth labels.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/metrics.hpp"
#include "sim/trace.hpp"

namespace repro::core {

/// Indices of samples whose run ENDS inside [window.begin, window.end).
/// (The label is observed at run end, so a sample belongs to the period in
/// which its nvidia-smi snapshot was taken.) Relies on trace.samples being
/// ordered by run end (see sim::Trace): O(log n) plus the output size.
std::vector<std::size_t> samples_in(const sim::Trace& trace, Interval window);

/// Ground-truth labels for the given sample indices.
std::vector<ml::Label> labels_of(const sim::Trace& trace,
                                 std::span<const std::size_t> idx);

/// Two-class metrics of `predicted` against the samples' ground truth.
ml::ClassMetrics evaluate_predictions(const sim::Trace& trace,
                                      std::span<const std::size_t> idx,
                                      std::span<const ml::Label> predicted);

}  // namespace repro::core
