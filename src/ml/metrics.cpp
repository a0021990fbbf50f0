#include "ml/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/error.hpp"

namespace repro::ml {

void Confusion::add(bool truth, bool predicted) noexcept {
  if (truth) {
    predicted ? ++tp : ++fn;
  } else {
    predicted ? ++fp : ++tn;
  }
}

PrMetrics pr_metrics(std::uint64_t tp, std::uint64_t fp, std::uint64_t fn) {
  PrMetrics m;
  const double dtp = static_cast<double>(tp);
  m.precision = tp + fp == 0 ? 0.0 : dtp / static_cast<double>(tp + fp);
  m.recall = tp + fn == 0 ? 0.0 : dtp / static_cast<double>(tp + fn);
  m.f1 = m.precision + m.recall == 0.0
             ? 0.0
             : 2.0 * m.precision * m.recall / (m.precision + m.recall);
  return m;
}

ClassMetrics evaluate(std::span<const std::uint8_t> truth,
                      std::span<const std::uint8_t> predicted) {
  REPRO_CHECK(truth.size() == predicted.size());
  ClassMetrics out;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    out.confusion.add(truth[i] != 0, predicted[i] != 0);
  }
  const Confusion& c = out.confusion;
  out.positive = pr_metrics(c.tp, c.fp, c.fn);
  // The negative class's "true positives" are the true negatives.
  out.negative = pr_metrics(c.tn, c.fn, c.fp);
  out.accuracy = c.total() == 0 ? 0.0
                                : static_cast<double>(c.tp + c.tn) /
                                      static_cast<double>(c.total());
  return out;
}

ClassMetrics evaluate_proba(std::span<const std::uint8_t> truth,
                            std::span<const float> proba, float threshold) {
  REPRO_CHECK(truth.size() == proba.size());
  std::vector<std::uint8_t> pred(truth.size());
  for (std::size_t i = 0; i < proba.size(); ++i) {
    pred[i] = proba[i] >= threshold ? 1 : 0;
  }
  return evaluate(truth, pred);
}

double brier_score(std::span<const std::uint8_t> truth,
                   std::span<const float> proba) {
  REPRO_CHECK(truth.size() == proba.size());
  if (truth.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const double e = static_cast<double>(proba[i]) - (truth[i] != 0 ? 1.0 : 0.0);
    sum += e * e;
  }
  return sum / static_cast<double>(truth.size());
}

double roc_auc(std::span<const std::uint8_t> truth,
               std::span<const float> proba) {
  REPRO_CHECK(truth.size() == proba.size());
  const std::size_t n = truth.size();
  std::uint64_t pos = 0;
  for (const auto t : truth) pos += t != 0 ? 1 : 0;
  const std::uint64_t neg = n - pos;
  if (pos == 0 || neg == 0) return 0.5;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return proba[a] < proba[b];
  });
  // Midrank over tie groups: every member of a group of equal scores gets
  // the mean of the ranks the group spans (1-based ranks).
  double pos_rank_sum = 0.0;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j < n && proba[order[j]] == proba[order[i]]) ++j;
    const double midrank = 0.5 * (static_cast<double>(i + 1) +
                                  static_cast<double>(j));
    for (std::size_t k = i; k < j; ++k) {
      if (truth[order[k]] != 0) pos_rank_sum += midrank;
    }
    i = j;
  }
  const double dpos = static_cast<double>(pos);
  const double u = pos_rank_sum - dpos * (dpos + 1.0) / 2.0;
  return u / (dpos * static_cast<double>(neg));
}

std::vector<ReliabilityBin> reliability_bins(
    std::span<const std::uint8_t> truth, std::span<const float> proba,
    std::size_t bins) {
  REPRO_CHECK(truth.size() == proba.size());
  REPRO_CHECK(bins > 0);
  std::vector<ReliabilityBin> out(bins);
  std::vector<double> score_sum(bins, 0.0);
  std::vector<std::uint64_t> pos(bins, 0);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const double p = static_cast<double>(proba[i]);
    auto b = static_cast<std::size_t>(p * static_cast<double>(bins));
    if (b >= bins) b = bins - 1;
    ++out[b].count;
    score_sum[b] += p;
    pos[b] += truth[i] != 0 ? 1 : 0;
  }
  for (std::size_t b = 0; b < bins; ++b) {
    if (out[b].count == 0) continue;
    const double c = static_cast<double>(out[b].count);
    out[b].mean_score = score_sum[b] / c;
    out[b].positive_rate = static_cast<double>(pos[b]) / c;
  }
  return out;
}

double expected_calibration_error(std::span<const ReliabilityBin> bins) {
  std::uint64_t total = 0;
  for (const auto& b : bins) total += b.count;
  if (total == 0) return 0.0;
  double ece = 0.0;
  for (const auto& b : bins) {
    if (b.count == 0) continue;
    ece += static_cast<double>(b.count) *
           std::abs(b.mean_score - b.positive_rate);
  }
  return ece / static_cast<double>(total);
}

double population_stability_index(std::span<const double> expected,
                                  std::span<const double> actual,
                                  double eps) {
  REPRO_CHECK(expected.size() == actual.size());
  double psi = 0.0;
  for (std::size_t b = 0; b < expected.size(); ++b) {
    const double e = std::max(expected[b], eps);
    const double a = std::max(actual[b], eps);
    psi += (a - e) * std::log(a / e);
  }
  return psi;
}

double ks_statistic_sorted(std::span<const float> a_sorted,
                           std::span<const float> b_sorted) {
  if (a_sorted.empty() || b_sorted.empty()) return 0.0;
  const double na = static_cast<double>(a_sorted.size());
  const double nb = static_cast<double>(b_sorted.size());
  std::size_t ia = 0, ib = 0;
  double ks = 0.0;
  while (ia < a_sorted.size() && ib < b_sorted.size()) {
    const float x = std::min(a_sorted[ia], b_sorted[ib]);
    while (ia < a_sorted.size() && a_sorted[ia] <= x) ++ia;
    while (ib < b_sorted.size() && b_sorted[ib] <= x) ++ib;
    ks = std::max(ks, std::abs(static_cast<double>(ia) / na -
                               static_cast<double>(ib) / nb));
  }
  return ks;
}

}  // namespace repro::ml
