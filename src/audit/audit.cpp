#include "audit/audit.hpp"

#include <cstddef>

#include "common/error.hpp"

namespace repro::audit {

namespace {
/// Equal-width reliability bins behind the expected calibration error.
constexpr std::size_t kReliabilityBins = 10;
}  // namespace

QualityReport assess(std::span<const std::uint8_t> truth,
                     std::span<const float> proba) {
  REPRO_CHECK(truth.size() == proba.size());
  QualityReport q;
  if (truth.empty()) return q;
  q.brier = ml::brier_score(truth, proba);
  q.auc = ml::roc_auc(truth, proba);
  q.ece = ml::expected_calibration_error(
      ml::reliability_bins(truth, proba, kReliabilityBins));
  std::uint64_t pos = 0;
  for (const auto t : truth) pos += t != 0 ? 1 : 0;
  q.positive_rate = static_cast<double>(pos) / static_cast<double>(truth.size());
  q.valid = true;
  return q;
}

}  // namespace repro::audit
