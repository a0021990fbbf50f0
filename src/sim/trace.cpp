#include "sim/trace.hpp"

namespace repro::sim {

double Trace::positive_rate() const noexcept {
  if (samples.empty()) return 0.0;
  std::size_t pos = 0;
  for (const auto& s : samples) pos += s.sbe_affected() ? 1 : 0;
  return static_cast<double>(pos) / static_cast<double>(samples.size());
}

}  // namespace repro::sim
