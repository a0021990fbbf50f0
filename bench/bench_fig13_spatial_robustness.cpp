// Fig 13: spatial robustness of the TwoStage+GBDT prediction — CDFs of
// per-cabinet SBE counts (ground truth vs prediction vs true positives)
// and the per-cabinet (truth - prediction) difference.
#include <algorithm>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/evaluation.hpp"
#include "support/bench_common.hpp"

int main() {
  using namespace repro;
  bench::banner("Fig 13", "Per-cabinet prediction vs ground truth (DS1, GBDT)",
                "prediction CDF hugs the ground-truth CDF; ~95% of cabinets "
                "within a small error band (paper: [-15, 13])");
  const sim::Trace& trace = bench::paper_trace();
  const core::SplitSpec ds1 = bench::paper_splits()[0];

  const core::TwoStageRun run =
      core::run_two_stage(trace, {}, ds1.train, ds1.test);
  const core::CabinetCounts counts =
      core::cabinet_counts(trace, run.idx, run.pred);

  const EmpiricalCdf truth_cdf = make_cdf(counts.ground_truth);
  const EmpiricalCdf pred_cdf = make_cdf(counts.predicted);
  const EmpiricalCdf tp_cdf = make_cdf(counts.true_positives);
  TextTable cdf({"SBE occurrences <=", "ground truth CDF", "prediction CDF",
                 "true positives CDF"});
  for (const double x : {0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0}) {
    cdf.add_row(fmt(x, 0), {truth_cdf.at(x), pred_cdf.at(x), tp_cdf.at(x)});
  }
  std::printf("(a) CDFs across cabinets:\n%s\n", cdf.render().c_str());

  const auto diffs = counts.differences();
  std::vector<double> sorted = diffs;
  std::sort(sorted.begin(), sorted.end());
  std::printf("(b) per-cabinet (ground truth - prediction):\n");
  std::printf("    p2.5=%.0f p25=%.0f median=%.0f p75=%.0f p97.5=%.0f\n",
              quantile_sorted(sorted, 0.025), quantile_sorted(sorted, 0.25),
              quantile_sorted(sorted, 0.5), quantile_sorted(sorted, 0.75),
              quantile_sorted(sorted, 0.975));
  std::size_t small = 0;
  for (const double d : diffs) small += std::abs(d) <= 15.0 ? 1 : 0;
  std::printf("    cabinets with |difference| <= 15: %zu / %zu (%.0f%%; paper: >95%%)\n",
              small, diffs.size(),
              100.0 * static_cast<double>(small) / static_cast<double>(diffs.size()));
  return 0;
}
