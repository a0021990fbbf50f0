// Table VI: fraction of SBE-affected runs correctly labeled per severity
// quartile (Light -> Extreme) — the predictor must catch the severe cases.
#include "common/table.hpp"
#include "core/evaluation.hpp"
#include "support/bench_common.hpp"

int main() {
  using namespace repro;
  bench::banner("Table VI", "Correctly classified SBE runs by severity (DS1, GBDT)",
                "capture rate grows with severity (paper: 74/88/93/95%)");
  const sim::Trace& trace = bench::paper_trace();
  const core::SplitSpec ds1 = bench::paper_splits()[0];

  const core::TwoStageRun run =
      core::run_two_stage(trace, {}, ds1.train, ds1.test);
  const core::SeverityBreakdown sb =
      core::severity_breakdown(trace, run.idx, run.pred);

  static const char* kLevels[] = {"Light", "Moderate", "Severe", "Extreme"};
  TextTable t({"Severity", "correctly classified", "samples", "SBE-count range"});
  for (std::size_t level = 0; level < 4; ++level) {
    std::string range;
    if (level == 0) {
      range = "<= " + fmt(sb.cutoffs[0], 0);
    } else if (level == 3) {
      range = "> " + fmt(sb.cutoffs[2], 0);
    } else {
      range = fmt(sb.cutoffs[level - 1], 0) + " .. " + fmt(sb.cutoffs[level], 0);
    }
    t.add_row({kLevels[level], fmt(100.0 * sb.correct_fraction[level], 0) + "%",
               std::to_string(sb.counts[level]), range});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("paper Table VI: Light 74%% | Moderate 88%% | Severe 93%% | Extreme 95%%\n");
  return 0;
}
