// Table V: prediction quality for short-running (bottom-25%-runtime) vs
// long-running (top 25%) applications — long runs should do BETTER.
#include "common/table.hpp"
#include "core/evaluation.hpp"
#include "support/bench_common.hpp"

int main() {
  using namespace repro;
  bench::banner("Table V", "Prediction quality vs application runtime (DS1, GBDT)",
                "long-running apps get the best F1 (paper: all .81, short "
                ".84, long .92)");
  const sim::Trace& trace = bench::paper_trace();
  const core::SplitSpec ds1 = bench::paper_splits()[0];

  const core::TwoStageRun run =
      core::run_two_stage(trace, {}, ds1.train, ds1.test);
  const core::RuntimeBreakdown rb =
      core::runtime_breakdown(trace, run.idx, run.pred);

  TextTable t({"Application", "Precision", "Recall", "F1 Score"});
  t.add_row("All", {rb.all.precision, rb.all.recall, rb.all.f1});
  t.add_row("Short", {rb.short_running.precision, rb.short_running.recall,
                      rb.short_running.f1});
  t.add_row("Long", {rb.long_running.precision, rb.long_running.recall,
                     rb.long_running.f1});
  std::printf("%s\n", t.render().c_str());
  std::printf("runtime cutoffs: short <= %.0f min, long >= %.0f min\n",
              rb.short_cutoff_min, rb.long_cutoff_min);
  std::printf("paper Table V: All .76/.87/.81 | Short .77/.94/.84 | Long .93/.90/.92\n");
  return 0;
}
