// Ablation: approach 1 vs approach 2 (Sec. VI-A).
//
// Approach 1 evaluates with the measured current-run T/P statistics
// (prediction at run end, possibly followed by re-execution); approach 2
// forecasts those statistics with AR(2) models over the telemetry observed
// BEFORE the run, so the prediction is available a priori. The paper
// reports the two "achieve similar results".
#include "common/table.hpp"
#include "support/bench_common.hpp"

int main() {
  using namespace repro;
  bench::banner("Ablation", "Measured vs forecasted current-run T/P features",
                "approach 2 (forecasted features) within a few F1 points of "
                "approach 1 (Sec. VI-A: 'similar results')");
  const sim::Trace& trace = bench::paper_trace();

  TextTable t({"Dataset", "approach 1 F1", "approach 2 F1", "a1 P/R",
               "a2 P/R"});
  for (const auto& split : bench::paper_splits()) {
    const ml::ClassMetrics m1 =
        core::run_two_stage(trace, {}, split.train, split.test).metrics;
    const ml::ClassMetrics m2 =
        core::run_two_stage(trace,
                            {.features = {.forecast_current_run = true}},
                            split.train, split.test)
            .metrics;
    t.add_row({split.name, fmt(m1.positive.f1, 3), fmt(m2.positive.f1, 3),
               fmt(m1.positive.precision, 2) + "/" + fmt(m1.positive.recall, 2),
               fmt(m2.positive.precision, 2) + "/" + fmt(m2.positive.recall, 2)});
    std::printf("%s done\n", split.name.c_str());
  }
  std::printf("%s\n", t.render().c_str());
  return 0;
}
