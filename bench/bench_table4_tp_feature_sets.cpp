// Table IV: temperature/power feature variants — Cur (target node, during
// run) / CurPrev (+ pre-run windows) / CurNei (+ slot neighbors) /
// CurPrevNei (all). The paper finds them within ~0.01 F1 of each other and
// picks Cur as the lightweight choice.
#include "common/table.hpp"
#include "support/bench_common.hpp"

int main() {
  using namespace repro;
  bench::banner("Table IV", "Temporal/spatial T-P feature sets (DS1, GBDT)",
                "all four sets within ~0.01 F1; Cur is the light-weight pick");
  const sim::Trace& trace = bench::paper_trace();
  const core::SplitSpec ds1 = bench::paper_splits()[0];

  struct Set {
    const char* name;
    features::FeatureMask mask;
  };
  const Set sets[] = {{"Cur", features::kSetCur},
                      {"CurPrev", features::kSetCurPrev},
                      {"CurNei", features::kSetCurNei},
                      {"CurPrevNei", features::kSetCurPrevNei}};

  TextTable t({"Feature Set", "Precision", "Recall", "F1 Score"});
  for (const Set& s : sets) {
    const ml::ClassMetrics m =
        core::run_two_stage(trace, {.features = {.mask = s.mask}}, ds1.train,
                            ds1.test)
            .metrics;
    t.add_row(s.name, {m.positive.precision, m.positive.recall, m.positive.f1}, 3);
    std::printf("%s done\n", s.name);
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("paper Table IV: Cur .764/.865/.820 | CurPrev .801/.830/.815 | "
              "CurNei .815/.838/.826 | CurPrevNei .807/.829/.818\n");
  return 0;
}
