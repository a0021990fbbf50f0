// Fig 10: F1/precision/recall of the SBE class on DS1 across Basic A and
// the four TwoStage stage-2 models. GBDT should lead with the highest
// recall at comparable precision.
#include "common/table.hpp"
#include "core/baselines.hpp"
#include "support/bench_common.hpp"

int main() {
  using namespace repro;
  bench::banner("Fig 10", "SBE prediction across models (DS1)",
                "GBDT F1~0.81 (P~0.76, R~0.87) beats LR/SVM/NN (F1 0.67-0.70, "
                "R~0.6) and Basic A by >= 0.1 F1");
  const sim::Trace& trace = bench::paper_trace();
  const core::SplitSpec ds1 = bench::paper_splits()[0];
  const auto idx = core::samples_in(trace, ds1.test);

  TextTable t({"Model", "F1", "Precision", "Recall", "fit seconds"});
  {
    core::BasicScheme basic_a(core::BasicKind::kBasicA);
    basic_a.train(trace, ds1.train);
    const auto m =
        core::evaluate_predictions(trace, idx, basic_a.predict(trace, idx));
    t.add_row("Basic A", {m.positive.f1, m.positive.precision,
                          m.positive.recall, 0.0});
  }
  for (const auto kind :
       {ml::ModelKind::kLogisticRegression, ml::ModelKind::kGbdt,
        ml::ModelKind::kSvm, ml::ModelKind::kNeuralNetwork}) {
    const core::TwoStageRun run =
        core::run_two_stage(trace, {.model = kind}, ds1.train, ds1.test);
    const auto& m = run.metrics;
    t.add_row(std::string(ml::to_string(kind)),
              {m.positive.f1, m.positive.precision, m.positive.recall,
               run.train_seconds});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("paper Fig 10: BasicA F1 .56 | LR .67 | GBDT .81 | SVM .70 | NN .69\n");
  return 0;
}
