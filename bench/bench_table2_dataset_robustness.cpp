// Table II: F1 of the SBE class for Basic A + the four models across DS1,
// DS2 and DS3. DS3 (whose test window falls after the machine drift) is
// the hardest; GBDT stays on top everywhere.
#include "common/table.hpp"
#include "core/baselines.hpp"
#include "support/bench_common.hpp"

int main() {
  using namespace repro;
  bench::banner("Table II", "F1 score for SBE occurrence prediction (DS1-DS3)",
                "GBDT best on every dataset (paper .81/.81/.71); DS3 hardest "
                "for all models");
  const sim::Trace& trace = bench::paper_trace();
  const auto splits = bench::paper_splits();
  const std::vector<ml::ModelKind> models = {
      ml::ModelKind::kLogisticRegression, ml::ModelKind::kGbdt,
      ml::ModelKind::kSvm, ml::ModelKind::kNeuralNetwork};

  // All 12 split x model cells fan out across the thread pool at once;
  // cell results are deterministic and ordered split-major.
  const auto grid = core::two_stage_sweep(trace, splits, models, {});

  TextTable t({"Dataset", "Basic A", "LR", "GBDT", "SVM", "NN"});
  for (std::size_t s = 0; s < splits.size(); ++s) {
    const auto& split = splits[s];
    const auto idx = core::samples_in(trace, split.test);
    core::BasicScheme basic_a(core::BasicKind::kBasicA);
    basic_a.train(trace, split.train);
    const auto mb =
        core::evaluate_predictions(trace, idx, basic_a.predict(trace, idx));
    std::vector<double> row = {mb.positive.f1};
    for (std::size_t m = 0; m < models.size(); ++m) {
      row.push_back(grid[s * models.size() + m].run.metrics.positive.f1);
    }
    t.add_row(split.name, row);
    std::printf("%s done\n", split.name.c_str());
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("paper Table II: DS1 .56/.67/.81/.70/.69 | DS2 .75/.80/.81/.79/.77 "
              "| DS3 .55/.52/.71/.55/.51\n");
  return 0;
}
