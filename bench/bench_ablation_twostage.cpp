// Ablation (DESIGN.md Sec. 5): what does stage 1 actually buy?
// Compares TwoStage-GBDT against (a) a single-stage GBDT trained on the
// full imbalanced training set, (b) single-stage + random undersampling,
// and (c) TwoStage + additional undersampling.
#include "common/table.hpp"
#include "features/features.hpp"
#include "ml/model.hpp"
#include "support/bench_common.hpp"

namespace {

using namespace repro;

ml::ClassMetrics single_stage(const sim::Trace& trace,
                              const core::SplitSpec& split,
                              double undersample_ratio, double* seconds,
                              std::size_t* train_size) {
  const features::FeatureExtractor fx(trace, {});
  const auto train_idx = core::samples_in(trace, split.train);
  ml::Dataset train = fx.build(train_idx);
  if (undersample_ratio > 0.0) {
    Rng rng(99);
    train = ml::undersample_majority(train, undersample_ratio, rng);
  }
  *train_size = train.size();
  ml::StandardScaler scaler;
  scaler.fit(train.X);
  scaler.transform_inplace(train.X);
  auto model = ml::make_model(ml::ModelKind::kGbdt, 1234);
  const auto t0 = std::chrono::steady_clock::now();
  model->fit(train);
  *seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                 .count();

  const auto test_idx = core::samples_in(trace, split.test);
  ml::Dataset test = fx.build(test_idx);
  scaler.transform_inplace(test.X);
  const auto pred = model->predict_batch(test.X);
  return ml::evaluate(test.y, pred);
}

}  // namespace

int main() {
  bench::banner("Ablation", "TwoStage vs single-stage vs resampling (DS1, GBDT)",
                "stage 1 should match or beat single-stage at a fraction of "
                "the training cost (Sec. VI-C2)");
  const sim::Trace& trace = bench::paper_trace();
  const core::SplitSpec ds1 = bench::paper_splits()[0];

  TextTable t({"Pipeline", "F1", "Precision", "Recall", "train rows",
               "fit seconds"});

  for (const double ratio : {0.0, 2.0}) {
    const core::TwoStageRun run = core::run_two_stage(
        trace, {.undersample_ratio = ratio}, ds1.train, ds1.test);
    const auto& m = run.metrics;
    t.add_row(ratio == 0.0 ? "TwoStage (paper)" : "TwoStage + undersample 2:1",
              {m.positive.f1, m.positive.precision, m.positive.recall,
               static_cast<double>(run.stage2_size), run.train_seconds});
  }
  for (const double ratio : {0.0, 2.0}) {
    double seconds = 0.0;
    std::size_t rows = 0;
    const auto m = single_stage(trace, ds1, ratio, &seconds, &rows);
    t.add_row(ratio == 0.0 ? "Single-stage (full data)"
                           : "Single-stage + undersample 2:1",
              {m.positive.f1, m.positive.precision, m.positive.recall,
               static_cast<double>(rows), seconds});
  }
  std::printf("%s\n", t.render().c_str());
  return 0;
}
