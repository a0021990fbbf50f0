// Ablation: GBDT hyperparameters on DS1 — tree count, depth, positive-class
// weight and decision threshold. Shows the operating-point trade-offs
// behind the defaults used throughout the reproduction.
#include "common/table.hpp"
#include "ml/gbdt.hpp"
#include "support/bench_common.hpp"

namespace {

using namespace repro;

ml::ClassMetrics with_params(const sim::Trace& trace,
                             const core::SplitSpec& split,
                             std::size_t trees, std::size_t depth,
                             double pos_weight, float threshold) {
  // Rebuild the stage-2 model by hand to vary GBDT parameters.
  const features::FeatureExtractor fx(trace, {});
  const auto mask = trace.sbe_log.offender_mask(0, split.train.end);
  std::vector<std::size_t> train_idx;
  for (const std::size_t i : core::samples_in(trace, split.train)) {
    if (mask[static_cast<std::size_t>(trace.samples[i].node)]) {
      train_idx.push_back(i);
    }
  }
  ml::Dataset train = fx.build(train_idx);
  ml::StandardScaler scaler;
  scaler.fit(train.X);
  scaler.transform_inplace(train.X);
  ml::GradientBoostedTrees::Params params;
  params.trees = trees;
  params.max_depth = depth;
  params.pos_weight = pos_weight;
  ml::GradientBoostedTrees gbdt(params, 1234);
  gbdt.fit(train);

  const auto test_idx = core::samples_in(trace, split.test);
  std::vector<ml::Label> pred;
  std::vector<float> row(fx.dim());
  for (const std::size_t i : test_idx) {
    const auto& s = trace.samples[i];
    if (!mask[static_cast<std::size_t>(s.node)]) {
      pred.push_back(0);
      continue;
    }
    fx.extract(s, row);
    scaler.transform_row(row);
    pred.push_back(gbdt.predict_proba(row) >= threshold ? 1 : 0);
  }
  return core::evaluate_predictions(trace, test_idx, pred);
}

}  // namespace

int main() {
  bench::banner("Ablation", "GBDT hyperparameters within TwoStage (DS1)",
                "defaults (250 trees, depth 6, pos_weight 3.5, thr 0.5) "
                "balance precision and recall");
  const sim::Trace& trace = bench::paper_trace();
  const core::SplitSpec ds1 = bench::paper_splits()[0];

  struct Variant {
    const char* name;
    std::size_t trees;
    std::size_t depth;
    double pos_weight;
    float threshold;
  };
  const Variant variants[] = {
      {"default (250/6/3.5/0.50)", 250, 6, 3.5, 0.5f},
      {"few trees (50)", 50, 6, 3.5, 0.5f},
      {"shallow (depth 3)", 250, 3, 3.5, 0.5f},
      {"unweighted (w=1)", 250, 6, 1.0, 0.5f},
      {"heavier weight (w=8)", 250, 6, 8.0, 0.5f},
      {"strict threshold (0.7)", 250, 6, 3.5, 0.7f},
      {"loose threshold (0.3)", 250, 6, 3.5, 0.3f},
  };
  TextTable t({"Variant", "F1", "Precision", "Recall"});
  for (const Variant& v : variants) {
    const auto m =
        with_params(trace, ds1, v.trees, v.depth, v.pos_weight, v.threshold);
    t.add_row(v.name, {m.positive.f1, m.positive.precision, m.positive.recall});
    std::printf("%s done\n", v.name);
  }
  std::printf("%s\n", t.render().c_str());
  return 0;
}
