#include "core/two_stage.hpp"

#include <chrono>
#include <cstdio>

#include "audit/audit.hpp"
#include "common/parallel.hpp"
#include "obs/obs.hpp"

namespace repro::core {

TwoStagePredictor::TwoStagePredictor(const TwoStageConfig& config)
    : config_(config) {}

void TwoStagePredictor::train(const sim::Trace& trace, Interval train_window) {
  OBS_SPAN("two_stage.train");
  extractor_ = std::make_unique<features::FeatureExtractor>(trace,
                                                            config_.features);
  std::vector<std::size_t> train_idx;
  std::size_t window_samples = 0;
  {
    // Stage 1: offender set = any SBE observed before the end of training,
    // then restrict to offender-node samples inside the training window.
    OBS_SPAN("two_stage.stage1");
    offender_mask_ = trace.sbe_log.offender_mask(0, train_window.end);
    const std::vector<std::size_t> window_idx = samples_in(trace, train_window);
    for (const std::size_t i : window_idx) {
      if (offender_mask_[static_cast<std::size_t>(trace.samples[i].node)]) {
        train_idx.push_back(i);
      }
    }
    window_samples = window_idx.size();
    OBS_COUNT_ADD("two_stage.train_samples_seen", window_idx.size());
    OBS_COUNT_ADD("two_stage.train_stage1_survivors", train_idx.size());
  }
  ml::Dataset train_set = extractor_->build(train_idx);
  if (config_.undersample_ratio > 0.0) {
    Rng rng(config_.seed ^ 0xBA1A4CEULL);
    train_set =
        ml::undersample_majority(train_set, config_.undersample_ratio, rng);
  }
  // An empty stage-2 training set is a data condition, not a programming
  // error: a corrupted or heavily-quarantined trace can leave the window
  // without a single offender-node sample, and undersampling a window
  // without positives keeps no negatives either. Degrade to stage 1 alone
  // (predict everything SBE-free) instead of crashing the pipeline.
  degraded_ = train_set.size() == 0;
  if (degraded_) {
    std::fprintf(stderr,
                 "[two_stage] empty stage-2 training set in window "
                 "[%lld, %lld): degrading to all-negative predictions\n",
                 static_cast<long long>(train_window.begin),
                 static_cast<long long>(train_window.end));
    OBS_COUNT("two_stage.degraded");
    model_.reset();
    stage2_size_ = 0;
    fit_seconds_ = 0.0;
    train_survivor_rate_ = 0.0;
    train_positive_rate_ = 0.0;
    return;
  }
  stage2_size_ = train_set.size();

  scaler_.fit(train_set.X);
  scaler_.transform_inplace(train_set.X);

  train_survivor_rate_ = static_cast<double>(train_idx.size()) /
                         static_cast<double>(window_samples);
  train_positive_rate_ = static_cast<double>(train_set.positives()) /
                         static_cast<double>(train_set.size());

  // Model-quality audit (DESIGN.md §8): remember the scaled training
  // distribution so predict-time drift has a reference. A pure read of the
  // training matrix.
  {
    OBS_SPAN("audit.drift_fit");
    drift_.fit(train_set.X);
  }

  model_ = ml::make_model(config_.model, config_.seed);
  // Table III's fit seconds: the one timing of the stage-2 fit.
  const auto fit_start = std::chrono::steady_clock::now();
  model_->fit(train_set);
  fit_seconds_ = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - fit_start)
                     .count();
}

std::vector<float> TwoStagePredictor::predict_proba(
    const sim::Trace& trace, std::span<const std::size_t> idx,
    audit::DriftSummary* drift) const {
  REPRO_CHECK_MSG(trained(), "predict before train");
  OBS_SPAN("two_stage.predict");
  std::vector<float> out(idx.size(), 0.0f);
  if (degraded_) {
    // Stage 2 never trained: stage 1 alone, i.e. everything SBE-free.
    OBS_COUNT_ADD("two_stage.predict_samples_seen", idx.size());
    return out;
  }
  // Stage 1 filters to offender nodes; everything else is predicted
  // SBE-free (proba 0) without touching the model.
  std::vector<std::size_t> accepted;
  accepted.reserve(idx.size());
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const sim::RunNodeSample& s = trace.samples[idx[k]];
    if (offender_mask_[static_cast<std::size_t>(s.node)]) {
      accepted.push_back(k);
    }
  }
  OBS_COUNT_ADD("two_stage.predict_samples_seen", idx.size());
  OBS_COUNT_ADD("two_stage.predict_stage1_survivors", accepted.size());
  if (accepted.empty()) return out;
  // Stage 2 is batched: extract + scale every accepted sample's feature
  // row (disjoint writes), then one predict_proba_many call so models with
  // fast batched inference get contiguous rows.
  ml::Matrix features(accepted.size(), extractor_->dim());
  parallel_for(accepted.size(), 128, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto row = features.row(i);
      extractor_->extract(trace.samples[idx[accepted[i]]], row);
      scaler_.transform_row(row);
    }
  });
  // Train-vs-serve drift over the features the model actually scored
  // (stage-2 survivors); a degraded period points at the features that
  // moved. Reads the fitted reference + the local matrix only.
  if (drift != nullptr) {
    OBS_SPAN("audit.drift_compare");
    *drift = drift_.compare(features);
  }
  const std::vector<float> proba = model_->predict_proba_many(features);
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    out[accepted[i]] = proba[i];
  }
  return out;
}

std::vector<ml::Label> TwoStagePredictor::predict(
    const sim::Trace& trace, std::span<const std::size_t> idx,
    std::vector<float>* proba_out, audit::DriftSummary* drift_out) const {
  std::vector<float> proba = predict_proba(trace, idx, drift_out);
  std::vector<ml::Label> out(proba.size());
  for (std::size_t i = 0; i < proba.size(); ++i) {
    out[i] = proba[i] >= config_.threshold ? 1 : 0;
  }
  if (proba_out != nullptr) *proba_out = std::move(proba);
  return out;
}

TwoStageRun run_two_stage(const sim::Trace& trace,
                          const TwoStageConfig& config, Interval train,
                          Interval test) {
  TwoStageRun run;
  run.train = train;
  run.test = test;
  TwoStagePredictor predictor(config);
  predictor.train(trace, train);
  run.fit_seconds = predictor.fit_seconds();
  run.stage2_size = predictor.stage2_training_size();
  run.degraded = predictor.degraded();
  run.train_survivor_rate = predictor.train_survivor_rate();
  run.train_positive_rate = predictor.train_positive_rate();
  const std::vector<char>& offenders = predictor.offender_mask();
  for (const char c : offenders) run.offender_nodes += c ? 1 : 0;

  OBS_SPAN("two_stage.evaluate");
  run.idx = samples_in(trace, test);
  run.pred = predictor.predict(trace, run.idx, &run.proba, &run.drift);
  const std::vector<ml::Label> truth = labels_of(trace, run.idx);
  run.metrics = ml::evaluate(truth, run.pred);
  if (!run.idx.empty()) {
    std::size_t survivors = 0;
    for (const std::size_t i : run.idx) {
      survivors += offenders[static_cast<std::size_t>(trace.samples[i].node)]
                       ? 1
                       : 0;
    }
    run.survivor_rate = static_cast<double>(survivors) /
                        static_cast<double>(run.idx.size());
    run.quality = audit::assess(truth, run.proba);
  }
  return run;
}

}  // namespace repro::core
