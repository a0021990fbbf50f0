#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "ml/metrics.hpp"
#include "ml/model_spec.hpp"

namespace repro::ml {
namespace {

/// Linearly separable blobs: positives centered at (2,2), negatives (-2,-2).
Dataset linear_blobs(std::size_t n, std::uint64_t seed) {
  Dataset d;
  d.X = Matrix(n, 2);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool pos = i % 2 == 0;
    const double cx = pos ? 2.0 : -2.0;
    d.X.at(i, 0) = static_cast<float>(rng.normal(cx, 1.0));
    d.X.at(i, 1) = static_cast<float>(rng.normal(cx, 1.0));
    d.y.push_back(pos ? 1 : 0);
  }
  return d;
}

/// XOR pattern: positives in quadrants I and III — not linearly separable.
Dataset xor_blobs(std::size_t n, std::uint64_t seed) {
  Dataset d;
  d.X = Matrix(n, 2);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool qx = rng.bernoulli(0.5);
    const bool qy = rng.bernoulli(0.5);
    d.X.at(i, 0) = static_cast<float>(rng.normal(qx ? 2.0 : -2.0, 0.7));
    d.X.at(i, 1) = static_cast<float>(rng.normal(qy ? 2.0 : -2.0, 0.7));
    d.y.push_back(qx == qy ? 1 : 0);
  }
  return d;
}

/// y ~ Bernoulli(sigmoid(x0 - 0.5 x2 + x1 x3)) over 4 standard-normal
/// features: fixed data with signal that no model fits exactly.
Dataset noisy_logistic(std::size_t n, std::uint64_t seed) {
  Dataset d;
  d.X = Matrix(n, 4);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 4; ++c) {
      d.X.at(i, c) = static_cast<float>(rng.normal());
    }
    const double z = d.X.at(i, 0) - 0.5 * d.X.at(i, 2) +
                     d.X.at(i, 1) * d.X.at(i, 3);
    d.y.push_back(rng.bernoulli(1.0 / (1.0 + std::exp(-z))) ? 1 : 0);
  }
  return d;
}

/// FNV-1a over the bit patterns of predict_proba on 200 fixed probe rows.
std::uint64_t prediction_hash(const Model& model) {
  const Dataset probe = noisy_logistic(200, 32);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t r = 0; r < probe.X.rows(); ++r) {
    const auto bits = std::bit_cast<std::uint32_t>(
        model.predict_proba(probe.X.row(r)));
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Pins a seeded fit of `model` on fixed data bit for bit, so a change to
/// how models are built or trained must keep every prediction.
void expect_golden(Model& model, std::uint64_t want) {
  model.fit(noisy_logistic(500, 31));
  EXPECT_EQ(prediction_hash(model), want);
}

double accuracy_on(const Model& model, const Dataset& d) {
  const auto pred = model.predict_batch(d.X);
  return evaluate(d.y, pred).accuracy;
}

class AllModelsTest : public ::testing::TestWithParam<ModelSpec> {};

TEST_P(AllModelsTest, LearnsLinearlySeparableData) {
  const Dataset train = linear_blobs(1'500, 1);
  const Dataset test = linear_blobs(500, 2);
  auto model = make_model(GetParam(), /*seed=*/77);
  model->fit(train);
  EXPECT_GT(accuracy_on(*model, test), 0.93)
      << "model " << to_string(GetParam());
}

TEST_P(AllModelsTest, ProbabilitiesAreValid) {
  const Dataset train = linear_blobs(600, 3);
  auto model = make_model(GetParam(), 77);
  model->fit(train);
  for (std::size_t i = 0; i < 100; ++i) {
    const float p = model->predict_proba(train.X.row(i));
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
    EXPECT_FALSE(std::isnan(p));
  }
}

TEST_P(AllModelsTest, BatchMatchesSinglePrediction) {
  const Dataset train = linear_blobs(600, 4);
  auto model = make_model(GetParam(), 77);
  model->fit(train);
  const auto batch = model->predict_proba_many(train.X);
  for (const std::size_t i : {0UL, 10UL, 99UL}) {
    EXPECT_FLOAT_EQ(batch[i], model->predict_proba(train.X.row(i)));
  }
}

TEST_P(AllModelsTest, DeterministicForSameSeed) {
  const Dataset train = linear_blobs(600, 5);
  auto a = make_model(GetParam(), 123);
  auto b = make_model(GetParam(), 123);
  a->fit(train);
  b->fit(train);
  for (const std::size_t i : {0UL, 7UL, 42UL}) {
    EXPECT_FLOAT_EQ(a->predict_proba(train.X.row(i)),
                    b->predict_proba(train.X.row(i)));
  }
}

TEST_P(AllModelsTest, RefitReplacesOldModel) {
  Dataset train = linear_blobs(600, 6);
  auto model = make_model(GetParam(), 77);
  model->fit(train);
  // Flip all labels and refit: predictions must flip too.
  for (auto& y : train.y) y = y ? 0 : 1;
  model->fit(train);
  EXPECT_GT(accuracy_on(*model, train), 0.9);
}

TEST_P(AllModelsTest, WidthMismatchThrows) {
  const Dataset train = linear_blobs(200, 7);
  auto model = make_model(GetParam(), 77);
  model->fit(train);
  const std::vector<float> wrong = {1.0f, 2.0f, 3.0f};
  EXPECT_THROW(model->predict_proba(wrong), CheckError);
}

TEST_P(AllModelsTest, NonFiniteTrainingFeatureThrows) {
  // NaN or +/-inf anywhere in X is refused before any training work, with
  // the offending row and feature named.
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    Dataset train = linear_blobs(200, 8);
    train.X.at(37, 1) = bad;
    auto model = make_model(GetParam(), 77);
    try {
      model->fit(train);
      ADD_FAILURE() << "no throw for " << bad;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("feature 1 in row 37"),
                std::string::npos)
          << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllModelsTest,
                         ::testing::Values(ModelKind::kLogisticRegression,
                                           ModelKind::kGbdt, ModelKind::kSvm,
                                           ModelKind::kNeuralNetwork),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(ModelComparison, NonlinearModelsBeatLrOnXor) {
  const Dataset train = xor_blobs(2'000, 8);
  const Dataset test = xor_blobs(600, 9);

  auto lr = make_model(ModelKind::kLogisticRegression, 1);
  lr->fit(train);
  const double lr_acc = accuracy_on(*lr, test);
  EXPECT_LT(lr_acc, 0.70);  // linear model cannot express XOR

  for (const ModelSpec& kind :
       {ModelKind::kGbdt, ModelKind::kSvm, ModelKind::kNeuralNetwork}) {
    auto model = make_model(kind, 1);
    model->fit(train);
    const double acc = accuracy_on(*model, test);
    EXPECT_GT(acc, 0.90) << to_string(kind);
    EXPECT_GT(acc, lr_acc + 0.15) << to_string(kind);
  }
}

TEST(StandardScaler, NormalizesColumns) {
  Matrix X(100, 2);
  Rng rng(10);
  for (std::size_t i = 0; i < 100; ++i) {
    X.at(i, 0) = static_cast<float>(rng.normal(50.0, 10.0));
    X.at(i, 1) = 3.0f;  // constant column
  }
  StandardScaler scaler;
  scaler.fit(X);
  Matrix t = X;
  scaler.transform_inplace(t);
  double sum = 0.0, sum2 = 0.0;
  for (std::size_t i = 0; i < 100; ++i) {
    sum += t.at(i, 0);
    sum2 += static_cast<double>(t.at(i, 0)) * t.at(i, 0);
  }
  EXPECT_NEAR(sum / 100.0, 0.0, 1e-5);
  EXPECT_NEAR(sum2 / 100.0, 1.0, 1e-4);
  // Constant columns map to 0 (mean subtracted, unit fallback std).
  EXPECT_FLOAT_EQ(t.at(0, 1), 0.0f);
}

TEST(StandardScaler, RowWidthMismatchThrows) {
  Matrix X(10, 2, 1.0f);
  StandardScaler scaler;
  scaler.fit(X);
  std::vector<float> wrong = {1.0f};
  EXPECT_THROW(scaler.transform_row(wrong), CheckError);
}

TEST(ModelFactory, BuildsTheSpecsFamilyWithItsParams) {
  EXPECT_EQ(to_string(ModelKind::kLogisticRegression), "LR");
  EXPECT_EQ(to_string(ModelKind::kGbdt), "GBDT");
  EXPECT_EQ(to_string(ModelKind::kSvm), "SVM");
  EXPECT_EQ(to_string(ModelKind::kNeuralNetwork), "NN");
  EXPECT_NE(dynamic_cast<Svm*>(make_model(ModelKind::kSvm).get()), nullptr);

  // A non-default spec reaches the model it builds.
  const auto model = make_model(GradientBoostedTrees::Params{.trees = 7});
  model->fit(linear_blobs(200, 12));
  const auto* gbdt = dynamic_cast<const GradientBoostedTrees*>(model.get());
  ASSERT_NE(gbdt, nullptr);
  EXPECT_EQ(gbdt->tree_count(), 7u);
  EXPECT_NE(ModelSpec{GradientBoostedTrees::Params{.trees = 7}},
            ModelKind::kGbdt);
}

TEST(LogisticRegression, GoldenPredictionHash) {
  constexpr std::uint64_t kWant = 0xe70e6782656a079dull;
  LogisticRegression lr(LogisticRegression::Params{}, 5);
  expect_golden(lr, kWant);
  expect_golden(*make_model(ModelKind::kLogisticRegression, 5), kWant);
}

TEST(Svm, GoldenPredictionHash) {
  constexpr std::uint64_t kWant = 0x20ea1d2f7ab569bbull;
  Svm svm(Svm::Params{}, 5);
  expect_golden(svm, kWant);
  expect_golden(*make_model(ModelKind::kSvm, 5), kWant);
}

TEST(NeuralNetwork, GoldenPredictionHash) {
  constexpr std::uint64_t kWant = 0xea1dc97252a54b33ull;
  NeuralNetwork nn(NeuralNetwork::Params{}, 5);
  expect_golden(nn, kWant);
  expect_golden(*make_model(ModelKind::kNeuralNetwork, 5), kWant);
}

TEST(Svm, SmoKeepsOnlySupportVectors) {
  const Dataset train = linear_blobs(800, 11);
  Svm svm(Svm::Params{}, 5);
  svm.fit(train);
  EXPECT_GT(svm.support_vector_count(), 0u);
  EXPECT_LT(svm.support_vector_count(), train.size());
}

TEST(LogisticRegression, RecoverableCoefficients) {
  // y ~ sigmoid(2*x0): the learned weight on x0 should dominate x1.
  Dataset d;
  d.X = Matrix(4'000, 2);
  Rng rng(14);
  for (std::size_t i = 0; i < 4'000; ++i) {
    d.X.at(i, 0) = static_cast<float>(rng.normal());
    d.X.at(i, 1) = static_cast<float>(rng.normal());
    const double p = 1.0 / (1.0 + std::exp(-2.0 * d.X.at(i, 0)));
    d.y.push_back(rng.bernoulli(p) ? 1 : 0);
  }
  LogisticRegression lr(LogisticRegression::Params{.epochs = 30}, 5);
  lr.fit(d);
  EXPECT_GT(lr.weights()[0], 1.0f);
  EXPECT_LT(std::abs(lr.weights()[1]), 0.4f);
}

TEST(Models, EmptyTrainingSetThrows) {
  const Dataset empty;
  for (const ModelSpec& kind :
       {ModelKind::kLogisticRegression, ModelKind::kGbdt, ModelKind::kSvm,
        ModelKind::kNeuralNetwork}) {
    auto model = make_model(kind);
    EXPECT_THROW(model->fit(empty), CheckError) << to_string(kind);
  }
}

}  // namespace
}  // namespace repro::ml
