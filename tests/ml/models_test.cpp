#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "ml/gbdt.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/metrics.hpp"
#include "ml/model.hpp"
#include "ml/neural_network.hpp"
#include "ml/svm.hpp"

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

double accuracy_on(const Model& model, const Dataset& d) {
  const auto pred = model.predict_batch(d.X);
  return evaluate(d.y, pred).accuracy;
}

class AllModelsTest : public ::testing::TestWithParam<ModelKind> {};

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

  for (const ModelKind kind :
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
  Matrix t = scaler.transform(X);
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

TEST(ModelFactory, NamesMatchKinds) {
  EXPECT_EQ(make_model(ModelKind::kLogisticRegression)->name(), "LR");
  EXPECT_EQ(make_model(ModelKind::kGbdt)->name(), "GBDT");
  EXPECT_EQ(make_model(ModelKind::kSvm)->name(), "SVM");
  EXPECT_EQ(make_model(ModelKind::kNeuralNetwork)->name(), "NN");
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
  for (const ModelKind kind :
       {ModelKind::kLogisticRegression, ModelKind::kGbdt, ModelKind::kSvm,
        ModelKind::kNeuralNetwork}) {
    auto model = make_model(kind);
    EXPECT_THROW(model->fit(empty), CheckError) << to_string(kind);
  }
}

}  // namespace
}  // namespace repro::ml
