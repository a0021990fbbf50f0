#include "ml/metrics.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"

namespace repro::ml {
namespace {

TEST(Confusion, CountsCells) {
  Confusion c;
  c.add(true, true);    // tp
  c.add(true, false);   // fn
  c.add(false, true);   // fp
  c.add(false, false);  // tn
  c.add(false, false);  // tn
  EXPECT_EQ(c.tp, 1u);
  EXPECT_EQ(c.fn, 1u);
  EXPECT_EQ(c.fp, 1u);
  EXPECT_EQ(c.tn, 2u);
  EXPECT_EQ(c.total(), 5u);
}

TEST(PrMetrics, HandComputed) {
  // tp=8, fp=2, fn=2: precision 0.8, recall 0.8, f1 0.8.
  const PrMetrics m = pr_metrics(8, 2, 2);
  EXPECT_DOUBLE_EQ(m.precision, 0.8);
  EXPECT_DOUBLE_EQ(m.recall, 0.8);
  EXPECT_DOUBLE_EQ(m.f1, 0.8);
}

TEST(PrMetrics, AsymmetricCase) {
  // tp=6, fp=2, fn=4: precision .75, recall .6, f1 = 2*.45/1.35 = 2/3.
  const PrMetrics m = pr_metrics(6, 2, 4);
  EXPECT_DOUBLE_EQ(m.precision, 0.75);
  EXPECT_DOUBLE_EQ(m.recall, 0.6);
  EXPECT_NEAR(m.f1, 2.0 / 3.0, 1e-12);
}

TEST(PrMetrics, DegenerateZeros) {
  const PrMetrics none = pr_metrics(0, 0, 0);
  EXPECT_DOUBLE_EQ(none.precision, 0.0);
  EXPECT_DOUBLE_EQ(none.recall, 0.0);
  EXPECT_DOUBLE_EQ(none.f1, 0.0);
}

TEST(Evaluate, BothClasses) {
  const std::vector<std::uint8_t> truth = {1, 1, 1, 0, 0, 0, 0, 0};
  const std::vector<std::uint8_t> pred = {1, 1, 0, 1, 0, 0, 0, 0};
  const ClassMetrics m = evaluate(truth, pred);
  EXPECT_EQ(m.confusion.tp, 2u);
  EXPECT_EQ(m.confusion.fn, 1u);
  EXPECT_EQ(m.confusion.fp, 1u);
  EXPECT_EQ(m.confusion.tn, 4u);
  EXPECT_DOUBLE_EQ(m.positive.precision, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.positive.recall, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.negative.precision, 0.8);
  EXPECT_DOUBLE_EQ(m.negative.recall, 0.8);
  EXPECT_DOUBLE_EQ(m.accuracy, 0.75);
}

TEST(Evaluate, SizeMismatchThrows) {
  const std::vector<std::uint8_t> truth = {1, 0};
  const std::vector<std::uint8_t> pred = {1};
  EXPECT_THROW(evaluate(truth, pred), CheckError);
}

TEST(Evaluate, NaiveAllNegativeOnImbalancedData) {
  // The paper's Sec. VII-A motivation: always predicting non-SBE gives 98%
  // accuracy but zero SBE-class recall/F1.
  std::vector<std::uint8_t> truth(100, 0);
  truth[0] = truth[1] = 1;
  const std::vector<std::uint8_t> pred(100, 0);
  const ClassMetrics m = evaluate(truth, pred);
  EXPECT_DOUBLE_EQ(m.accuracy, 0.98);
  EXPECT_DOUBLE_EQ(m.positive.f1, 0.0);
  EXPECT_GT(m.negative.f1, 0.98);
}

TEST(EvaluateProba, ThresholdApplies) {
  const std::vector<std::uint8_t> truth = {1, 0};
  const std::vector<float> proba = {0.7f, 0.6f};
  const ClassMetrics strict = evaluate_proba(truth, proba, 0.65f);
  EXPECT_EQ(strict.confusion.tp, 1u);
  EXPECT_EQ(strict.confusion.fp, 0u);
  const ClassMetrics loose = evaluate_proba(truth, proba, 0.5f);
  EXPECT_EQ(loose.confusion.fp, 1u);
}

}  // namespace
}  // namespace repro::ml
