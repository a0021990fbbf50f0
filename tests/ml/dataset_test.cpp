#include "ml/dataset.hpp"

#include <gtest/gtest.h>

namespace repro::ml {
namespace {

Dataset make_dataset(std::size_t negatives, std::size_t positives) {
  Dataset d;
  d.feature_names = {"x0", "x1"};
  d.X = Matrix(negatives + positives, 2);
  Rng rng(1);
  for (std::size_t i = 0; i < negatives + positives; ++i) {
    const bool pos = i >= negatives;
    d.X.at(i, 0) = static_cast<float>(rng.normal(pos ? 3.0 : 0.0, 1.0));
    d.X.at(i, 1) = static_cast<float>(rng.normal(0.0, 1.0));
    d.y.push_back(pos ? 1 : 0);
  }
  return d;
}

TEST(Dataset, Counts) {
  const Dataset d = make_dataset(90, 10);
  EXPECT_EQ(d.size(), 100u);
  EXPECT_EQ(d.positives(), 10u);
  EXPECT_EQ(d.negatives(), 90u);
  d.validate();
}

TEST(Dataset, SelectCopiesRows) {
  const Dataset d = make_dataset(3, 2);
  const Dataset s = d.select({4, 0, 4});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.y[0], 1);
  EXPECT_EQ(s.y[1], 0);
  EXPECT_FLOAT_EQ(s.X.at(0, 0), d.X.at(4, 0));
  EXPECT_FLOAT_EQ(s.X.at(2, 1), d.X.at(4, 1));
  EXPECT_EQ(s.feature_names, d.feature_names);
}

TEST(Dataset, SelectOutOfRangeThrows) {
  const Dataset d = make_dataset(2, 1);
  EXPECT_THROW(d.select({3}), CheckError);
}

TEST(Dataset, ValidateCatchesCorruption) {
  Dataset d = make_dataset(2, 1);
  d.y.push_back(1);
  EXPECT_THROW(d.validate(), CheckError);
  d = make_dataset(2, 1);
  d.y[0] = 7;
  EXPECT_THROW(d.validate(), CheckError);
  d = make_dataset(2, 1);
  d.feature_names = {"only-one"};
  EXPECT_THROW(d.validate(), CheckError);
}

TEST(Undersample, ReachesRequestedRatio) {
  const Dataset d = make_dataset(900, 100);
  Rng rng(2);
  const Dataset u = undersample_majority(d, 2.0, rng);
  EXPECT_EQ(u.positives(), 100u);
  EXPECT_EQ(u.negatives(), 200u);
}

TEST(Undersample, KeepsEverythingWhenRatioGenerous) {
  const Dataset d = make_dataset(50, 50);
  Rng rng(3);
  const Dataset u = undersample_majority(d, 10.0, rng);
  EXPECT_EQ(u.size(), 100u);
}

TEST(Matrix, PushRowAndAccess) {
  Matrix m;
  m.push_row(std::vector<float>{1.0f, 2.0f});
  m.push_row(std::vector<float>{3.0f, 4.0f});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_FLOAT_EQ(m.at(1, 0), 3.0f);
  EXPECT_THROW(m.push_row(std::vector<float>{1.0f}), CheckError);
  EXPECT_THROW((void)m.at(2, 0), CheckError);
}

}  // namespace
}  // namespace repro::ml
