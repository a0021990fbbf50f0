#include "ml/gbdt.hpp"
#include "ml/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/obs.hpp"

namespace repro::ml {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix X(rows, cols);
  Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      X.at(r, c) = static_cast<float>(rng.uniform(-10.0, 10.0));
    }
  }
  return X;
}

TEST(FeatureBinner, CodesPartitionByEdges) {
  Matrix X = random_matrix(5'000, 3, 1);
  FeatureBinner binner;
  binner.fit(X, 64);
  for (std::size_t f = 0; f < 3; ++f) {
    ASSERT_GE(binner.bins(f), 2u);
    // Property: value <= upper_edge(c) iff code(value) <= c.
    Rng rng(2);
    for (int i = 0; i < 500; ++i) {
      const float v = static_cast<float>(rng.uniform(-12.0, 12.0));
      const std::uint8_t c = binner.code(f, v);
      if (c + 1u < binner.bins(f)) {
        EXPECT_LE(v, binner.upper_edge(f, c));
      }
      if (c > 0) {
        EXPECT_GT(v, binner.upper_edge(f, static_cast<std::uint8_t>(c - 1)));
      }
    }
  }
}

TEST(FeatureBinner, ConstantFeatureGetsOneBin) {
  Matrix X(100, 2, 5.0f);
  FeatureBinner binner;
  binner.fit(X, 64);
  EXPECT_EQ(binner.bins(0), 1u);
  EXPECT_EQ(binner.code(0, 5.0f), 0);
  EXPECT_EQ(binner.code(0, -100.0f), 0);
}

TEST(FeatureBinner, ConstantFeatureIsNeverSplitOn) {
  // Feature 0 is constant (1 bin, 0 edges): the tree has no edge to split
  // on, so every split must land on the informative feature 1.
  Dataset d;
  d.X = Matrix(2'000, 2);
  Rng rng(21);
  for (std::size_t i = 0; i < d.X.rows(); ++i) {
    d.X.at(i, 0) = 7.0f;
    d.X.at(i, 1) = static_cast<float>(rng.uniform(-5.0, 5.0));
    d.y.push_back(d.X.at(i, 1) > 0.5f ? 1 : 0);
  }
  GradientBoostedTrees::Params params;
  params.trees = 15;
  params.pos_weight = 1.0;
  GradientBoostedTrees gbdt(params, 6);
  gbdt.fit(d);
  std::size_t on_1 = 0;
  for (std::size_t t = 0; t < gbdt.tree_count(); ++t) {
    for (const auto& [feature, threshold] : gbdt.tree_splits(t)) {
      EXPECT_NE(feature, 0) << "tree " << t;
      on_1 += feature == 1 ? 1 : 0;
    }
  }
  EXPECT_GT(on_1, 0u);
}

TEST(FeatureBinner, AllDuplicateValuesCollapseToFewBins) {
  // Values drawn from {1, 2, 3} only: at most 2 edges survive dedup, and
  // every duplicate of a value maps to the same code.
  Matrix X(1'000, 1);
  Rng rng(13);
  for (std::size_t r = 0; r < X.rows(); ++r) {
    X.at(r, 0) = static_cast<float>(1 + rng.uniform_index(3));
  }
  FeatureBinner binner;
  binner.fit(X, 64);
  EXPECT_LE(binner.bins(0), 3u);
  EXPECT_GE(binner.bins(0), 2u);
  const std::uint8_t c1 = binner.code(0, 1.0f);
  const std::uint8_t c2 = binner.code(0, 2.0f);
  const std::uint8_t c3 = binner.code(0, 3.0f);
  EXPECT_LT(c1, c3);
  EXPECT_LE(c1, c2);
  EXPECT_LE(c2, c3);
  for (std::size_t r = 0; r < X.rows(); ++r) {
    const float v = X.at(r, 0);
    EXPECT_EQ(binner.code(0, v), v == 1.0f ? c1 : (v == 2.0f ? c2 : c3));
  }
}

TEST(FeatureBinner, EdgeRoundTripMatchesTreePredictConvention) {
  // The tree walk routes x[f] <= threshold to the left child, where
  // threshold == upper_edge(best_code), while the fit partitions rows on
  // code <= best_code. So a value equal to an edge must code into that
  // edge's bin, and anything strictly above must not.
  Matrix X = random_matrix(5'000, 1, 17);
  FeatureBinner binner;
  binner.fit(X, 32);
  ASSERT_GE(binner.bins(0), 2u);
  for (std::uint8_t c = 0; c + 1u < binner.bins(0); ++c) {
    const float edge = binner.upper_edge(0, c);
    EXPECT_EQ(binner.code(0, edge), c) << "edge " << edge;
    const float above = std::nextafter(edge, 1e30f);
    EXPECT_GT(binner.code(0, above), c) << "just above edge " << edge;
  }
}

TEST(FeatureBinner, TransformColumnsMatchesPerValueCodes) {
  // Every column-major code must be the per-value code(f, x), and the
  // packed offsets must give every splittable feature exactly bins(f)
  // histogram slots while constant features get a zero-width slice.
  Matrix X = random_matrix(300, 3, 23);
  for (std::size_t r = 0; r < X.rows(); ++r) X.at(r, 1) = 4.0f;  // constant
  FeatureBinner binner;
  binner.fit(X, 32);
  ASSERT_EQ(binner.bins(1), 1u);
  const BinnedColumns binned = binner.transform_columns(X);
  ASSERT_EQ(binned.rows, X.rows());
  ASSERT_EQ(binned.features, X.cols());
  ASSERT_EQ(binned.offsets.size(), X.cols() + 1);
  std::size_t expected_total = 0;
  for (std::size_t f = 0; f < X.cols(); ++f) {
    const std::size_t width = binned.offsets[f + 1] - binned.offsets[f];
    EXPECT_EQ(width, binner.bins(f) >= 2 ? binner.bins(f) : 0u) << "f=" << f;
    expected_total += width;
    const std::uint8_t* col = binned.column(f);
    for (std::size_t r = 0; r < X.rows(); ++r) {
      ASSERT_EQ(col[r], binner.code(f, X.at(r, f)))
          << "r=" << r << " f=" << f;
    }
  }
  EXPECT_EQ(binned.total_bins(), expected_total);
}

// Naive O(n * d * bins) reference engine: same binning, loss, and split
// criterion as GradientBoostedTrees, but every node's histogram is built
// directly from its own rows — no histogram subtraction, no shared index
// buffer, no leaf-indexed score updates. Pins the optimised engine's tree
// structure and predictions to first principles.
class NaiveGbdt {
 public:
  explicit NaiveGbdt(const GradientBoostedTrees::Params& params)
      : params_(params) {}

  void fit(const Dataset& d) {
    const std::size_t n = d.size();
    const std::size_t dims = d.features();
    binner_.fit(d.X, params_.max_bins);
    std::vector<std::uint8_t> codes(n * dims);  // row-major, per value
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t f = 0; f < dims; ++f) {
        codes[r * dims + f] = binner_.code(f, d.X.at(r, f));
      }
    }

    double wpos = 0.0, wtot = 0.0;
    for (const Label l : d.y) {
      const double w = l ? params_.pos_weight : 1.0;
      wpos += l ? w : 0.0;
      wtot += w;
    }
    const double prior = std::clamp(wpos / wtot, 1e-6, 1.0 - 1e-6);
    base_score_ = static_cast<float>(std::log(prior / (1.0 - prior)));

    std::vector<float> score(n, base_score_), grad(n), hess(n);
    for (std::size_t t = 0; t < params_.trees; ++t) {
      for (std::size_t r = 0; r < n; ++r) {
        const float p = 1.0f / (1.0f + std::exp(-score[r]));
        const float w = d.y[r] ? static_cast<float>(params_.pos_weight) : 1.0f;
        grad[r] = w * (p - static_cast<float>(d.y[r]));
        hess[r] = w * p * (1.0f - p);
      }
      Tree tree = build_tree(codes, dims, grad, hess, n);
      for (std::size_t r = 0; r < n; ++r) {
        score[r] += predict_tree(tree, d.X.row(r));
      }
      trees_.push_back(std::move(tree));
    }
  }

  [[nodiscard]] float predict_proba(std::span<const float> x) const {
    float z = base_score_;
    for (const Tree& t : trees_) z += predict_tree(t, x);
    return 1.0f / (1.0f + std::exp(-z));
  }

  /// (feature, threshold) of every split node of tree t, in node order.
  [[nodiscard]] std::vector<std::pair<std::int32_t, float>> tree_splits(
      std::size_t t) const {
    std::vector<std::pair<std::int32_t, float>> out;
    for (const Node& n : trees_[t].nodes) {
      if (n.feature >= 0) out.emplace_back(n.feature, n.threshold);
    }
    return out;
  }

 private:
  struct Node {
    std::int32_t feature = -1;
    float threshold = 0.0f;
    std::int32_t left = -1, right = -1;
    float value = 0.0f;
  };
  struct Tree {
    std::vector<Node> nodes;
  };

  static float predict_tree(const Tree& tree, std::span<const float> x) {
    std::size_t i = 0;
    while (tree.nodes[i].feature >= 0) {
      const Node& nd = tree.nodes[i];
      i = static_cast<std::size_t>(
          x[static_cast<std::size_t>(nd.feature)] <= nd.threshold ? nd.left
                                                                  : nd.right);
    }
    return tree.nodes[i].value;
  }

  Tree build_tree(const std::vector<std::uint8_t>& codes, std::size_t dims,
                  const std::vector<float>& grad,
                  const std::vector<float>& hess, std::size_t n) {
    const double lambda = params_.lambda;
    Tree tree;
    tree.nodes.push_back({});
    std::vector<std::pair<std::int32_t, std::vector<std::size_t>>> level(1);
    level[0].first = 0;
    level[0].second.resize(n);
    std::iota(level[0].second.begin(), level[0].second.end(), std::size_t{0});

    for (std::size_t depth = 0; !level.empty(); ++depth) {
      std::vector<std::pair<std::int32_t, std::vector<std::size_t>>> next;
      for (auto& [id, rows] : level) {
        double G = 0.0, H = 0.0;
        for (const std::size_t r : rows) {
          G += grad[r];
          H += hess[r];
        }
        std::int32_t best_f = -1;
        std::uint8_t best_code = 0;
        double best_gain = params_.gamma;
        if (depth < params_.max_depth) {
          const double parent_obj = G * G / (H + lambda);
          for (std::size_t f = 0; f < dims; ++f) {
            const std::size_t nbins = binner_.bins(f);
            if (nbins < 2) continue;
            std::vector<double> gs(nbins, 0.0), hs(nbins, 0.0);
            for (const std::size_t r : rows) {
              gs[codes[r * dims + f]] += grad[r];
              hs[codes[r * dims + f]] += hess[r];
            }
            double GL = 0.0, HL = 0.0;
            for (std::size_t c = 0; c + 1 < nbins; ++c) {
              GL += gs[c];
              HL += hs[c];
              const double HR = H - HL;
              if (HL < params_.min_child_hessian ||
                  HR < params_.min_child_hessian) {
                continue;
              }
              const double GR = G - GL;
              const double gain = 0.5 * (GL * GL / (HL + lambda) +
                                         GR * GR / (HR + lambda) - parent_obj);
              if (gain > best_gain) {
                best_gain = gain;
                best_f = static_cast<std::int32_t>(f);
                best_code = static_cast<std::uint8_t>(c);
              }
            }
          }
        }
        if (best_f < 0) {
          tree.nodes[static_cast<std::size_t>(id)].value =
              static_cast<float>(-G / (H + lambda) * params_.learning_rate);
          continue;
        }
        const auto left_id = static_cast<std::int32_t>(tree.nodes.size());
        Node& node = tree.nodes[static_cast<std::size_t>(id)];
        node.feature = best_f;
        node.threshold =
            binner_.upper_edge(static_cast<std::size_t>(best_f), best_code);
        node.left = left_id;
        node.right = left_id + 1;
        tree.nodes.push_back({});
        tree.nodes.push_back({});
        std::vector<std::size_t> lrows, rrows;
        for (const std::size_t r : rows) {
          (codes[r * dims + static_cast<std::size_t>(best_f)] <= best_code
               ? lrows
               : rrows)
              .push_back(r);
        }
        next.emplace_back(left_id, std::move(lrows));
        next.emplace_back(left_id + 1, std::move(rrows));
      }
      level = std::move(next);
    }
    return tree;
  }

  GradientBoostedTrees::Params params_;
  FeatureBinner binner_;
  std::vector<Tree> trees_;
  float base_score_ = 0.0f;
};

TEST(Gbdt, MatchesNaiveReferenceEngine) {
  // The optimised engine (column-major bins, histogram subtraction,
  // in-place partitioning) must grow the exact same trees as the naive
  // direct-histogram reference: identical (feature, threshold) splits in
  // node order, and matching predictions (leaf values may differ in the
  // last ulps because siblings derive G/H by subtraction).
  Dataset d;
  d.X = random_matrix(600, 4, 31);
  for (std::size_t r = 0; r < d.X.rows(); ++r) d.X.at(r, 3) = -2.5f;
  Rng rng(32);
  for (std::size_t r = 0; r < d.X.rows(); ++r) {
    const bool hot = d.X.at(r, 0) > 2.0f || d.X.at(r, 2) < -4.0f;
    d.y.push_back(hot != (rng.uniform(0.0, 1.0) < 0.05) ? 1 : 0);
  }
  GradientBoostedTrees::Params params;
  params.trees = 8;
  params.max_depth = 3;
  params.learning_rate = 0.3;
  params.subsample = 1.0;  // keep both engines on the same row set
  params.pos_weight = 2.0;
  params.max_bins = 16;

  GradientBoostedTrees gbdt(params, 5);
  gbdt.fit(d);
  NaiveGbdt naive(params);
  naive.fit(d);

  ASSERT_EQ(gbdt.tree_count(), params.trees);
  std::size_t total_splits = 0;
  for (std::size_t t = 0; t < params.trees; ++t) {
    const auto fast = gbdt.tree_splits(t);
    const auto ref = naive.tree_splits(t);
    ASSERT_EQ(fast.size(), ref.size()) << "tree " << t;
    for (std::size_t s = 0; s < fast.size(); ++s) {
      EXPECT_EQ(fast[s].first, ref[s].first) << "tree " << t << " split " << s;
      EXPECT_EQ(fast[s].second, ref[s].second)
          << "tree " << t << " split " << s;
      EXPECT_NE(fast[s].first, 3) << "split on constant feature";
    }
    total_splits += fast.size();
  }
  EXPECT_GT(total_splits, params.trees);  // the trees actually grew
  for (std::size_t r = 0; r < d.X.rows(); r += 7) {
    EXPECT_NEAR(gbdt.predict_proba(d.X.row(r)), naive.predict_proba(d.X.row(r)),
                1e-4f)
        << "row " << r;
  }
}

TEST(Gbdt, FitIsBitwiseInvariantAcrossThreadCounts) {
  // Engine-level determinism sweep: large enough that root histograms use
  // multiple chunks, subsampled so the out-of-subsample binned-traversal
  // path runs, deep enough that subtraction and in-place partitioning are
  // exercised on every level. Models must be bit-identical.
  Dataset d;
  d.X = random_matrix(10'000, 5, 41);
  Rng rng(42);
  for (std::size_t r = 0; r < d.X.rows(); ++r) {
    const double z = 0.8 * d.X.at(r, 1) - 0.5 * d.X.at(r, 4);
    d.y.push_back(rng.bernoulli(1.0 / (1.0 + std::exp(-z))) ? 1 : 0);
  }
  GradientBoostedTrees::Params params;
  params.trees = 10;
  params.max_depth = 4;
  params.subsample = 0.7;

  std::vector<std::vector<float>> probs;
  std::vector<std::vector<std::pair<std::int32_t, float>>> splits;
  for (const std::size_t threads : {1, 2, 8}) {
    set_parallel_threads(threads);
    GradientBoostedTrees gbdt(params, 5);
    gbdt.fit(d);
    probs.push_back(gbdt.predict_proba_many(d.X));
    std::vector<std::pair<std::int32_t, float>> all;
    for (std::size_t t = 0; t < gbdt.tree_count(); ++t) {
      const auto s = gbdt.tree_splits(t);
      all.insert(all.end(), s.begin(), s.end());
    }
    splits.push_back(std::move(all));
  }
  set_parallel_threads(1);
  for (std::size_t i = 1; i < probs.size(); ++i) {
    ASSERT_EQ(splits[i], splits[0]) << "thread sweep " << i;
    ASSERT_EQ(probs[i].size(), probs[0].size());
    for (std::size_t r = 0; r < probs[0].size(); ++r) {
      ASSERT_EQ(probs[i][r], probs[0][r]) << "row " << r;  // bitwise
    }
  }
}

TEST(Gbdt, PredictProbaManyMatchesPerRow) {
  Dataset d;
  d.X = random_matrix(1'500, 3, 51);
  for (std::size_t r = 0; r < d.X.rows(); ++r) {
    d.y.push_back(d.X.at(r, 0) + d.X.at(r, 2) > 1.0f ? 1 : 0);
  }
  GradientBoostedTrees::Params params;
  params.trees = 25;
  GradientBoostedTrees gbdt(params, 5);
  gbdt.fit(d);
  const Matrix probe = random_matrix(700, 3, 52);
  const auto many = gbdt.predict_proba_many(probe);
  ASSERT_EQ(many.size(), probe.rows());
  for (std::size_t r = 0; r < probe.rows(); ++r) {
    ASSERT_EQ(many[r], gbdt.predict_proba(probe.row(r))) << "row " << r;
  }
}

TEST(Gbdt, PerfectFitOnThresholdRule) {
  // y = x0 > 1.5 — a single split suffices.
  Dataset d;
  d.X = random_matrix(2'000, 2, 4);
  for (std::size_t i = 0; i < d.X.rows(); ++i) {
    d.y.push_back(d.X.at(i, 0) > 1.5f ? 1 : 0);
  }
  GradientBoostedTrees::Params params;
  params.trees = 20;
  params.pos_weight = 1.0;
  GradientBoostedTrees gbdt(params, 5);
  gbdt.fit(d);
  const auto pred = gbdt.predict_batch(d.X);
  EXPECT_GT(evaluate(d.y, pred).accuracy, 0.99);
}

TEST(Gbdt, SplitsConcentrateOnInformativeFeature) {
  Dataset d;
  d.X = random_matrix(3'000, 4, 6);
  Rng rng(7);
  for (std::size_t i = 0; i < d.X.rows(); ++i) {
    const double p =
        1.0 / (1.0 + std::exp(-1.5 * static_cast<double>(d.X.at(i, 2))));
    d.y.push_back(rng.bernoulli(p) ? 1 : 0);
  }
  GradientBoostedTrees::Params params;
  params.trees = 40;
  params.pos_weight = 1.0;
  GradientBoostedTrees gbdt(params, 8);
  gbdt.fit(d);
  // Deep splits chase noise on every feature, so the signal shows in the
  // roots, where the most gain is, and in the count per feature.
  std::vector<std::size_t> splits(4, 0);
  for (std::size_t t = 0; t < gbdt.tree_count(); ++t) {
    const auto tree = gbdt.tree_splits(t);
    ASSERT_FALSE(tree.empty()) << "tree " << t;
    EXPECT_EQ(tree[0].first, 2) << "root of tree " << t;
    for (const auto& [feature, threshold] : tree) {
      ++splits[static_cast<std::size_t>(feature)];
    }
  }
  for (const std::size_t f : {0, 1, 3}) {
    EXPECT_GT(splits[2], splits[f]) << "feature " << f;
  }
}

TEST(Gbdt, TreeCountMatchesParams) {
  Dataset d;
  d.X = random_matrix(500, 2, 9);
  for (std::size_t i = 0; i < 500; ++i) d.y.push_back(i % 3 == 0 ? 1 : 0);
  GradientBoostedTrees::Params params;
  params.trees = 13;
  GradientBoostedTrees gbdt(params, 5);
  gbdt.fit(d);
  EXPECT_EQ(gbdt.tree_count(), 13u);
}

TEST(Gbdt, PureNodeProducesNoSplits) {
  // All labels identical: trees should be single leaves near the prior.
  Dataset d;
  d.X = random_matrix(400, 3, 10);
  d.y.assign(400, 1);
  GradientBoostedTrees gbdt(GradientBoostedTrees::Params{.trees = 5}, 5);
  gbdt.fit(d);
  const float p = gbdt.predict_proba(d.X.row(0));
  EXPECT_GT(p, 0.95f);
  for (std::size_t t = 0; t < gbdt.tree_count(); ++t) {
    EXPECT_TRUE(gbdt.tree_splits(t).empty()) << "tree " << t;
  }
}

TEST(Gbdt, PosWeightShiftsOperatingPointTowardRecall) {
  // Overlapping blobs with 10:1 imbalance: higher pos_weight must not
  // reduce recall.
  Dataset d;
  d.X = Matrix(4'400, 1);
  Rng rng(11);
  for (std::size_t i = 0; i < 4'400; ++i) {
    const bool pos = i < 400;
    d.X.at(i, 0) = static_cast<float>(rng.normal(pos ? 1.0 : 0.0, 1.0));
    d.y.push_back(pos ? 1 : 0);
  }
  auto recall_with = [&](double w) {
    GradientBoostedTrees::Params params;
    params.trees = 30;
    params.pos_weight = w;
    GradientBoostedTrees gbdt(params, 5);
    gbdt.fit(d);
    return evaluate(d.y, gbdt.predict_batch(d.X)).positive.recall;
  };
  EXPECT_GT(recall_with(8.0), recall_with(1.0) + 0.1);
}

TEST(Gbdt, SubsamplingStillLearns) {
  Dataset d;
  d.X = random_matrix(2'000, 2, 12);
  for (std::size_t i = 0; i < d.X.rows(); ++i) {
    d.y.push_back(d.X.at(i, 1) > 0.0f ? 1 : 0);
  }
  GradientBoostedTrees::Params params;
  params.trees = 30;
  params.subsample = 0.5;
  params.pos_weight = 1.0;
  GradientBoostedTrees gbdt(params, 5);
  gbdt.fit(d);
  EXPECT_GT(evaluate(d.y, gbdt.predict_batch(d.X)).accuracy, 0.97);
}

// A retrain-per-window shaped problem: ~110 rows x ~100 features with a
// quarter of the features low-cardinality, like the sliding-window
// retrains of the pipeline. After the first split or two most nodes hold
// too little hessian to split (H < 2 * min_child_hessian).
Dataset tiny_window(std::uint64_t seed) {
  Dataset d;
  d.X = random_matrix(112, 98, seed);
  Rng rng(seed + 1);
  for (std::size_t r = 0; r < d.X.rows(); ++r) {
    for (std::size_t f = 0; f < d.X.cols(); f += 4) {
      d.X.at(r, f) = static_cast<float>(rng.uniform_index(6));
    }
  }
  for (std::size_t r = 0; r < d.X.rows(); ++r) {
    const bool hot = d.X.at(r, 5) > 5.0f || d.X.at(r, 17) < -6.0f ||
                     d.X.at(r, 8) == 3.0f;
    d.y.push_back(hot != rng.bernoulli(0.05) ? 1 : 0);
  }
  return d;
}

GradientBoostedTrees::Params tiny_window_params() {
  GradientBoostedTrees::Params params;
  params.trees = 60;
  params.pos_weight = 3.5;
  params.subsample = 1.0;  // keep the naive engine on the same row set
  return params;
}

struct FitResult {
  std::vector<std::vector<std::pair<std::int32_t, float>>> splits;
  std::vector<float> probs;
  std::uint64_t unsplittable = 0;  ///< gbdt.nodes_unsplittable delta
  std::uint64_t negative_h = 0;    ///< gbdt.hist_negative_h delta
};

FitResult fit_once(const Dataset& d, const GradientBoostedTrees::Params& params,
                   std::size_t threads) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Counter& skipped = obs::counter("gbdt.nodes_unsplittable");
  obs::Counter& negative = obs::counter("gbdt.hist_negative_h");
  const std::uint64_t skipped_before = skipped.value();
  const std::uint64_t negative_before = negative.value();
  set_parallel_threads(threads);
  GradientBoostedTrees gbdt(params, 5);
  gbdt.fit(d);
  set_parallel_threads(1);
  FitResult out;
  out.unsplittable = skipped.value() - skipped_before;
  out.negative_h = negative.value() - negative_before;
  obs::set_enabled(was_enabled);
  for (std::size_t t = 0; t < gbdt.tree_count(); ++t) {
    out.splits.push_back(gbdt.tree_splits(t));
  }
  out.probs = gbdt.predict_proba_many(d.X);
  return out;
}

// Fits at 1, 2 and 8 threads: every fit must be bitwise identical, and the
// trees must match the naive engine split-for-split.
FitResult expect_naive_and_thread_invariant(
    const Dataset& d, const GradientBoostedTrees::Params& params) {
  const FitResult ref = fit_once(d, params, 1);
  for (const std::size_t threads : {2, 8}) {
    const FitResult other = fit_once(d, params, threads);
    EXPECT_EQ(other.splits, ref.splits) << threads << " threads";
    EXPECT_EQ(other.unsplittable, ref.unsplittable) << threads << " threads";
    EXPECT_EQ(other.probs, ref.probs) << threads << " threads";  // bitwise
  }
  NaiveGbdt naive(params);
  naive.fit(d);
  std::size_t total_splits = 0;
  for (std::size_t t = 0; t < ref.splits.size(); ++t) {
    EXPECT_EQ(ref.splits[t], naive.tree_splits(t)) << "tree " << t;
    total_splits += ref.splits[t].size();
  }
  EXPECT_GT(total_splits, params.trees);  // the trees actually grew
  for (std::size_t r = 0; r < d.X.rows(); ++r) {
    EXPECT_NEAR(ref.probs[r], naive.predict_proba(d.X.row(r)), 1e-4f)
        << "row " << r;
  }
  return ref;
}

TEST(Gbdt, TinyWindowMatchesNaiveAndIsThreadInvariant) {
  // Default min_child_hessian: most nodes become leaves without a
  // histogram, and the trees must still be exactly the naive engine's.
  const Dataset d = tiny_window(61);
  const auto params = tiny_window_params();
  ASSERT_GT(params.min_child_hessian, 0.0);
  const FitResult fit = expect_naive_and_thread_invariant(d, params);
  EXPECT_GT(fit.unsplittable, params.trees);  // the skip actually ran
}

TEST(Gbdt, TinyWindowWithoutMinChildHessianMatchesNaive) {
  // min_child_hessian = 0 turns the unsplittable-node skip off: every
  // frontier node builds and scans its histogram.
  const Dataset d = tiny_window(61);
  auto params = tiny_window_params();
  params.min_child_hessian = 0.0;
  const FitResult fit = expect_naive_and_thread_invariant(d, params);
  EXPECT_EQ(fit.unsplittable, 0u);
}

// FNV-1a over 32-bit words.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint32_t word) {
    for (int b = 0; b < 4; ++b) {
      h ^= (word >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void mix(float v) { mix(std::bit_cast<std::uint32_t>(v)); }
  void mix(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    mix(static_cast<std::uint32_t>(bits));
    mix(static_cast<std::uint32_t>(bits >> 32));
  }
};

// FNV-1a over the bit patterns of every prediction and split.
std::uint64_t fit_hash(const FitResult& fit) {
  Fnv fnv;
  for (const auto& tree : fit.splits) {
    fnv.mix(static_cast<std::uint32_t>(tree.size()));
    for (const auto& [feature, threshold] : tree) {
      fnv.mix(static_cast<std::uint32_t>(feature));
      fnv.mix(threshold);
    }
  }
  for (const float p : fit.probs) fnv.mix(p);
  return fnv.h;
}

// 700 rows aimed at the tree walk's edge cases: a quarter of the cells are
// NaN or +/-inf, the rest are split thresholds of the model or their float
// neighbours, so every comparison lands exactly on, just below or just
// above a threshold.
Matrix walk_probe(const GradientBoostedTrees& gbdt, std::size_t features,
                  std::uint64_t seed) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> special = {std::numeric_limits<float>::quiet_NaN(),
                                      -inf, inf};
  std::vector<std::vector<float>> near(features);
  for (std::size_t t = 0; t < gbdt.tree_count(); ++t) {
    for (const auto& [f, threshold] : gbdt.tree_splits(t)) {
      auto& values = near[static_cast<std::size_t>(f)];
      values.push_back(std::nextafter(threshold, -inf));
      values.push_back(threshold);
      values.push_back(std::nextafter(threshold, inf));
    }
  }
  Matrix X(700, features);
  Rng rng(seed);
  for (std::size_t r = 0; r < X.rows(); ++r) {
    for (std::size_t f = 0; f < features; ++f) {
      const auto& pool =
          near[f].empty() || rng.bernoulli(0.25) ? special : near[f];
      X.at(r, f) = pool[rng.uniform_index(pool.size())];
    }
  }
  return X;
}

// Hash of the probe's scores through predict_proba_many on the probe's
// leading 1, 255, 256, 257 and 700 rows, so 256-row chunks end both whole
// and partial, and through per-row predict_proba, which must agree bitwise.
// Batches of 63, 64 and 65 rows end 64-row walk blocks whole and partial;
// they are held to the same bitwise agreement with predict_proba (whose
// scores the hash covers) but not mixed in, so the pins predate them.
std::uint64_t probe_hash(const GradientBoostedTrees& gbdt, const Matrix& probe) {
  Fnv fnv;
  for (const std::size_t rows : {1, 63, 64, 65, 255, 256, 257, 700}) {
    const bool mixed = rows < 63 || rows > 65;
    Matrix X(rows, probe.cols());
    for (std::size_t r = 0; r < rows; ++r) {
      std::copy_n(probe.row(r).begin(), probe.cols(), X.row(r).begin());
    }
    const std::vector<float> many = gbdt.predict_proba_many(X);
    EXPECT_EQ(many.size(), rows);
    for (std::size_t r = 0; r < many.size(); ++r) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(many[r]),
                std::bit_cast<std::uint32_t>(gbdt.predict_proba(X.row(r))))
          << "batch " << rows << " row " << r;
      if (mixed) fnv.mix(many[r]);
    }
  }
  for (std::size_t r = 0; r < probe.rows(); ++r) {
    fnv.mix(gbdt.predict_proba(probe.row(r)));
  }
  return fnv.h;
}

// Linearly separable: every fourth feature (x0 included) takes six levels,
// and y = 1 exactly where x0 - 0.5 x1 > 1.
Dataset separable(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Dataset d;
  d.X = random_matrix(rows, cols, seed);
  Rng rng(seed + 1);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t f = 0; f < cols; f += 4) {
      d.X.at(r, f) = static_cast<float>(rng.uniform_index(6));
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    d.y.push_back(d.X.at(r, 0) - 0.5f * d.X.at(r, 1) > 1.0f ? 1 : 0);
  }
  return d;
}

GradientBoostedTrees fit_model(const Dataset& d,
                               const GradientBoostedTrees::Params& params) {
  GradientBoostedTrees gbdt(params, 5);
  gbdt.fit(d);
  return gbdt;
}

TEST(Gbdt, GoldenPredictionHash) {
  // Pins fitted trees and predictions bit-for-bit to the engine before the
  // histogram pool and the unsplittable-node skip went in: both must be
  // exact. One tiny-window fit (mostly skipped nodes) and one fit large
  // enough for multi-chunk histogram builds and out-of-subsample updates.
  // A deliberate change to the model's arithmetic must re-pin these.
  // The walk-probe hashes were pinned against the per-tree pointer walk
  // that the flat node array replaced; the 250-tree window and separable
  // fits against the row-at-a-time histogram loop and the unbounded split
  // scan that ordered gradients and the bounded scan replaced.
  const Dataset tiny = tiny_window(71);
  auto tiny_params = tiny_window_params();
  tiny_params.subsample = 0.9;
  EXPECT_EQ(fit_hash(fit_once(tiny, tiny_params, 1)), 0xe6d3f186f45e28f6ull);

  Dataset large;
  large.X = random_matrix(9'000, 6, 81);
  Rng rng(82);
  for (std::size_t r = 0; r < large.X.rows(); ++r) {
    const double z = 0.7 * large.X.at(r, 0) - 0.4 * large.X.at(r, 3) - 2.0;
    large.y.push_back(rng.bernoulli(1.0 / (1.0 + std::exp(-z))) ? 1 : 0);
  }
  GradientBoostedTrees::Params large_params;
  large_params.trees = 12;
  large_params.min_child_hessian = 4.0;
  EXPECT_EQ(fit_hash(fit_once(large, large_params, 1)), 0x5ebb1904e29f352eull);
  EXPECT_EQ(fit_hash(fit_once(large, large_params, 4)), 0x5ebb1904e29f352eull);

  // train_window's shape: default Params (250 trees) on a tiny window, so
  // most scans are late-tree roots holding little hessian.
  const Dataset window = tiny_window(73);
  EXPECT_EQ(fit_hash(fit_once(window, GradientBoostedTrees::Params{}, 1)),
            0x17df0fb9200b04a0ull);

  // Separable data with lambda = 0 and learning rate 1: residual hessians
  // collapse towards 0, so a derived (parent - smaller) histogram rounds
  // some hessian cells below zero, and the split scan must not stop early
  // on them. On the 3-feature fit, stopping at the first HR < mch of such
  // a histogram would pick a different split.
  GradientBoostedTrees::Params sep_params;
  sep_params.trees = 100;
  sep_params.lambda = 0.0;
  sep_params.learning_rate = 1.0;
  sep_params.subsample = 1.0;
  sep_params.min_child_hessian = 1e-6;
  const Dataset sep = separable(3'000, 8, 83);
  for (const std::size_t threads : {1, 4}) {
    const FitResult fit = fit_once(sep, sep_params, threads);
    EXPECT_GT(fit.negative_h, 0u) << threads << " threads";
    EXPECT_EQ(fit_hash(fit), 0xa40f8af54a8a95ccull) << threads << " threads";
  }
  sep_params.min_child_hessian = 1e-300;
  const FitResult narrow = fit_once(separable(3'000, 3, 6), sep_params, 1);
  EXPECT_GT(narrow.negative_h, 0u);
  EXPECT_EQ(fit_hash(narrow), 0x3ace458386309f38ull);

  // Walk probe: NaN, infinities and every threshold with its neighbours,
  // scored in and around whole row blocks. The leaf-only model (depth 0)
  // has no split to walk.
  const auto probe_of = [](const Dataset& d,
                           const GradientBoostedTrees::Params& params,
                           std::uint64_t seed) {
    const GradientBoostedTrees gbdt = fit_model(d, params);
    return probe_hash(gbdt, walk_probe(gbdt, d.features(), seed));
  };
  EXPECT_EQ(probe_of(tiny, tiny_params, 91), 0xe24c79d319fe599dull);
  EXPECT_EQ(probe_of(large, large_params, 92), 0xc6d77095f8b68ecbull);
  auto stump_params = large_params;
  stump_params.max_depth = 0;
  EXPECT_EQ(probe_of(large, stump_params, 93), 0x7b43d511bd5fe754ull);
}

TEST(Gbdt, FitRejectsMaxDepthAboveCap) {
  const Dataset d = tiny_window(61);
  auto params = tiny_window_params();
  params.trees = 2;
  params.max_depth = GradientBoostedTrees::kMaxDepth + 1;
  GradientBoostedTrees too_deep(params, 5);
  try {
    too_deep.fit(d);
    ADD_FAILURE() << "fit accepted max_depth " << params.max_depth;
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("max_depth"), std::string::npos)
        << e.what();
  }
  params.max_depth = GradientBoostedTrees::kMaxDepth;
  GradientBoostedTrees at_cap(params, 5);
  EXPECT_NO_THROW(at_cap.fit(d));
}

TEST(Gbdt, TreesAtTheDepthCapWalkConsistently) {
  // Separable data with no regularization grows trees to the cap on some
  // paths while other leaves stop shallow, so most slots are pads.
  GradientBoostedTrees::Params params;
  params.trees = 8;
  params.max_depth = GradientBoostedTrees::kMaxDepth;
  params.lambda = 0.0;
  params.learning_rate = 1.0;
  params.subsample = 0.8;
  params.min_child_hessian = 1e-6;
  const Dataset d = separable(3'000, 8, 84);
  const GradientBoostedTrees gbdt = fit_model(d, params);
  std::size_t splits = 0;
  for (std::size_t t = 0; t < gbdt.tree_count(); ++t) {
    splits += gbdt.tree_splits(t).size();
  }
  EXPECT_GT(splits, 2 * params.max_depth);
  const Matrix probe = walk_probe(gbdt, d.features(), 96);
  (void)probe_hash(gbdt, probe);  // batches agree bitwise with per-row
}

}  // namespace
}  // namespace repro::ml
