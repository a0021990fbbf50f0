// Gradient Boosted Decision Trees with logistic loss — the paper's best
// model (F1 = 0.81 on DS1, Table II / Fig 10).
//
// Implementation: histogram-based regression trees boosted on the
// second-order (Newton) approximation of the logistic loss, in the style of
// LightGBM/XGBoost:
//   - features are quantile-binned once into uint8 codes (<= 255 bins),
//     stored column-major with per-feature tight bin counts so histogram
//     builds stream sequentially through one column at a time;
//   - each tree grows depth-wise over one shared row-index buffer: a node
//     is a contiguous [begin, end) range, and splitting stably partitions
//     the range in place (no per-node row copies);
//   - per node, gradient/hessian histograms over the binned features give
//     every candidate split; only the smaller child of a split builds its
//     histogram from rows — the sibling is derived by subtracting it from
//     the cached parent histogram, halving per-level histogram work;
//   - a build first gathers its rows' (g, h) into a contiguous buffer of
//     double pairs (ordered gradients), then fills four features'
//     histogram slices per pass over the rows, each cell still summing its
//     rows in ascending row order;
//   - the split scan sums the prefix of bins with HL < min_child_hessian
//     without computing gains, scores candidates with one two-lane divide
//     and a branch-free running best, and stops at the first candidate with
//     HR < min_child_hessian unless the histogram has a negative hessian
//     cell (a derived histogram can round below zero) — all exact;
//   - a node's G/H is summed before any histogram work, and a node with
//     H < 2 * min_child_hessian (no split can give both children enough
//     hessian) becomes a leaf with no histogram build or scan at all;
//   - histogram buffers are reused across the trees of a fit;
//   - split gain = 1/2 [GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l)] - gamma;
//   - leaf value = -G/(H+l) (one Newton step), scaled by the learning rate;
//   - training scores update by leaf-indexed lookup for in-subsample rows
//     (their leaf is known from partitioning) and by walking the raw
//     feature rows for rows outside the subsample;
//   - every fitted tree is stored as a padded perfect tree of its own
//     depth d, indexed implicitly: internal slot i holds a split and its
//     children are slots 2i+1 and 2i+2. A leaf shallower than d is padded:
//     its slot and every slot beneath it route all rows right, and every
//     last-level slot beneath it carries the leaf's value. Only the last
//     level's 2^d values are stored;
//   - prediction and the fit's score update both run one walk step,
//     i = 2i + 1 + !(x[f] <= t), exactly d times per tree; introspection
//     skips the pads (DESIGN.md §6b). fit() rejects a max_depth above
//     kMaxDepth;
//   - prediction and the score update step up to 64 rows at a time
//     through walk<d>, which starts every row at the root's child (a
//     depth-0 tree just adds its one value); add_trees picks walk<d> per
//     tree through an inlined switch over depths 0..kMaxDepth (§6c).
//
// Determinism: all histogram merges use the fixed-order chunked reduction
// of common/parallel.hpp, sibling derivation is a pure function of the
// parent and the directly-built child, and every parallel phase writes
// disjoint state — so fitted models are bit-identical for any
// REPRO_THREADS (see DESIGN.md §6b).
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "ml/model.hpp"

namespace repro::ml {

/// Column-major binned view of a feature matrix with per-feature tight bin
/// counts. `offsets` maps each feature to its slice of a packed histogram:
/// feature f owns histogram bins [offsets[f], offsets[f+1]). Features that
/// cannot split (fewer than 2 bins) get a zero-width slice so histograms
/// never spend memory or bandwidth on them; their codes are still stored.
struct BinnedColumns {
  std::vector<std::uint8_t> codes;     ///< codes[f * rows + r]
  std::vector<std::uint32_t> offsets;  ///< size features + 1
  std::size_t rows = 0;
  std::size_t features = 0;

  /// Total packed histogram width (sum of splittable features' bin counts).
  [[nodiscard]] std::size_t total_bins() const noexcept {
    return offsets.empty() ? 0 : offsets.back();
  }
  [[nodiscard]] const std::uint8_t* column(std::size_t f) const noexcept {
    return codes.data() + f * rows;
  }
};

/// Quantile binning of a float feature matrix into uint8 codes.
class FeatureBinner {
 public:
  static constexpr std::size_t kMaxBins = 255;

  /// Learns per-feature cut points from (a subsample of) X.
  void fit(const Matrix& X, std::size_t max_bins = kMaxBins,
           std::size_t sample_rows = 20'000, std::uint64_t seed = 99);

  [[nodiscard]] bool fitted() const noexcept { return !edges_.empty(); }
  [[nodiscard]] std::size_t features() const noexcept { return edges_.size(); }
  [[nodiscard]] std::size_t bins(std::size_t feature) const;

  /// Bin code of a raw value: number of edges strictly below the value.
  [[nodiscard]] std::uint8_t code(std::size_t feature, float value) const;

  /// Upper edge of a bin (values with code <= c satisfy value <= edge(c)).
  [[nodiscard]] float upper_edge(std::size_t feature, std::uint8_t c) const;

  /// Column-major binned copy with per-feature packed histogram offsets.
  [[nodiscard]] BinnedColumns transform_columns(const Matrix& X) const;

 private:
  // edges_[f] are ascending interior cut points; bin count = edges+1.
  std::vector<std::vector<float>> edges_;
};

class GradientBoostedTrees final : public Model {
 public:
  struct Params {
    using Family = GradientBoostedTrees;
    static constexpr std::string_view kName = "GBDT";

    std::size_t trees = 250;
    std::size_t max_depth = 6;     ///< at most kMaxDepth
    double learning_rate = 0.1;
    double lambda = 1.0;           ///< L2 on leaf values
    double gamma = 0.0;            ///< min gain to split
    double min_child_hessian = 1.0;
    double subsample = 0.9;        ///< row subsample per tree
    double pos_weight = 3.5;       ///< positive-class weight (recall knob)
    std::size_t max_bins = 255;

    auto operator<=>(const Params&) const = default;
  };

  /// Deepest max_depth fit() accepts: a padded tree of depth d stores
  /// 2^d - 1 splits and 2^d values, so the layout's size doubles with
  /// every level.
  static constexpr std::size_t kMaxDepth = 12;

  explicit GradientBoostedTrees(const Params& params,
                                std::uint64_t seed = 1234);

  void fit(const Dataset& train) override;
  [[nodiscard]] float predict_proba(std::span<const float> x) const override;
  [[nodiscard]] std::vector<float> predict_proba_many(
      const Matrix& X) const override;

  [[nodiscard]] std::size_t tree_count() const noexcept {
    return trees_.size();
  }

  /// (feature, threshold) of every split node of tree t, in node order.
  /// Test/debug introspection for checking against reference engines.
  [[nodiscard]] std::vector<std::pair<std::int32_t, float>> tree_splits(
      std::size_t t) const;

 private:
  /// Internal slot i of a padded tree: a row goes to slot 2i + 1 when
  /// x[feature] <= threshold and to 2i + 2 otherwise, NaN included. A pad
  /// (a leaf's slot above the tree's last level, or a slot beneath one)
  /// has a NaN threshold, so every row goes right.
  struct Split {
    std::int32_t feature = 0;
    float threshold = std::numeric_limits<float>::quiet_NaN();
    [[nodiscard]] bool pad() const noexcept { return std::isnan(threshold); }
  };
  static_assert(sizeof(Split) == 8);
  /// A tree of depth d: internal slots [0, 2^d - 1) at splits_[splits],
  /// and the values of the last level's slots [2^d - 1, 2^(d+1) - 1) at
  /// values_[values]. A last-level slot's value is its leaf's output or,
  /// beneath a pad, the value of the leaf above it.
  struct TreeRef {
    std::uint32_t splits = 0;
    std::uint32_t values = 0;
    std::uint32_t depth = 0;
  };
  /// Rows that walk a tree together in add_trees.
  static constexpr std::size_t kBlock = 64;

  /// The walk step: the slot x moves to from internal slot i.
  [[nodiscard]] static std::uint32_t child(const Split& s, std::uint32_t i,
                                           const float* x) noexcept {
    return 2 * i + 1 +
           !(x[static_cast<std::size_t>(s.feature)] <= s.threshold);
  }

  /// Adds the value a depth-D tree gives rows[k] to z[k], k < n <= kBlock:
  /// exactly D walk steps, all n rows stepping together. Inlined into
  /// add_trees' depth switch, so no tree costs an out-of-line call.
  template <std::uint32_t D>
  [[gnu::always_inline]] static void walk(const Split* splits,
                                          const float* values,
                                          const float* const* rows,
                                          std::size_t n, float* z) noexcept;

  /// Adds the leaf value of trees [t_begin, t_end), in tree order, to z[k]
  /// for each row rows[k], k < n <= kBlock, through the walk instantiated
  /// for each tree's depth.
  void add_trees(std::size_t t_begin, std::size_t t_end,
                 const float* const* rows, std::size_t n,
                 float* z) const noexcept;

  /// A fitted leaf's contiguous slice of the shared row-index buffer.
  struct LeafRange {
    std::size_t begin = 0, end = 0;
    float value = 0.0f;
  };

  /// Histogram, ordered-gradient and slot-value buffers reused across the
  /// trees of one fit.
  class FitBuffers;

  /// Grows one tree onto the ends of splits_ and values_ and returns it.
  TreeRef build_tree(const BinnedColumns& binned,
                     std::vector<std::size_t>& row_index,
                     const std::vector<float>& grad,
                     const std::vector<float>& hess, FitBuffers& pool,
                     std::vector<LeafRange>& leaves);

  Params params_;
  Rng rng_;
  FeatureBinner binner_;
  std::vector<Split> splits_;  ///< every tree's internal slots, in order
  std::vector<float> values_;  ///< every tree's last-level values, in order
  std::vector<TreeRef> trees_;
  float base_score_ = 0.0f;  ///< prior log-odds
  std::size_t features_ = 0;
};

}  // namespace repro::ml
