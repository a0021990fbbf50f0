#include "ml/gbdt.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/parallel.hpp"
#include "obs/obs.hpp"

namespace repro::ml {

GradientBoostedTrees::GradientBoostedTrees(const Params& params, std::uint64_t seed)
    : params_(params), rng_(seed) {}

void FeatureBinner::fit(const Matrix& X, std::size_t max_bins,
                        std::size_t sample_rows, std::uint64_t seed) {
  REPRO_CHECK(X.rows() > 0);
  REPRO_CHECK(max_bins >= 2 && max_bins <= kMaxBins);
  const std::size_t d = X.cols();
  edges_.assign(d, {});

  Rng rng(seed);
  std::vector<std::size_t> rows;
  if (X.rows() <= sample_rows) {
    rows.resize(X.rows());
    std::iota(rows.begin(), rows.end(), std::size_t{0});
  } else {
    rows = rng.sample_without_replacement(X.rows(), sample_rows);
  }

  // Features are independent: one chunk per feature, each with its own
  // sort buffer. Identical to the serial loop for any thread count.
  parallel_for(d, 1, [&](std::size_t f_begin, std::size_t f_end) {
    std::vector<float> values(rows.size());
    for (std::size_t f = f_begin; f < f_end; ++f) {
      for (std::size_t i = 0; i < rows.size(); ++i) {
        values[i] = X.at(rows[i], f);
      }
      std::sort(values.begin(), values.end());
      auto& edges = edges_[f];
      float last = values.front();
      for (std::size_t b = 1; b < max_bins; ++b) {
        const std::size_t pos = b * values.size() / max_bins;
        const float v = values[std::min(pos, values.size() - 1)];
        if (v > last) {
          edges.push_back(v);
          last = v;
        }
      }
    }
  });
}

std::size_t FeatureBinner::bins(std::size_t feature) const {
  REPRO_CHECK(feature < edges_.size());
  return edges_[feature].size() + 1;
}

std::uint8_t FeatureBinner::code(std::size_t feature, float value) const {
  const auto& edges = edges_[feature];
  // code = count of edges < value  <=>  bin of the half-open partition
  // (-inf, e0], (e0, e1], ..., (e_{k-1}, +inf).
  const auto it = std::lower_bound(edges.begin(), edges.end(), value);
  return static_cast<std::uint8_t>(it - edges.begin());
}

float FeatureBinner::upper_edge(std::size_t feature, std::uint8_t c) const {
  const auto& edges = edges_[feature];
  REPRO_CHECK_MSG(c < edges.size(), "no upper edge for the last bin");
  return edges[c];
}

BinnedColumns FeatureBinner::transform_columns(const Matrix& X) const {
  REPRO_CHECK_MSG(X.cols() == edges_.size(), "binner width mismatch");
  BinnedColumns binned;
  binned.rows = X.rows();
  binned.features = X.cols();
  binned.codes.resize(binned.rows * binned.features);
  binned.offsets.resize(binned.features + 1);
  std::uint32_t offset = 0;
  for (std::size_t f = 0; f < binned.features; ++f) {
    binned.offsets[f] = offset;
    const std::size_t nbins = bins(f);
    if (nbins >= 2) offset += static_cast<std::uint32_t>(nbins);
  }
  binned.offsets[binned.features] = offset;
  // Columns are disjoint write ranges; one chunk per feature.
  parallel_for(binned.features, 1, [&](std::size_t f_begin, std::size_t f_end) {
    for (std::size_t f = f_begin; f < f_end; ++f) {
      std::uint8_t* col = binned.codes.data() + f * binned.rows;
      for (std::size_t r = 0; r < binned.rows; ++r) {
        col[r] = code(f, X.at(r, f));
      }
    }
  });
  return binned;
}

namespace {

inline float sigmoidf(float z) noexcept {
  return 1.0f / (1.0f + std::exp(-z));
}

// Per-level histogram chunking: the chunk-count cap bounds scratch memory;
// the grain grows with the node's row count instead (both depend only on
// the data, never on the thread count).
constexpr std::size_t kMaxHistChunks = 16;
constexpr std::size_t kMinHistGrain = 4096;

std::size_t hist_grain(std::size_t count) noexcept {
  return chunk_grain_for(count, kMinHistGrain, kMaxHistChunks);
}

// Plain serial sums of grad/hess over rows[0, count).
void sum_rows(const std::size_t* rows, std::size_t count, const float* grad,
              const float* hess, double& G, double& H) {
  double g_sum = 0.0, h_sum = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    g_sum += grad[rows[i]];
    h_sum += hess[rows[i]];
  }
  G = g_sum;
  H = h_sum;
}

// G/H of a node's rows on the chunk grid of its histogram build: per-chunk
// serial sums merged in ascending chunk order, so they are the same values
// whether or not the histogram is built afterwards.
void node_sums(const std::size_t* rows, std::size_t count, const float* grad,
               const float* hess, double& G, double& H) {
  G = 0.0;
  H = 0.0;
  if (count == 0) return;
  const std::size_t grain = hist_grain(count);
  const std::size_t nchunks = chunk_count(count, grain);
  if (nchunks == 1) {
    sum_rows(rows, count, grad, hess, G, H);
    return;
  }
  std::vector<double> partial_G(nchunks), partial_H(nchunks);
  parallel_for_chunks(
      count, grain, [&](std::size_t c, std::size_t c_begin, std::size_t c_end) {
        sum_rows(rows + c_begin, c_end - c_begin, grad, hess, partial_G[c],
                 partial_H[c]);
      });
  for (std::size_t c = 0; c < nchunks; ++c) {
    G += partial_G[c];
    H += partial_H[c];
  }
}

// One row's gradient and hessian, widened to double: a build gathers its
// rows' pairs once, in row order, so the per-feature passes read them
// sequentially instead of through rows[i] (LightGBM's ordered gradients).
struct GradPair {
  double g, h;
};

// Adds rows[0, count) to K features' histogram slices in one pass over the
// rows. Each cell still sums its rows in ascending row order, exactly as a
// pass per feature would (partitioning is stable, so every node's slice of
// the row-index buffer stays sorted).
template <std::size_t K>
void accumulate_features(std::array<const std::uint8_t*, K> cols,
                         std::array<double*, K> slices,
                         const std::size_t* rows, const GradPair* gh,
                         std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t r = rows[i];
    const GradPair p = gh[i];
    for (std::size_t k = 0; k < K; ++k) {
      double* cell = slices[k] + 2 * cols[k][r];
      cell[0] += p.g;
      cell[1] += p.h;
    }
  }
}

// Accumulates the gradient/hessian histogram of rows[0, count), whose pairs
// are gh[0, count), into `hist` (interleaved: hist[2b] = sum g, hist[2b+1]
// = sum h over packed bin b): four splittable features per pass over the
// rows, each feature's packed slice cache-resident while it fills, and any
// last one to three features a pass each.
void accumulate_hist(const BinnedColumns& binned, const std::size_t* rows,
                     const GradPair* gh, std::size_t count, double* hist) {
  constexpr std::size_t kPass = 4;
  std::array<const std::uint8_t*, kPass> cols{};
  std::array<double*, kPass> slices{};
  std::size_t k = 0;
  for (std::size_t f = 0; f < binned.features; ++f) {
    if (binned.offsets[f + 1] == binned.offsets[f]) continue;
    cols[k] = binned.column(f);
    slices[k] = hist + 2 * binned.offsets[f];
    if (++k == kPass) {
      accumulate_features<kPass>(cols, slices, rows, gh, count);
      k = 0;
    }
  }
  for (std::size_t j = 0; j < k; ++j) {
    accumulate_features<1>({cols[j]}, {slices[j]}, rows, gh, count);
  }
}

// Gathers the (g, h) of rows[begin, end) into gh[begin, end) and adds them
// to `out`. Returns whether any gathered hessian has its sign bit set.
bool gather_and_accumulate(const BinnedColumns& binned, const std::size_t* rows,
                           std::size_t begin, std::size_t end,
                           const float* grad, const float* hess, GradPair* gh,
                           double* out) {
  std::uint32_t sign = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t r = rows[i];
    gh[i] = {grad[r], hess[r]};
    sign |= std::bit_cast<std::uint32_t>(hess[r]);
  }
  accumulate_hist(binned, rows + begin, gh + begin, end - begin, out);
  return (sign >> 31) != 0;
}

// Full histogram of rows[0, count): chunked over rows with per-chunk
// partials merged in ascending chunk order (fixed-order reduction), so the
// sums are bit-identical for any thread count. Chunk 0 accumulates straight
// into `hist`; chunk c > 0 into scratch[c - 1] (one buffer of hist's width
// per chunk after the first). A cell summed from +0.0 is never -0.0, so this
// equals merging every partial into a zeroed histogram. `gh` is the rows'
// slot of the fit's ordered-pair buffer. Returns whether any hessian of the
// rows has its sign bit set (then a cell may be negative).
bool build_hist(const BinnedColumns& binned, const std::size_t* rows,
                std::size_t count, const float* grad, const float* hess,
                GradPair* gh, std::vector<double>& hist,
                std::vector<std::vector<double>>& scratch) {
  std::fill(hist.begin(), hist.end(), 0.0);
  if (count == 0) return false;
  OBS_COUNT("gbdt.hist_builds");
  const std::size_t grain = hist_grain(count);
  const std::size_t nchunks = chunk_count(count, grain);
  if (nchunks == 1) {
    return gather_and_accumulate(binned, rows, 0, count, grad, hess, gh,
                                 hist.data());
  }
  std::array<bool, kMaxHistChunks> negative{};
  parallel_for_chunks(
      count, grain, [&](std::size_t c, std::size_t c_begin, std::size_t c_end) {
        std::vector<double>& out = c == 0 ? hist : scratch[c - 1];
        if (c > 0) std::fill(out.begin(), out.end(), 0.0);
        negative[c] = gather_and_accumulate(binned, rows, c_begin, c_end, grad,
                                            hess, gh, out.data());
      });
  for (std::size_t c = 1; c < nchunks; ++c) {
    const std::vector<double>& part = scratch[c - 1];
    for (std::size_t i = 0; i < hist.size(); ++i) hist[i] += part[i];
  }
  return std::find(negative.begin(), negative.end(), true) != negative.end();
}

// hist -= other over interleaved (g, h) cells. Returns whether any h cell
// of the result has its sign bit set.
bool subtract_hist(std::vector<double>& hist, const std::vector<double>& other) {
  std::uint64_t sign = 0;
  for (std::size_t i = 0; i < hist.size(); i += 2) {
    hist[i] -= other[i];
    hist[i + 1] -= other[i + 1];
    sign |= std::bit_cast<std::uint64_t>(hist[i + 1]);
  }
  return (sign >> 63) != 0;
}

}  // namespace

// Buffers reused across one fit. Histogram buffers, all 2 * total_bins
// doubles wide, are handed out and taken back only in build_tree's serial
// phases, so which buffer a node gets never depends on scheduling (and its
// contents never matter: every build zeroes it first). `ordered` holds each
// build's gathered (g, h) at its rows' positions in the row-index buffer,
// so concurrent builds write disjoint node ranges of it.
class GradientBoostedTrees::FitBuffers {
 public:
  FitBuffers(std::size_t width, std::size_t rows, std::size_t max_depth)
      : ordered(rows),
        slot_values((std::size_t{2} << max_depth) - 1),
        width_(width) {}

  std::vector<double> acquire() {
    if (free_.empty()) return std::vector<double>(width_);
    std::vector<double> buf = std::move(free_.back());
    free_.pop_back();
    return buf;
  }
  /// Takes `buf` back (a no-op for a buffer that was never handed out).
  void release(std::vector<double>& buf) {
    if (!buf.empty()) free_.push_back(std::move(buf));
    buf = {};
  }

  std::vector<GradPair> ordered;
  /// Every slot's value of the tree being built, a perfect tree of
  /// max_depth; only its last level is kept.
  std::vector<float> slot_values;

 private:
  std::size_t width_;
  std::vector<std::vector<double>> free_;
};

GradientBoostedTrees::TreeRef GradientBoostedTrees::build_tree(
    const BinnedColumns& binned, std::vector<std::size_t>& row_index,
    const std::vector<float>& grad, const std::vector<float>& hess,
    FitBuffers& pool, std::vector<LeafRange>& leaves) {
  // The tree grows in a block sized for max_depth, all pads to begin with;
  // slot numbering does not depend on the depth, so once the tree's real
  // depth d is known the splits are cut to their depth-d prefix. Leaves
  // write their values into the scratch slot block, and only its level d
  // is kept.
  TreeRef tree;
  tree.splits = static_cast<std::uint32_t>(splits_.size());
  const std::size_t full_internal = (std::size_t{1} << params_.max_depth) - 1;
  splits_.resize(tree.splits + full_internal);
  std::vector<float>& slot_values = pool.slot_values;
  leaves.clear();

  // One frontier entry per tree node still growing. Children of one split
  // are adjacent (2p, 2p+1), and the left child carries the parent's
  // histogram and G/H so its sibling can be derived by subtraction.
  struct BuildNode {
    std::uint32_t slot = 0;
    std::size_t begin = 0, end = 0;      // range in row_index
    double G = 0.0, H = 0.0;
    bool splittable = false;             // H can feed two children
    bool negative_h = false;             // an h cell may be negative
    std::vector<double> hist;            // interleaved (g, h) per packed bin
    std::vector<std::vector<double>> scratch;  // chunk partials of a build
    std::vector<double> parent_hist;     // left child of a pair only
    double parent_G = 0.0, parent_H = 0.0;
    std::int32_t best_f = -1;
    std::uint8_t best_code = 0;
  };

  const double lambda = params_.lambda;
  const double mch = params_.min_child_hessian;
  const auto leaf_value = [&](double G, double H) {
    return static_cast<float>(-G / (H + lambda) * params_.learning_rate);
  };
  // A split needs HL >= mch and HR = H - HL >= mch. When H < 2 * mch and
  // HL >= mch, Sterbenz makes H - HL exact, so HR < mch: no candidate of
  // the scan can pass, and the node is a leaf without any histogram work.
  const auto mark_splittable = [&](BuildNode& bn) {
    bn.splittable = !(mch > 0.0 && bn.H < 2.0 * mch);
    if (!bn.splittable) OBS_COUNT("gbdt.nodes_unsplittable");
  };
  const auto hand_out = [&](BuildNode& bn) {
    bn.hist = pool.acquire();
    const std::size_t rows = bn.end - bn.begin;
    const std::size_t chunks = chunk_count(rows, hist_grain(rows));
    bn.scratch.resize(chunks > 1 ? chunks - 1 : 0);
    for (auto& buf : bn.scratch) buf = pool.acquire();
  };
  const auto build = [&](BuildNode& bn) {
    bn.negative_h = build_hist(binned, row_index.data() + bn.begin,
                               bn.end - bn.begin, grad.data(), hess.data(),
                               pool.ordered.data() + bn.begin, bn.hist,
                               bn.scratch);
    if (bn.negative_h) OBS_COUNT("gbdt.hist_negative_h");
  };
  // The larger child of a pair: parent - smaller, cell by cell.
  const auto derive = [&](BuildNode& large, const BuildNode& small) {
    large.negative_h = subtract_hist(large.hist, small.hist);
    OBS_COUNT("gbdt.hist_subtractions");
    if (large.negative_h) OBS_COUNT("gbdt.hist_negative_h");
  };
  // (smaller, larger) of a sibling pair; the left child on a tie.
  const auto by_size =
      [](BuildNode& left, BuildNode& right) -> std::pair<BuildNode&, BuildNode&> {
    if (left.end - left.begin <= right.end - right.begin) return {left, right};
    return {right, left};
  };

  // Finds the best split of one frontier node from its packed histogram.
  // Serial per node with fixed (feature, bin) scan order and strict
  // improvement, so ties break identically for any thread count. Per
  // feature the scan is bounded without changing its result:
  //   - the prefix with HL < mch holds no candidate, so it only sums;
  //   - with every h cell >= 0, HL never falls and HR never rises along
  //     the scan, so once HR < mch no later candidate can split and the
  //     scan stops. A histogram with a negative h cell (a derived one can
  //     round below zero) scans to its end.
  // The gain's two divisions share one two-lane divide, and the running
  // best takes a candidate only on strict improvement over the node's best
  // so far, exactly as the one-candidate-at-a-time scan did.
  using Lanes = double __attribute__((vector_size(16)));
  const auto find_best_split = [&](BuildNode& bn) {
    OBS_SPAN("gbdt.split");
    const double G = bn.G, H = bn.H;
    const double parent_obj = G * G / (H + lambda);
    const bool may_stop = !bn.negative_h;
    double best = params_.gamma;
    bn.best_f = -1;
    for (std::size_t f = 0; f < binned.features; ++f) {
      const std::size_t width = binned.offsets[f + 1] - binned.offsets[f];
      if (width < 2) continue;
      const double* slice = bn.hist.data() + 2 * binned.offsets[f];
      // Candidate c sends bins [0, c] left; GL and HL sum exactly those.
      const std::size_t last = width - 1;
      std::size_t c = 0;
      double GL = slice[0], HL = slice[1];
      while (HL < mch && ++c < last) {
        GL += slice[2 * c];
        HL += slice[2 * c + 1];
      }
      std::size_t best_c = last;  // none yet
      for (; c < last; ++c) {
        const double HR = H - HL;
        if (may_stop && HR < mch) break;
        const double GR = G - GL;
        const Lanes q = Lanes{GL * GL, GR * GR} / Lanes{HL + lambda, HR + lambda};
        const double gain = 0.5 * (q[0] + q[1] - parent_obj);
        const bool take = !(HL < mch) & !(HR < mch) & (gain > best);
        best = take ? gain : best;
        best_c = take ? c : best_c;
        GL += slice[2 * (c + 1)];
        HL += slice[2 * (c + 1) + 1];
      }
      if (best_c != last) {
        bn.best_f = static_cast<std::int32_t>(f);
        bn.best_code = static_cast<std::uint8_t>(best_c);
      }
    }
  };

  std::vector<BuildNode> level(1);
  level[0].begin = 0;
  level[0].end = row_index.size();

  for (std::size_t depth = 0; !level.empty(); ++depth) {
    if (depth >= params_.max_depth) {
      // Depth limit: every frontier node becomes a leaf. Only G/H are
      // needed, so sum rows directly instead of building histograms.
      // Nodes are independent; each node's row sum stays serial.
      parallel_for(level.size(), 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          BuildNode& bn = level[i];
          sum_rows(row_index.data() + bn.begin, bn.end - bn.begin,
                   grad.data(), hess.data(), bn.G, bn.H);
        }
      });
      for (BuildNode& bn : level) {
        const float value = leaf_value(bn.G, bn.H);
        slot_values[bn.slot] = value;
        leaves.push_back({bn.begin, bn.end, value});
        pool.release(bn.parent_hist);
      }
      break;
    }

    // Phase 0 — serial: G/H of every frontier node before any histogram
    // work, then hand out histogram buffers only where a scan needs one.
    // The root sums its rows; in a sibling pair the smaller child sums its
    // rows and the larger is parent - smaller, exactly the values the
    // builds below would give.
    if (depth == 0) {
      BuildNode& root = level[0];
      node_sums(row_index.data(), root.end, grad.data(), hess.data(), root.G,
                root.H);
      mark_splittable(root);
      if (root.splittable) hand_out(root);
    } else {
      for (std::size_t p = 0; p < level.size() / 2; ++p) {
        BuildNode& left = level[2 * p];
        auto [small, large] = by_size(left, level[2 * p + 1]);
        node_sums(row_index.data() + small.begin, small.end - small.begin,
                  grad.data(), hess.data(), small.G, small.H);
        large.G = left.parent_G - small.G;
        large.H = left.parent_H - small.H;
        mark_splittable(small);
        mark_splittable(large);
        // The smaller child is built whenever either child scans, since
        // the larger one's histogram is derived from it.
        if (small.splittable || large.splittable) hand_out(small);
        std::vector<double> parent = std::move(left.parent_hist);
        if (large.splittable) {
          large.hist = std::move(parent);
        } else {
          pool.release(parent);
        }
      }
    }

    // Phase 1 — histograms + split search. The root builds directly; every
    // later level works per sibling pair: build the smaller child from its
    // rows, derive the larger as parent - smaller (halving histogram work).
    // Pairs are independent; nested chunked builds run inline with
    // unchanged chunk grids, so results do not depend on the fan-out.
    if (depth == 0) {
      if (level[0].splittable) {
        {
          OBS_SPAN("gbdt.hist");
          build(level[0]);
        }
        find_best_split(level[0]);
      }
    } else {
      parallel_for(level.size() / 2, 1, [&](std::size_t p_begin, std::size_t p_end) {
        for (std::size_t p = p_begin; p < p_end; ++p) {
          auto [small, large] = by_size(level[2 * p], level[2 * p + 1]);
          if (!small.splittable && !large.splittable) continue;
          {
            OBS_SPAN("gbdt.hist");
            build(small);
            if (large.splittable) derive(large, small);
          }
          if (large.splittable) find_best_split(large);
          if (small.splittable) find_best_split(small);
        }
      });
    }

    // Phase 2 — serial: materialize leaves and set up children so the
    // frontier order is scheduling-independent. Leaves give their buffers
    // back; a split's histogram moves to its left child for the next
    // level's subtraction.
    std::vector<BuildNode> next;
    std::vector<std::size_t> splitting;
    for (std::size_t i = 0; i < level.size(); ++i) {
      BuildNode& bn = level[i];
      for (auto& buf : bn.scratch) pool.release(buf);
      if (bn.best_f < 0) {
        const float value = leaf_value(bn.G, bn.H);
        slot_values[bn.slot] = value;
        leaves.push_back({bn.begin, bn.end, value});
        pool.release(bn.hist);
        continue;
      }
      splits_[tree.splits + bn.slot] = {
          bn.best_f,
          binner_.upper_edge(static_cast<std::size_t>(bn.best_f), bn.best_code)};
      tree.depth = static_cast<std::uint32_t>(depth) + 1;
      BuildNode child_left, child_right;
      child_left.slot = 2 * bn.slot + 1;
      child_right.slot = 2 * bn.slot + 2;
      child_left.parent_hist = std::move(bn.hist);
      child_left.parent_G = bn.G;
      child_left.parent_H = bn.H;
      next.push_back(std::move(child_left));
      next.push_back(std::move(child_right));
      splitting.push_back(i);
    }

    // Phase 3 — in-place stable partition of each splitting node's slice of
    // the shared index buffer. Slices are disjoint and order within each
    // side is preserved.
    OBS_SPAN("gbdt.partition");
    parallel_for(splitting.size(), 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t k = b; k < e; ++k) {
        const BuildNode& bn = level[splitting[k]];
        const std::uint8_t* col =
            binned.column(static_cast<std::size_t>(bn.best_f));
        std::vector<std::size_t> spill;
        spill.reserve((bn.end - bn.begin) / 2);
        std::size_t write = bn.begin;
        for (std::size_t i = bn.begin; i < bn.end; ++i) {
          const std::size_t r = row_index[i];
          if (col[r] <= bn.best_code) {
            row_index[write++] = r;
          } else {
            spill.push_back(r);
          }
        }
        std::copy(spill.begin(), spill.end(), row_index.begin() + static_cast<std::ptrdiff_t>(write));
        next[2 * k].begin = bn.begin;
        next[2 * k].end = write;
        next[2 * k + 1].begin = write;
        next[2 * k + 1].end = bn.end;
      }
    });
    level = std::move(next);
  }

  // Pad: in slot order (parents first), a pad hands its value to both
  // children, so every path through a leaf above the last level ends on
  // that leaf's value. Then cut the splits to the depth-d prefix and keep
  // the values of level d, slots [2^d - 1, 2^(d+1) - 1).
  const std::size_t internal = (std::size_t{1} << tree.depth) - 1;
  for (std::size_t i = 0; i < internal; ++i) {
    if (!splits_[tree.splits + i].pad()) continue;
    slot_values[2 * i + 1] = slot_values[i];
    slot_values[2 * i + 2] = slot_values[i];
  }
  splits_.resize(tree.splits + internal);
  tree.values = static_cast<std::uint32_t>(values_.size());
  values_.insert(values_.end(),
                 slot_values.begin() + static_cast<std::ptrdiff_t>(internal),
                 slot_values.begin() + static_cast<std::ptrdiff_t>(2 * internal + 1));
  return tree;
}

void GradientBoostedTrees::fit(const Dataset& train) {
  train.validate();
  REPRO_CHECK_MSG(train.size() > 0, "empty training set");
  REPRO_CHECK_MSG(params_.max_depth <= kMaxDepth,
                  "GBDT max_depth " << params_.max_depth << " exceeds the cap of "
                                    << kMaxDepth
                                    << ": a depth-d tree stores 2^(d+1) - 1 slots");
  const std::size_t n = train.size();
  const std::size_t d = train.features();
  features_ = d;
  splits_.clear();
  values_.clear();
  trees_.clear();

  const BinnedColumns binned = [&] {
    OBS_SPAN("gbdt.bin");
    binner_.fit(train.X, params_.max_bins);
    return binner_.transform_columns(train.X);
  }();

  // Weighted prior log-odds.
  double wpos = 0.0, wtot = 0.0;
  for (const Label l : train.y) {
    const double w = l ? params_.pos_weight : 1.0;
    wpos += l ? w : 0.0;
    wtot += w;
  }
  const double prior = std::clamp(wpos / wtot, 1e-6, 1.0 - 1e-6);
  base_score_ = static_cast<float>(std::log(prior / (1.0 - prior)));

  std::vector<float> score(n, base_score_);
  std::vector<float> grad(n), hess(n);
  std::vector<std::size_t> row_index;
  row_index.reserve(n);
  std::vector<std::uint8_t> in_sample(n, 0);
  std::vector<LeafRange> leaves;
  FitBuffers pool(2 * binned.total_bins(), n, params_.max_depth);

  for (std::size_t t = 0; t < params_.trees; ++t) {
    // Per-row gradients/hessians: disjoint writes, no accumulation.
    {
      OBS_SPAN("gbdt.grad");
      parallel_for(n, 4096, [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          const float p = sigmoidf(score[r]);
          const float w =
              train.y[r] ? static_cast<float>(params_.pos_weight) : 1.0f;
          grad[r] = w * (p - static_cast<float>(train.y[r]));
          hess[r] = w * p * (1.0f - p);
        }
      });
    }
    // Subsampling consumes the model's single Rng stream, so it must stay
    // serial: the draw sequence is part of the deterministic state.
    row_index.clear();
    if (params_.subsample < 1.0) {
      for (std::size_t r = 0; r < n; ++r) {
        if (rng_.bernoulli(params_.subsample)) {
          row_index.push_back(r);
          in_sample[r] = 1;
        }
      }
      if (row_index.empty()) {
        row_index.resize(n);
        std::iota(row_index.begin(), row_index.end(), std::size_t{0});
      }
    } else {
      row_index.resize(n);
      std::iota(row_index.begin(), row_index.end(), std::size_t{0});
    }
    const std::size_t sampled = row_index.size();

    trees_.push_back(build_tree(binned, row_index, grad, hess, pool, leaves));
    OBS_COUNT("gbdt.trees_built");

    OBS_SPAN("gbdt.update");
    // In-subsample rows: their leaf is known from partitioning, so the
    // update is an indexed lookup. Leaf ranges are disjoint slices.
    parallel_for(leaves.size(), 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t li = b; li < e; ++li) {
        const LeafRange& leaf = leaves[li];
        for (std::size_t i = leaf.begin; i < leaf.end; ++i) {
          score[row_index[i]] += leaf.value;
        }
      }
    });
    // Out-of-subsample rows walk the new tree on their raw feature rows,
    // kBlock rows at a time. That routes them exactly like the code
    // partition above: the binner gives value <= upper_edge(c) <=> code <= c
    // for every (finite) training value.
    if (sampled < n) {
      parallel_for(n, 4096, [&](std::size_t begin, std::size_t end) {
        const float* rows[kBlock] = {};
        std::size_t at[kBlock] = {};
        float z[kBlock] = {};
        std::size_t m = 0;
        const auto flush = [&] {
          add_trees(t, t + 1, rows, m, z);
          for (std::size_t k = 0; k < m; ++k) score[at[k]] = z[k];
          m = 0;
        };
        for (std::size_t r = begin; r < end; ++r) {
          if (in_sample[r]) continue;
          rows[m] = train.X.row(r).data();
          at[m] = r;
          z[m] = score[r];
          if (++m == kBlock) flush();
        }
        flush();
      });
      for (std::size_t i = 0; i < sampled; ++i) in_sample[row_index[i]] = 0;
    }
  }
}

template <std::uint32_t D>
inline void GradientBoostedTrees::walk(const Split* splits,
                                       const float* values,
                                       const float* const* rows,
                                       std::size_t n, float* z) noexcept {
  if constexpr (D == 0) {
    for (std::size_t k = 0; k < n; ++k) z[k] += values[0];
  } else {
    // Every row's first step leaves the root, so at[] starts there.
    std::uint32_t at[kBlock];
    for (std::size_t k = 0; k < n; ++k) at[k] = child(splits[0], 0, rows[k]);
    for (std::uint32_t d = 1; d < D; ++d) {
      for (std::size_t k = 0; k < n; ++k) {
        at[k] = child(splits[at[k]], at[k], rows[k]);
      }
    }
    // values holds the last level only, slots [2^D - 1, 2^(D+1) - 1).
    for (std::size_t k = 0; k < n; ++k) z[k] += values[at[k] - ((1u << D) - 1)];
  }
}

void GradientBoostedTrees::add_trees(std::size_t t_begin, std::size_t t_end,
                                     const float* const* rows, std::size_t n,
                                     float* z) const noexcept {
  static_assert(kMaxDepth == 12, "add_trees needs a case for every depth");
  for (std::size_t t = t_begin; t < t_end; ++t) {
    const TreeRef tree = trees_[t];
    const Split* s = splits_.data() + tree.splits;
    const float* v = values_.data() + tree.values;
    switch (tree.depth) {
      case 0: walk<0>(s, v, rows, n, z); break;
      case 1: walk<1>(s, v, rows, n, z); break;
      case 2: walk<2>(s, v, rows, n, z); break;
      case 3: walk<3>(s, v, rows, n, z); break;
      case 4: walk<4>(s, v, rows, n, z); break;
      case 5: walk<5>(s, v, rows, n, z); break;
      case 6: walk<6>(s, v, rows, n, z); break;
      case 7: walk<7>(s, v, rows, n, z); break;
      case 8: walk<8>(s, v, rows, n, z); break;
      case 9: walk<9>(s, v, rows, n, z); break;
      case 10: walk<10>(s, v, rows, n, z); break;
      case 11: walk<11>(s, v, rows, n, z); break;
      default: walk<12>(s, v, rows, n, z); break;
    }
  }
}

float GradientBoostedTrees::predict_proba(std::span<const float> x) const {
  REPRO_CHECK_MSG(x.size() == features_, "feature width mismatch");
  float z = base_score_;
  const float* row = x.data();
  add_trees(0, trees_.size(), &row, 1, &z);
  return sigmoidf(z);
}

std::vector<float> GradientBoostedTrees::predict_proba_many(
    const Matrix& X) const {
  REPRO_CHECK_MSG(X.cols() == features_, "feature width mismatch");
  OBS_SPAN("gbdt.predict");
  OBS_COUNT_ADD("gbdt.predict_row_trees", X.rows() * trees_.size());
  std::vector<float> out(X.rows(), base_score_);
  // Rows go through add_trees kBlock at a time. Per row the accumulation
  // order is still tree 0..T, identical to predict_proba, so both paths
  // agree bitwise.
  parallel_for(X.rows(), 256, [&](std::size_t begin, std::size_t end) {
    const float* rows[kBlock] = {};
    for (std::size_t b = begin; b < end; b += kBlock) {
      const std::size_t m = std::min(kBlock, end - b);
      for (std::size_t k = 0; k < m; ++k) rows[k] = X.row(b + k).data();
      add_trees(0, trees_.size(), rows, m, out.data() + b);
    }
    for (std::size_t r = begin; r < end; ++r) out[r] = sigmoidf(out[r]);
  });
  return out;
}

std::vector<std::pair<std::int32_t, float>> GradientBoostedTrees::tree_splits(
    std::size_t t) const {
  REPRO_CHECK(t < trees_.size());
  const TreeRef tree = trees_[t];
  const std::size_t internal = (std::size_t{1} << tree.depth) - 1;
  std::vector<std::pair<std::int32_t, float>> out;
  for (std::size_t i = tree.splits; i < tree.splits + internal; ++i) {
    if (!splits_[i].pad()) {
      out.emplace_back(splits_[i].feature, splits_[i].threshold);
    }
  }
  return out;
}

}  // namespace repro::ml
