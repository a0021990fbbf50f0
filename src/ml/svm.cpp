#include "ml/svm.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/parallel.hpp"

namespace repro::ml {

Svm::Svm(const Params& params, std::uint64_t seed)
    : params_(params), rng_(seed) {}

namespace {
inline double rbf(std::span<const float> a, std::span<const float> b,
                  double gamma) noexcept {
  double d2 = 0.0;
  for (std::size_t c = 0; c < a.size(); ++c) {
    const double d = static_cast<double>(a[c]) - b[c];
    d2 += d * d;
  }
  return std::exp(-gamma * d2);
}
}  // namespace

void Svm::fit(const Dataset& train) {
  train.validate();
  REPRO_CHECK_MSG(train.size() > 0, "empty training set");
  input_dims_ = train.features();
  gamma_ = params_.gamma > 0.0 ? params_.gamma
                               : 1.0 / static_cast<double>(input_dims_);

  // Stratified subsample to the dual-problem cap.
  std::vector<std::size_t> rows(train.size());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  if (train.size() > kMaxSmoSamples) {
    std::vector<std::size_t> pos, neg;
    for (std::size_t i = 0; i < train.size(); ++i) {
      (train.y[i] ? pos : neg).push_back(i);
    }
    const double keep = static_cast<double>(kMaxSmoSamples) /
                        static_cast<double>(train.size());
    auto cut = [&](std::vector<std::size_t>& v) {
      rng_.shuffle(v);
      v.resize(std::max<std::size_t>(
          1, static_cast<std::size_t>(keep * static_cast<double>(v.size()))));
    };
    cut(pos);
    cut(neg);
    rows = pos;
    rows.insert(rows.end(), neg.begin(), neg.end());
    rng_.shuffle(rows);
  }
  const std::size_t n = rows.size();
  Matrix X(n, input_dims_);
  std::vector<float> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = train.X.row(rows[i]);
    std::copy(src.begin(), src.end(), X.row(i).begin());
    y[i] = train.y[rows[i]] ? 1.0f : -1.0f;
  }

  // Simplified SMO (Platt), with decision values f[i] maintained
  // incrementally: f[i] = sum_j alpha_j y_j K(j, i) + b.
  std::vector<double> alpha(n, 0.0);
  std::vector<double> f(n, 0.0);
  double b = 0.0;
  const double tol = kSmoTol;
  auto c_of = [&](std::size_t i) {
    return y[i] > 0 ? params_.c * params_.pos_weight : params_.c;
  };

  std::size_t iters = 0;
  std::size_t passes = 0;
  while (passes < kSmoMaxPasses && iters < kSmoMaxIters) {
    std::size_t changed = 0;
    for (std::size_t i = 0; i < n && iters < kSmoMaxIters; ++i) {
      const double Ei = f[i] + b - y[i];
      const double Ci = c_of(i);
      if (!((y[i] * Ei < -tol && alpha[i] < Ci) ||
            (y[i] * Ei > tol && alpha[i] > 0.0))) {
        continue;
      }
      // Pick a random partner j != i.
      std::size_t j = static_cast<std::size_t>(rng_.uniform_index(n - 1));
      if (j >= i) ++j;
      const double Ej = f[j] + b - y[j];
      const double Cj = c_of(j);

      const double ai_old = alpha[i], aj_old = alpha[j];
      double lo, hi;
      if (y[i] != y[j]) {
        lo = std::max(0.0, aj_old - ai_old);
        hi = std::min(Cj, Ci + aj_old - ai_old);
      } else {
        lo = std::max(0.0, ai_old + aj_old - Ci);
        hi = std::min(Cj, ai_old + aj_old);
      }
      if (lo >= hi) continue;
      const double kii = 1.0;  // RBF(x, x) == 1
      const double kjj = 1.0;
      const double kij = rbf(X.row(i), X.row(j), gamma_);
      const double eta = 2.0 * kij - kii - kjj;
      if (eta >= 0.0) continue;

      double aj = aj_old - y[j] * (Ei - Ej) / eta;
      aj = std::clamp(aj, lo, hi);
      if (std::abs(aj - aj_old) < 1e-7) continue;
      const double ai = ai_old + y[i] * y[j] * (aj_old - aj);
      alpha[i] = ai;
      alpha[j] = aj;

      // Update the decision cache and bias. Each f[k] is written by
      // exactly one chunk, with the same two-kernel delta regardless of
      // the thread count.
      const double di = (ai - ai_old) * y[i];
      const double dj = (aj - aj_old) * y[j];
      parallel_for(n, 512, [&](std::size_t k_begin, std::size_t k_end) {
        for (std::size_t k = k_begin; k < k_end; ++k) {
          double delta = 0.0;
          if (di != 0.0) delta += di * rbf(X.row(i), X.row(k), gamma_);
          if (dj != 0.0) delta += dj * rbf(X.row(j), X.row(k), gamma_);
          f[k] += delta;
        }
      });
      const double b1 = b - Ei - di * 1.0 - dj * kij;
      const double b2 = b - Ej - di * kij - dj * 1.0;
      if (ai > 0.0 && ai < Ci) {
        b = b1;
      } else if (aj > 0.0 && aj < Cj) {
        b = b2;
      } else {
        b = (b1 + b2) / 2.0;
      }
      ++changed;
      ++iters;
    }
    passes = changed == 0 ? passes + 1 : 0;
  }

  // Keep only support vectors (counted first so the matrix is sized once).
  std::size_t n_support = 0;
  for (std::size_t i = 0; i < n; ++i) n_support += alpha[i] > 1e-9 ? 1 : 0;
  support_ = Matrix(0, input_dims_);
  support_.reserve_rows(n_support);
  dual_coef_.clear();
  dual_coef_.reserve(n_support);
  for (std::size_t i = 0; i < n; ++i) {
    if (alpha[i] > 1e-9) {
      support_.push_row(X.row(i));
      dual_coef_.push_back(static_cast<float>(alpha[i] * y[i]));
    }
  }
  smo_bias_ = static_cast<float>(b);

  // Platt scaling on (subsampled) training margins. margin() is const and
  // rows are disjoint.
  std::vector<float> margins(n);
  std::vector<Label> labels(n);
  parallel_for(n, 64, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      margins[i] = margin(X.row(i));
      labels[i] = y[i] > 0 ? 1 : 0;
    }
  });
  fit_platt(margins, labels);
}

void Svm::fit_platt(std::span<const float> margins,
                    std::span<const Label> labels) {
  double a = 1.0, b = 0.0;
  const double lr = 0.1;
  const auto n = static_cast<double>(margins.size());
  for (std::uint64_t it = 0; it < kPlattIters; ++it) {
    // Ordered reduction: per-chunk partial gradients combined in chunk
    // order, so the float sums are identical for any thread count.
    const auto [ga, gb] = parallel_reduce(
        margins.size(), 2048, std::pair<double, double>{0.0, 0.0},
        [&](std::size_t begin, std::size_t end) {
          double pa = 0.0, pb = 0.0;
          for (std::size_t r = begin; r < end; ++r) {
            const double p = 1.0 / (1.0 + std::exp(-(a * margins[r] + b)));
            const double err = p - static_cast<double>(labels[r]);
            pa += err * margins[r];
            pb += err;
          }
          return std::pair<double, double>{pa, pb};
        },
        [](std::pair<double, double> acc, std::pair<double, double> p) {
          return std::pair<double, double>{acc.first + p.first,
                                           acc.second + p.second};
        });
    a -= lr * ga / n;
    b -= lr * gb / n;
  }
  platt_a_ = static_cast<float>(a);
  platt_b_ = static_cast<float>(b);
}

float Svm::margin(std::span<const float> x) const {
  REPRO_CHECK_MSG(x.size() == input_dims_, "feature width mismatch");
  double m = smo_bias_;
  for (std::size_t s = 0; s < support_.rows(); ++s) {
    m += dual_coef_[s] * rbf(support_.row(s), x, gamma_);
  }
  return static_cast<float>(m);
}

float Svm::predict_proba(std::span<const float> x) const {
  const float m = margin(x);
  return 1.0f / (1.0f + std::exp(-(platt_a_ * m + platt_b_)));
}

}  // namespace repro::ml
