#include "ml/neural_network.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/parallel.hpp"

namespace repro::ml {

NeuralNetwork::NeuralNetwork(const Params& params, std::uint64_t seed)
    : params_(params), rng_(seed) {}

namespace {
constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;

inline float sigmoidf(float z) noexcept {
  return 1.0f / (1.0f + std::exp(-z));
}
}  // namespace

void NeuralNetwork::forward(std::span<const float> x,
                            std::vector<std::vector<float>>& acts) const {
  acts.resize(layers_.size() + 1);
  acts[0].assign(x.begin(), x.end());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    auto& out = acts[l + 1];
    out.assign(layer.out, 0.0f);
    const auto& in = acts[l];
    for (std::size_t o = 0; o < layer.out; ++o) {
      const float* w = layer.w.data() + o * layer.in;
      float z = layer.b[o];
      for (std::size_t c = 0; c < layer.in; ++c) z += w[c] * in[c];
      const bool is_output = l + 1 == layers_.size();
      out[o] = is_output ? z : (z > 0.0f ? z : 0.0f);  // ReLU hidden, raw out
    }
  }
}

void NeuralNetwork::fit(const Dataset& train) {
  train.validate();
  REPRO_CHECK_MSG(train.size() > 0, "empty training set");
  const std::size_t d = train.features();

  // Build layer stack: hidden... + 1 output unit.
  layers_.clear();
  std::size_t in = d;
  auto make_layer = [&](std::size_t out) {
    Layer l;
    l.in = in;
    l.out = out;
    l.w.resize(out * in);
    l.b.assign(out, 0.0f);
    const double scale = std::sqrt(2.0 / static_cast<double>(in));  // He init
    for (auto& w : l.w) w = static_cast<float>(rng_.normal(0.0, scale));
    l.mw.assign(l.w.size(), 0.0);
    l.vw.assign(l.w.size(), 0.0);
    l.mb.assign(out, 0.0);
    l.vb.assign(out, 0.0);
    in = out;
    layers_.push_back(std::move(l));
  };
  for (const std::size_t h : params_.hidden) make_layer(h);
  make_layer(1);

  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  // Per-layer gradient accumulators.
  std::vector<std::vector<double>> gw(layers_.size()), gb(layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    gw[l].assign(layers_[l].w.size(), 0.0);
    gb[l].assign(layers_[l].out, 0.0);
  }

  // Per-chunk backprop scratch: samples within a batch are independent
  // given fixed weights, so chunks accumulate private gradients that are
  // merged in ascending chunk order (bit-identical for any thread count).
  constexpr std::size_t kBatchGrain = 32;
  struct GradChunk {
    std::vector<std::vector<double>> gw, gb;
    std::vector<std::vector<float>> acts, delta;
  };
  std::vector<GradChunk> scratch(
      chunk_count(params_.batch_size, kBatchGrain));
  for (GradChunk& gc : scratch) {
    gc.gw.resize(layers_.size());
    gc.gb.resize(layers_.size());
    gc.delta.resize(layers_.size() + 1);
  }

  std::size_t step = 0;

  for (std::size_t epoch = 0; epoch < params_.epochs; ++epoch) {
    rng_.shuffle(order);
    for (std::size_t begin = 0; begin < order.size();
         begin += params_.batch_size) {
      const std::size_t end =
          std::min(begin + params_.batch_size, order.size());
      for (std::size_t l = 0; l < layers_.size(); ++l) {
        std::fill(gw[l].begin(), gw[l].end(), 0.0);
        std::fill(gb[l].begin(), gb[l].end(), 0.0);
      }

      const std::size_t bsize = end - begin;
      const std::size_t nchunks = chunk_count(bsize, kBatchGrain);
      parallel_for_chunks(
          bsize, kBatchGrain,
          [&](std::size_t c, std::size_t c_begin, std::size_t c_end) {
            GradChunk& gc = scratch[c];
            for (std::size_t l = 0; l < layers_.size(); ++l) {
              gc.gw[l].assign(layers_[l].w.size(), 0.0);
              gc.gb[l].assign(layers_[l].out, 0.0);
            }
            auto& acts = gc.acts;
            auto& delta = gc.delta;
            for (std::size_t i = begin + c_begin; i < begin + c_end; ++i) {
              const std::size_t r = order[i];
              forward(train.X.row(r), acts);
              const float y = static_cast<float>(train.y[r]);
              const float p = sigmoidf(acts.back()[0]);
              const float w_sample =
                  train.y[r] ? static_cast<float>(params_.pos_weight) : 1.0f;

              // Output delta of BCE + sigmoid is (p - y).
              delta[layers_.size()].assign(1, (p - y) * w_sample);
              for (std::size_t l = layers_.size(); l-- > 0;) {
                const Layer& layer = layers_[l];
                const auto& dout = delta[l + 1];
                const auto& ain = acts[l];
                auto& din = delta[l];
                din.assign(layer.in, 0.0f);
                for (std::size_t o = 0; o < layer.out; ++o) {
                  const float dz = dout[o];
                  if (dz == 0.0f) continue;
                  const float* w = layer.w.data() + o * layer.in;
                  double* g = gc.gw[l].data() + o * layer.in;
                  for (std::size_t c2 = 0; c2 < layer.in; ++c2) {
                    g[c2] += static_cast<double>(dz) * ain[c2];
                    din[c2] += dz * w[c2];
                  }
                  gc.gb[l][o] += dz;
                }
                if (l > 0) {
                  // ReLU derivative on the pre-activations of layer l-1's
                  // output.
                  const auto& a = acts[l];
                  for (std::size_t c2 = 0; c2 < din.size(); ++c2) {
                    if (a[c2] <= 0.0f) din[c2] = 0.0f;
                  }
                }
              }
            }
          });
      for (std::size_t c = 0; c < nchunks; ++c) {
        const GradChunk& gc = scratch[c];
        for (std::size_t l = 0; l < layers_.size(); ++l) {
          for (std::size_t k = 0; k < gw[l].size(); ++k) {
            gw[l][k] += gc.gw[l][k];
          }
          for (std::size_t k = 0; k < gb[l].size(); ++k) {
            gb[l][k] += gc.gb[l][k];
          }
        }
      }

      // Adam update.
      ++step;
      const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(step));
      const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(step));
      const double scale = 1.0 / static_cast<double>(end - begin);
      for (std::size_t l = 0; l < layers_.size(); ++l) {
        Layer& layer = layers_[l];
        for (std::size_t k = 0; k < layer.w.size(); ++k) {
          const double g = gw[l][k] * scale + params_.l2 * layer.w[k];
          layer.mw[k] = kBeta1 * layer.mw[k] + (1.0 - kBeta1) * g;
          layer.vw[k] = kBeta2 * layer.vw[k] + (1.0 - kBeta2) * g * g;
          layer.w[k] -= static_cast<float>(params_.learning_rate *
                                           (layer.mw[k] / bc1) /
                                           (std::sqrt(layer.vw[k] / bc2) + kEps));
        }
        for (std::size_t k = 0; k < layer.out; ++k) {
          const double g = gb[l][k] * scale;
          layer.mb[k] = kBeta1 * layer.mb[k] + (1.0 - kBeta1) * g;
          layer.vb[k] = kBeta2 * layer.vb[k] + (1.0 - kBeta2) * g * g;
          layer.b[k] -= static_cast<float>(params_.learning_rate *
                                           (layer.mb[k] / bc1) /
                                           (std::sqrt(layer.vb[k] / bc2) + kEps));
        }
      }
    }
  }
}

float NeuralNetwork::predict_proba(std::span<const float> x) const {
  REPRO_CHECK_MSG(!layers_.empty(), "predict before fit");
  REPRO_CHECK_MSG(x.size() == layers_.front().in, "feature width mismatch");
  std::vector<std::vector<float>> acts;
  forward(x, acts);
  return sigmoidf(acts.back()[0]);
}

}  // namespace repro::ml
