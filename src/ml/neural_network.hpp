// Multi-layer perceptron (the paper's "NN" model): fully-connected ReLU
// hidden layers, sigmoid output, binary cross-entropy loss, mini-batch Adam.
#pragma once

#include <compare>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "ml/model.hpp"

namespace repro::ml {

class NeuralNetwork final : public Model {
 public:
  struct Params {
    using Family = NeuralNetwork;
    static constexpr std::string_view kName = "NN";

    std::vector<std::size_t> hidden = {128, 64};
    std::size_t epochs = 40;
    std::size_t batch_size = 128;
    double learning_rate = 1e-3;
    double l2 = 1e-5;
    double pos_weight = 1.0;

    auto operator<=>(const Params&) const = default;
  };

  explicit NeuralNetwork(const Params& params, std::uint64_t seed = 1234);

  void fit(const Dataset& train) override;
  [[nodiscard]] float predict_proba(std::span<const float> x) const override;

  [[nodiscard]] const Params& params() const noexcept { return params_; }

 private:
  struct Layer {
    std::size_t in = 0;
    std::size_t out = 0;
    std::vector<float> w;  ///< out x in, row-major
    std::vector<float> b;  ///< out
    // Adam moments.
    std::vector<double> mw, vw, mb, vb;
  };

  void forward(std::span<const float> x, std::vector<std::vector<float>>& acts) const;

  Params params_;
  Rng rng_;
  std::vector<Layer> layers_;  ///< hidden layers + final 1-unit layer
};

}  // namespace repro::ml
