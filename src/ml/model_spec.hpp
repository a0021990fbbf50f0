// The stage-2 model as one value (Sec. VI-D): the active alternative is the
// model family, its value that family's parameters. TwoStageConfig carries
// one, so an experiment grid keys on the whole model, and make_model is
// the one place a model is built from it. Each Params names its model
// class (`Family`) and the family's short name (`kName`).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <variant>

#include "ml/gbdt.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/neural_network.hpp"
#include "ml/svm.hpp"

namespace repro::ml {

using ModelSpec =
    std::variant<LogisticRegression::Params, GradientBoostedTrees::Params,
                 Svm::Params, NeuralNetwork::Params>;

/// The paper's four families at their default parameters.
namespace ModelKind {
inline const ModelSpec kLogisticRegression = LogisticRegression::Params{};
inline const ModelSpec kGbdt = GradientBoostedTrees::Params{};
inline const ModelSpec kSvm = Svm::Params{};
inline const ModelSpec kNeuralNetwork = NeuralNetwork::Params{};
}  // namespace ModelKind

/// The family's short name: "LR", "GBDT", "SVM" or "NN".
[[nodiscard]] std::string_view to_string(const ModelSpec& spec) noexcept;

/// The untrained model `spec` describes, seeded with `seed`.
[[nodiscard]] std::unique_ptr<Model> make_model(const ModelSpec& spec,
                                                std::uint64_t seed = 1234);

}  // namespace repro::ml
