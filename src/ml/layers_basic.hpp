// Basic layers: Dense, activations, LayerNorm, Sequential.
//
// Shapes are batch-first; Dense treats the last axis as features and
// flattens everything before it into an effective batch.
#pragma once

#include <memory>

#include "ml/module.hpp"

namespace sickle::ml {

/// Fully connected layer y = x W^T + b with W stored [out, in].
class Dense final : public Module {
 public:
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng,
        bool bias = true);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] double flops() const override;
  [[nodiscard]] std::string name() const override { return "Dense"; }

  [[nodiscard]] std::size_t in_features() const noexcept { return in_; }
  [[nodiscard]] std::size_t out_features() const noexcept { return out_; }

  // Read-only weight access for checkpoint converters (infer::compile).
  [[nodiscard]] const Tensor& weight() const noexcept { return weight_.value; }
  [[nodiscard]] const Tensor& bias() const noexcept { return bias_.value; }
  [[nodiscard]] bool has_bias() const noexcept { return has_bias_; }

 private:
  std::size_t in_, out_;
  Param weight_;
  Param bias_;
  bool has_bias_;
  Tensor cached_input_;
  std::size_t cached_batch_ = 0;
};

/// Elementwise activations.
enum class Activation { kRelu, kTanh, kGelu, kSigmoid };

class ActivationLayer final : public Module {
 public:
  explicit ActivationLayer(Activation kind) : kind_(kind) {}
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "Activation"; }
  [[nodiscard]] Activation kind() const noexcept { return kind_; }

 private:
  Activation kind_;
  Tensor cached_input_;
};

/// Layer normalization over the last axis.
class LayerNorm final : public Module {
 public:
  explicit LayerNorm(std::size_t features, double eps = 1e-5);
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "LayerNorm"; }

 private:
  std::size_t features_;
  double eps_;
  Param gamma_;
  Param beta_;
  Tensor cached_norm_;   ///< normalized input
  Tensor cached_inv_std_;  ///< per-row 1/std
};

/// Container running sub-modules in order.
class Sequential final : public Module {
 public:
  Sequential() = default;
  void push(std::unique_ptr<Module> module) {
    child(*module);
    modules_.push_back(std::move(module));
  }
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "Sequential"; }
  [[nodiscard]] std::size_t size() const noexcept { return modules_.size(); }
  [[nodiscard]] Module& at(std::size_t i) { return *modules_.at(i); }

 private:
  std::vector<std::unique_ptr<Module>> modules_;
};

}  // namespace sickle::ml
