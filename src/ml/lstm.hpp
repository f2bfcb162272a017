// LSTM layer (batch-first, full-sequence output) with BPTT backward.
//
// Used by the paper's sample-single architecture: "two LSTM layers, three
// dense layers" predicting a scalar (drag) over a time horizon.
#pragma once

#include "ml/module.hpp"

namespace sickle::ml {

/// Input [B, T, C] -> output [B, T, H]. Gates follow the standard
/// formulation (i, f, g, o) with sigmoid/tanh nonlinearities and zero
/// initial state. Weight layout: w_x [4H, C], w_h [4H, H], bias [4H] with
/// gate order i|f|g|o and PyTorch's forget-bias-zero default.
class Lstm final : public Module {
 public:
  Lstm(std::size_t input_size, std::size_t hidden_size, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] double flops() const override;
  [[nodiscard]] std::string name() const override { return "Lstm"; }

  [[nodiscard]] std::size_t hidden_size() const noexcept { return hidden_; }
  [[nodiscard]] std::size_t input_size() const noexcept { return input_; }

  // Read-only weight access for checkpoint converters (infer::compile).
  [[nodiscard]] const Tensor& w_x() const noexcept { return w_x_.value; }
  [[nodiscard]] const Tensor& w_h() const noexcept { return w_h_.value; }
  [[nodiscard]] const Tensor& bias() const noexcept { return bias_.value; }

 private:
  std::size_t input_, hidden_;
  Param w_x_, w_h_, bias_;

  // Caches for BPTT (shapes noted per entry).
  Tensor cached_input_;              // [B, T, C]
  std::vector<Tensor> gates_;        // per t: [B, 4H] post-activation
  std::vector<Tensor> cells_;        // per t: [B, H] cell state c_t
  std::vector<Tensor> hiddens_;      // per t: [B, H] hidden h_t
  std::size_t batch_ = 0, steps_ = 0;
};

}  // namespace sickle::ml
