// Multi-head self-attention and a pre-LN transformer encoder layer.
//
// Both transformer-based architectures in the paper (MLP-Transformer and
// CNN-Transformer) use a transformer encoder over the temporal token
// sequence. Attention here is exact (O(T^2)) — the quadratic cost the
// paper cites as the reason hypercubes are capped at 32^3 — and the
// attention-scaling bench measures exactly that behaviour.
#pragma once

#include <memory>

#include "ml/layers_basic.hpp"
#include "ml/module.hpp"

namespace sickle::ml {

/// Input/output [B, T, D]; D must be divisible by heads.
///
/// Arithmetic contract: every score, probability and gradient gets the
/// same IEEE operations, in the same order, as one output at a time.
/// Scores, dp, dV and dK run across keys (SIMD lanes over per-head
/// transposed K, V, dV and dK scratch), each lane summing over the head
/// dimension or the query rows in order; dQ takes each key in order. The
/// softmax (max, expf and its serial denominator) and sum_s p*dp stay
/// scalar.
class MultiHeadSelfAttention final : public Module {
 public:
  MultiHeadSelfAttention(std::size_t dim, std::size_t heads, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] double flops() const override;
  [[nodiscard]] std::string name() const override { return "MHSA"; }

 private:
  std::size_t dim_, heads_, head_dim_;
  Param w_q_, w_k_, w_v_, w_o_;

  Tensor cached_input_;   // [B, T, D]
  Tensor q_, k_, v_;      // [B, T, D]
  Tensor probs_;          // [B, heads, T, T] softmax weights
  Tensor concat_;         // [B, T, D] pre-output-projection
  std::size_t batch_ = 0, steps_ = 0;
};

/// Pre-LN encoder block: x += MHSA(LN(x)); x += FFN(LN(x)).
class TransformerEncoderLayer final : public Module {
 public:
  TransformerEncoderLayer(std::size_t dim, std::size_t heads,
                          std::size_t ffn_dim, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override {
    return "TransformerEncoderLayer";
  }

 private:
  LayerNorm ln1_;
  MultiHeadSelfAttention attn_;
  LayerNorm ln2_;
  Dense ffn1_;
  ActivationLayer gelu_;
  Dense ffn2_;
};

}  // namespace sickle::ml
