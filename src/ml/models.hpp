// The paper's three surrogate architectures (Table 2) and the MATEY-like
// foundation model used in Fig. 9.
//
//   LSTM            [B,T,C]        -> [B,T',C']        sample-single
//   MLP-Transformer [B,T,C*N]      -> [B,C',E,E,E]     sample-full
//   CNN-Transformer [B,T,C,E,E,E]  -> [B,C',E,E,E]     full-full
//   FoundationModel [B,C,E,E,E]    -> [B,C',E,E,E]     multiscale adaptive
//
// All are assembled from the explicit-backprop layers in this module; the
// decoder of the two transformer variants is a shared ConvTranspose3D
// stack reconstructing a dense E^3 cube (E divisible by 4).
#pragma once

#include <memory>

#include "ml/attention.hpp"
#include "ml/conv3d.hpp"
#include "ml/layers_basic.hpp"
#include "ml/lstm.hpp"
#include "ml/module.hpp"

namespace sickle::ml {

/// "Two LSTM layers, three dense layers" — the drag-prediction surrogate.
struct LstmModelConfig {
  std::size_t in_channels = 2;
  std::size_t hidden = 32;
  std::size_t out_channels = 1;
  std::size_t horizon = 1;  ///< T' predicted steps
};

class LstmModel final : public Module {
 public:
  LstmModel(const LstmModelConfig& cfg, Rng& rng);

  /// [B, T, C] -> [B, horizon, out_channels].
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "LstmModel"; }

  // Structure access for checkpoint converters (infer::compile): the two
  // recurrent layers and the dense head, plus the construction config.
  [[nodiscard]] const LstmModelConfig& config() const noexcept {
    return cfg_;
  }
  [[nodiscard]] const Lstm& lstm1() const noexcept { return lstm1_; }
  [[nodiscard]] const Lstm& lstm2() const noexcept { return lstm2_; }
  [[nodiscard]] Sequential& head() noexcept { return head_; }

 private:
  LstmModelConfig cfg_;
  Lstm lstm1_, lstm2_;
  Sequential head_;
  std::size_t batch_ = 0, steps_ = 0;
};

/// Shared dense-cube decoder: token [*, D] -> [*, C', E, E, E] via a dense
/// seed and two stride-2 transposed convolutions (E = 4 * seed edge).
class GridDecoder final : public Module {
 public:
  GridDecoder(std::size_t token_dim, std::size_t out_channels,
              std::size_t edge, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "GridDecoder"; }

 private:
  std::size_t out_channels_, edge_, seed_edge_, mid_channels_;
  Dense seed_;
  ActivationLayer act1_;
  ConvTranspose3D up1_;
  ActivationLayer act2_;
  ConvTranspose3D up2_;
  std::size_t batch_ = 0;
};

/// MLP encoder + transformer encoder + CNN decoder over unstructured
/// subsampled points (the sample-full architecture).
struct MlpTransformerConfig {
  std::size_t in_channels = 4;   ///< C (variables per point)
  std::size_t num_points = 256;  ///< N subsamples per timestep
  std::size_t dim = 64;          ///< token width
  std::size_t heads = 4;
  std::size_t layers = 2;
  std::size_t ffn = 128;
  std::size_t out_channels = 1;  ///< C'
  std::size_t out_edge = 8;      ///< E (divisible by 4)
};

class MlpTransformer final : public Module {
 public:
  MlpTransformer(const MlpTransformerConfig& cfg, Rng& rng);

  /// [B, T, C*N] -> [B, C', E, E, E] (prediction for the target frame).
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "MlpTransformer"; }

 private:
  MlpTransformerConfig cfg_;
  Sequential encoder_;  ///< per-timestep MLP: C*N -> dim
  Param pos_embed_;     ///< [max_T, dim] learned positional embedding
  std::vector<std::unique_ptr<TransformerEncoderLayer>> blocks_;
  GridDecoder decoder_;
  std::size_t batch_ = 0, steps_ = 0;
  Tensor cached_tokens_;  ///< encoder output + pos, shape [B, T, dim]
};

/// CNN encoder + transformer + CNN decoder over dense hypercubes
/// (the full-full architecture).
///
/// Each frame is tokenized into (edge/4)^3 PATCH tokens (not one token per
/// frame): attention runs over all T * (edge/4)^3 tokens. This is the
/// paper's tractability constraint made concrete — the token count grows
/// with cube volume, and attention is quadratic in it, which is why the
/// paper caps hypercubes at 32^3.
struct CnnTransformerConfig {
  std::size_t in_channels = 4;
  std::size_t edge = 8;          ///< input cube edge (divisible by 4)
  std::size_t dim = 64;
  std::size_t heads = 4;
  std::size_t layers = 2;
  std::size_t ffn = 128;
  std::size_t out_channels = 1;
  std::size_t out_edge = 8;
  /// Fine tokenization: one token per stride-2 conv voxel ((edge/2)^3
  /// tokens/frame) instead of (edge/4)^3 — the regime where attention
  /// dominates, as in the paper's full-full runs.
  bool fine_tokens = false;
};

class CnnTransformer final : public Module {
 public:
  CnnTransformer(const CnnTransformerConfig& cfg, Rng& rng);

  /// [B, T, C, E, E, E] -> [B, C', E', E', E'].
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "CnnTransformer"; }

 private:
  CnnTransformerConfig cfg_;
  Conv3D conv1_;
  ActivationLayer act1_;
  Conv3D conv2_;
  ActivationLayer act2_;
  Dense to_token_;   ///< per-patch: conv channels -> dim
  Param pos_embed_;
  std::vector<std::unique_ptr<TransformerEncoderLayer>> blocks_;
  GridDecoder decoder_;
  std::size_t batch_ = 0, steps_ = 0;
  std::size_t patches_ = 0;  ///< (edge/4)^3 tokens per frame
};

/// MATEY-like multiscale adaptive patch transformer: coarse patch tokens
/// everywhere plus fine-scale tokens on the highest-variance patches
/// (adaptivity), transformer mixing, per-patch linear decode.
struct FoundationModelConfig {
  std::size_t in_channels = 4;
  std::size_t edge = 16;        ///< input cube edge (divisible by patch)
  std::size_t patch = 4;        ///< coarse patch edge
  std::size_t dim = 64;
  std::size_t heads = 4;
  std::size_t layers = 2;
  std::size_t ffn = 128;
  std::size_t out_channels = 1;
  double adaptive_fraction = 0.25;  ///< share of patches refined
};

class FoundationModel final : public Module {
 public:
  FoundationModel(const FoundationModelConfig& cfg, Rng& rng);

  /// [B, C, E, E, E] -> [B, C', E, E, E].
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "FoundationModel"; }

  /// Patch ids refined on the most recent forward (for tests/diagnostics).
  [[nodiscard]] const std::vector<std::size_t>& refined_patches() const {
    return refined_;
  }

 private:
  FoundationModelConfig cfg_;
  std::size_t patches_per_axis_, num_patches_, patch_voxels_;
  Dense coarse_embed_;  ///< patch voxels*C -> dim
  Dense fine_embed_;    ///< same input, separate weights (refinement branch)
  Param pos_embed_;     ///< [num_patches, dim]
  std::vector<std::unique_ptr<TransformerEncoderLayer>> blocks_;
  Dense decode_;        ///< dim -> patch voxels * C'
  std::size_t batch_ = 0;
  std::vector<std::size_t> refined_;
  Tensor cached_patches_;  ///< [B*P, C*patch^3] patch matrix
};

}  // namespace sickle::ml
