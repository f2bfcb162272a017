// 3D convolution layers (channels-first, [B, C, D, H, W]).
//
// The CNN-Transformer encoder uses Conv3D over structured hypercubes; both
// decoder variants use ConvTranspose3D to reconstruct dense fields.
//
// Both are direct convolutions: each kernel-tap range is clipped once per
// axis, and no input is zero-padded (an im2col with zeros would add +-0
// products, which can turn -0 into +0). The SIMD lanes run across
// independent outputs over channel-last scratch copies: Conv3D forward
// across output channels, both backwards across input channels (Conv3D's
// weight and input gradients across (kx, input channel) runs), and
// ConvTranspose3D forward across (kx, output channel) runs. Every output
// still gets the same IEEE operations, in the same order, as the scalar
// loop nest, zero-skips included; weight gradients are copied into the
// scratch and back, so they keep accumulating in order across calls.
#pragma once

#include "ml/module.hpp"

namespace sickle::ml {

/// y = conv3d(x, W) + b. Weight layout [Cout, Cin, k, k, k].
class Conv3D final : public Module {
 public:
  Conv3D(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride, std::size_t padding,
         Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] double flops() const override;
  [[nodiscard]] std::string name() const override { return "Conv3D"; }

  [[nodiscard]] std::size_t out_extent(std::size_t in) const noexcept {
    return (in + 2 * padding_ - kernel_) / stride_ + 1;
  }

 private:
  std::size_t cin_, cout_, kernel_, stride_, padding_;
  Param weight_, bias_;
  Tensor cached_input_;
  double last_flops_ = 0.0;
};

/// Transposed convolution (stride-s upsampling).
/// Weight layout [Cin, Cout, k, k, k] (PyTorch convention).
class ConvTranspose3D final : public Module {
 public:
  ConvTranspose3D(std::size_t in_channels, std::size_t out_channels,
                  std::size_t kernel, std::size_t stride,
                  std::size_t padding, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] double flops() const override;
  [[nodiscard]] std::string name() const override { return "ConvTranspose3D"; }

  [[nodiscard]] std::size_t out_extent(std::size_t in) const noexcept {
    return (in - 1) * stride_ + kernel_ - 2 * padding_;
  }

 private:
  std::size_t cin_, cout_, kernel_, stride_, padding_;
  Param weight_, bias_;
  Tensor cached_input_;
  double last_flops_ = 0.0;
};

}  // namespace sickle::ml
