#include "ml/layers_basic.hpp"

#include <cmath>
#include <numbers>

namespace sickle::ml {

namespace {
/// Effective batch = product of all axes except the last.
std::size_t batch_of(const Tensor& t) {
  SICKLE_CHECK_MSG(t.rank() >= 1, "layer input needs rank >= 1");
  std::size_t b = 1;
  for (std::size_t i = 0; i + 1 < t.rank(); ++i) b *= t.dim(i);
  return b;
}
}  // namespace

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng,
             bool bias)
    : in_(in_features),
      out_(out_features),
      weight_("weight",
              Tensor::randn({out_features, in_features}, rng,
                            static_cast<float>(
                                std::sqrt(2.0 / static_cast<double>(
                                                    in_features))))),
      bias_("bias", Tensor::zeros({out_features})),
      has_bias_(bias) {
  own(weight_);
  if (has_bias_) own(bias_);
}

Tensor Dense::forward(const Tensor& input) {
  SICKLE_CHECK_MSG(input.dim(input.rank() - 1) == in_,
                   "Dense: feature size mismatch");
  cached_input_ = input;
  cached_batch_ = batch_of(input);
  auto out_shape = input.shape();
  out_shape.back() = out_;
  Tensor out(out_shape);
  matmul_bt(input.data(), weight_.value.data(), out.data(), cached_batch_,
            in_, out_);
  if (has_bias_) {
    for (std::size_t b = 0; b < cached_batch_; ++b) {
      float* row = out.raw() + b * out_;
      for (std::size_t j = 0; j < out_; ++j) row[j] += bias_.value[j];
    }
  }
  return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
  const std::size_t b = cached_batch_;
  // dW[o,i] = sum_b g[b,o] * x[b,i]  (A^T * B with A = grad, B = input)
  matmul_at(grad_output.data(), cached_input_.data(), weight_.grad.data(),
            out_, b, in_, /*accumulate=*/true);
  if (has_bias_) {
    for (std::size_t r = 0; r < b; ++r) {
      const float* row = grad_output.raw() + r * out_;
      for (std::size_t j = 0; j < out_; ++j) bias_.grad[j] += row[j];
    }
  }
  // dX = g * W
  Tensor grad_in(cached_input_.shape());
  matmul(grad_output.data(), weight_.value.data(), grad_in.data(), b, out_,
         in_);
  return grad_in;
}

double Dense::flops() const {
  // forward + both backward matmuls.
  return 3.0 * matmul_flops(cached_batch_, in_, out_);
}

Tensor ActivationLayer::forward(const Tensor& input) {
  cached_input_ = input;
  Tensor out(input.shape());
  const auto x = input.data();
  auto y = out.data();
  switch (kind_) {
    case Activation::kRelu:
      for (std::size_t i = 0; i < x.size(); ++i) {
        y[i] = x[i] > 0.0f ? x[i] : 0.0f;
      }
      break;
    case Activation::kTanh:
      for (std::size_t i = 0; i < x.size(); ++i) y[i] = std::tanh(x[i]);
      break;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < x.size(); ++i) {
        y[i] = 1.0f / (1.0f + std::exp(-x[i]));
      }
      break;
    case Activation::kGelu:
      // tanh approximation (matches PyTorch's approximate="tanh").
      for (std::size_t i = 0; i < x.size(); ++i) {
        const float c = 0.7978845608f;  // sqrt(2/pi)
        const float u = c * (x[i] + 0.044715f * x[i] * x[i] * x[i]);
        y[i] = 0.5f * x[i] * (1.0f + std::tanh(u));
      }
      break;
  }
  return out;
}

Tensor ActivationLayer::backward(const Tensor& grad_output) {
  Tensor grad_in(cached_input_.shape());
  const auto x = cached_input_.data();
  const auto g = grad_output.data();
  auto d = grad_in.data();
  switch (kind_) {
    case Activation::kRelu:
      for (std::size_t i = 0; i < x.size(); ++i) {
        d[i] = x[i] > 0.0f ? g[i] : 0.0f;
      }
      break;
    case Activation::kTanh:
      for (std::size_t i = 0; i < x.size(); ++i) {
        const float t = std::tanh(x[i]);
        d[i] = g[i] * (1.0f - t * t);
      }
      break;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < x.size(); ++i) {
        const float s = 1.0f / (1.0f + std::exp(-x[i]));
        d[i] = g[i] * s * (1.0f - s);
      }
      break;
    case Activation::kGelu:
      for (std::size_t i = 0; i < x.size(); ++i) {
        const float c = 0.7978845608f;
        const float x3 = x[i] * x[i] * x[i];
        const float u = c * (x[i] + 0.044715f * x3);
        const float t = std::tanh(u);
        const float du = c * (1.0f + 3.0f * 0.044715f * x[i] * x[i]);
        d[i] = g[i] * (0.5f * (1.0f + t) +
                       0.5f * x[i] * (1.0f - t * t) * du);
      }
      break;
  }
  return grad_in;
}

LayerNorm::LayerNorm(std::size_t features, double eps)
    : features_(features),
      eps_(eps),
      gamma_("gamma", Tensor({features})),
      beta_("beta", Tensor::zeros({features})) {
  gamma_.value.fill(1.0f);
  own(gamma_);
  own(beta_);
}

Tensor LayerNorm::forward(const Tensor& input) {
  SICKLE_CHECK(input.dim(input.rank() - 1) == features_);
  const std::size_t rows = batch_of(input);
  Tensor out(input.shape());
  cached_norm_ = Tensor(input.shape());
  cached_inv_std_ = Tensor({rows});
  for (std::size_t r = 0; r < rows; ++r) {
    const float* x = input.raw() + r * features_;
    float mean = 0.0f;
    for (std::size_t j = 0; j < features_; ++j) mean += x[j];
    mean /= static_cast<float>(features_);
    float var = 0.0f;
    for (std::size_t j = 0; j < features_; ++j) {
      const float d = x[j] - mean;
      var += d * d;
    }
    var /= static_cast<float>(features_);
    const float inv_std =
        1.0f / std::sqrt(var + static_cast<float>(eps_));
    cached_inv_std_[r] = inv_std;
    float* nrm = cached_norm_.raw() + r * features_;
    float* y = out.raw() + r * features_;
    for (std::size_t j = 0; j < features_; ++j) {
      nrm[j] = (x[j] - mean) * inv_std;
      y[j] = nrm[j] * gamma_.value[j] + beta_.value[j];
    }
  }
  return out;
}

Tensor LayerNorm::backward(const Tensor& grad_output) {
  const std::size_t rows = batch_of(grad_output);
  const auto f = static_cast<float>(features_);
  Tensor grad_in(grad_output.shape());
  for (std::size_t r = 0; r < rows; ++r) {
    const float* g = grad_output.raw() + r * features_;
    const float* nrm = cached_norm_.raw() + r * features_;
    const float inv_std = cached_inv_std_[r];
    // dgamma / dbeta
    float sum_g_gamma = 0.0f, sum_g_gamma_nrm = 0.0f;
    for (std::size_t j = 0; j < features_; ++j) {
      gamma_.grad[j] += g[j] * nrm[j];
      beta_.grad[j] += g[j];
      const float gg = g[j] * gamma_.value[j];
      sum_g_gamma += gg;
      sum_g_gamma_nrm += gg * nrm[j];
    }
    float* d = grad_in.raw() + r * features_;
    for (std::size_t j = 0; j < features_; ++j) {
      const float gg = g[j] * gamma_.value[j];
      d[j] = inv_std * (gg - sum_g_gamma / f - nrm[j] * sum_g_gamma_nrm / f);
    }
  }
  return grad_in;
}

Tensor Sequential::forward(const Tensor& input) {
  Tensor x = input;
  for (auto& m : modules_) x = m->forward(x);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

}  // namespace sickle::ml
