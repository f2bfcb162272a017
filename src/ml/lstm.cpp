#include "ml/lstm.hpp"

#include <algorithm>
#include <cmath>

namespace sickle::ml {

namespace {
inline float sigmoidf(float x) { return 1.0f / (1.0f + std::exp(-x)); }
}  // namespace

Lstm::Lstm(std::size_t input_size, std::size_t hidden_size, Rng& rng)
    : input_(input_size),
      hidden_(hidden_size),
      w_x_("w_x", Tensor::randn({4 * hidden_size, input_size}, rng,
                                static_cast<float>(std::sqrt(
                                    1.0 / static_cast<double>(input_size))))),
      w_h_("w_h", Tensor::randn({4 * hidden_size, hidden_size}, rng,
                                static_cast<float>(std::sqrt(
                                    1.0 / static_cast<double>(hidden_size))))),
      bias_("bias", Tensor::zeros({4 * hidden_size})) {
  for (Param* p : {&w_x_, &w_h_, &bias_}) own(*p);
}

Tensor Lstm::forward(const Tensor& input) {
  SICKLE_CHECK_MSG(input.rank() == 3, "LSTM expects [B, T, C]");
  SICKLE_CHECK(input.dim(2) == input_);
  batch_ = input.dim(0);
  steps_ = input.dim(1);
  cached_input_ = input;
  gates_.assign(steps_, Tensor({batch_, 4 * hidden_}));
  cells_.assign(steps_, Tensor({batch_, hidden_}));
  hiddens_.assign(steps_, Tensor({batch_, hidden_}));

  Tensor out({batch_, steps_, hidden_});
  Tensor h_prev({batch_, hidden_});
  Tensor c_prev({batch_, hidden_});
  Tensor x_t({batch_, input_});
  const std::size_t H = hidden_;

  for (std::size_t t = 0; t < steps_; ++t) {
    // Slice x_t = input[:, t, :].
    for (std::size_t b = 0; b < batch_; ++b) {
      const float* src = input.raw() + (b * steps_ + t) * input_;
      std::copy_n(src, input_, x_t.raw() + b * input_);
    }
    Tensor& gates = gates_[t];
    // pre-activation: x W_x^T + h W_h^T + b
    matmul_bt(x_t.data(), w_x_.value.data(), gates.data(), batch_, input_,
              4 * H);
    matmul_bt(h_prev.data(), w_h_.value.data(), gates.data(), batch_, H,
              4 * H, /*accumulate=*/true);
    for (std::size_t b = 0; b < batch_; ++b) {
      float* g = gates.raw() + b * 4 * H;
      const float* cp = c_prev.raw() + b * H;
      float* c = cells_[t].raw() + b * H;
      float* h = hiddens_[t].raw() + b * H;
      for (std::size_t j = 0; j < 4 * H; ++j) g[j] += bias_.value[j];
      for (std::size_t j = 0; j < H; ++j) {
        const float i_g = sigmoidf(g[j]);
        const float f_g = sigmoidf(g[H + j]);
        const float g_g = std::tanh(g[2 * H + j]);
        const float o_g = sigmoidf(g[3 * H + j]);
        // Store post-activation gates for backward.
        g[j] = i_g;
        g[H + j] = f_g;
        g[2 * H + j] = g_g;
        g[3 * H + j] = o_g;
        c[j] = f_g * cp[j] + i_g * g_g;
        h[j] = o_g * std::tanh(c[j]);
      }
      std::copy_n(h, H, out.raw() + (b * steps_ + t) * H);
    }
    h_prev = hiddens_[t];
    c_prev = cells_[t];
  }
  return out;
}

Tensor Lstm::backward(const Tensor& grad_output) {
  SICKLE_CHECK(grad_output.rank() == 3 && grad_output.dim(0) == batch_ &&
               grad_output.dim(1) == steps_ && grad_output.dim(2) == hidden_);
  const std::size_t H = hidden_;
  Tensor grad_in({batch_, steps_, input_});
  Tensor dh_next({batch_, H});
  Tensor dc_next({batch_, H});
  Tensor dgates({batch_, 4 * H});
  Tensor x_t({batch_, input_});

  for (std::size_t t = steps_; t-- > 0;) {
    const Tensor& gates = gates_[t];
    const Tensor& c_t = cells_[t];
    const Tensor* c_prev = (t > 0) ? &cells_[t - 1] : nullptr;
    const Tensor* h_prev = (t > 0) ? &hiddens_[t - 1] : nullptr;

    for (std::size_t b = 0; b < batch_; ++b) {
      const float* g = gates.raw() + b * 4 * H;
      const float* c = c_t.raw() + b * H;
      const float* go = grad_output.raw() + (b * steps_ + t) * H;
      float* dh = dh_next.raw() + b * H;
      float* dc = dc_next.raw() + b * H;
      float* dg = dgates.raw() + b * 4 * H;
      for (std::size_t j = 0; j < H; ++j) {
        const float i_g = g[j], f_g = g[H + j], g_g = g[2 * H + j],
                    o_g = g[3 * H + j];
        const float tanh_c = std::tanh(c[j]);
        const float dh_total = dh[j] + go[j];
        const float dc_total =
            dc[j] + dh_total * o_g * (1.0f - tanh_c * tanh_c);
        const float cp = (c_prev != nullptr) ? c_prev->raw()[b * H + j] : 0.0f;
        // Gate pre-activation gradients.
        dg[j] = dc_total * g_g * i_g * (1.0f - i_g);              // i
        dg[H + j] = dc_total * cp * f_g * (1.0f - f_g);           // f
        dg[2 * H + j] = dc_total * i_g * (1.0f - g_g * g_g);      // g
        dg[3 * H + j] = dh_total * tanh_c * o_g * (1.0f - o_g);   // o
        // Carry to t-1.
        dc[j] = dc_total * f_g;
      }
    }

    // Parameter gradients: dW_x += dgates^T x_t; dW_h += dgates^T h_prev.
    for (std::size_t b = 0; b < batch_; ++b) {
      const float* src = cached_input_.raw() + (b * steps_ + t) * input_;
      std::copy_n(src, input_, x_t.raw() + b * input_);
    }
    matmul_at(dgates.data(), x_t.data(), w_x_.grad.data(), 4 * H, batch_,
              input_, /*accumulate=*/true);
    if (h_prev != nullptr) {
      matmul_at(dgates.data(), h_prev->data(), w_h_.grad.data(), 4 * H,
                batch_, H, /*accumulate=*/true);
    }
    for (std::size_t b = 0; b < batch_; ++b) {
      const float* dg = dgates.raw() + b * 4 * H;
      for (std::size_t j = 0; j < 4 * H; ++j) bias_.grad[j] += dg[j];
    }

    // Input gradient: dx_t = dgates * W_x; dh_prev = dgates * W_h.
    Tensor dx({batch_, input_});
    matmul(dgates.data(), w_x_.value.data(), dx.data(), batch_, 4 * H,
           input_);
    for (std::size_t b = 0; b < batch_; ++b) {
      std::copy_n(dx.raw() + b * input_, input_,
                  grad_in.raw() + (b * steps_ + t) * input_);
    }
    Tensor dh_prev_t({batch_, H});
    matmul(dgates.data(), w_h_.value.data(), dh_prev_t.data(), batch_, 4 * H,
           H);
    dh_next = std::move(dh_prev_t);
  }
  return grad_in;
}

double Lstm::flops() const {
  const double per_step =
      matmul_flops(batch_, input_, 4 * hidden_) +
      matmul_flops(batch_, hidden_, 4 * hidden_);
  return 3.0 * per_step * static_cast<double>(steps_);
}

}  // namespace sickle::ml
