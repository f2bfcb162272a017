#include "ml/attention.hpp"

#include <cmath>

namespace sickle::ml {

MultiHeadSelfAttention::MultiHeadSelfAttention(std::size_t dim,
                                               std::size_t heads, Rng& rng)
    : dim_(dim),
      heads_(heads),
      head_dim_(dim / heads),
      w_q_("w_q", Tensor::randn({dim, dim}, rng,
                                static_cast<float>(std::sqrt(1.0 / dim)))),
      w_k_("w_k", Tensor::randn({dim, dim}, rng,
                                static_cast<float>(std::sqrt(1.0 / dim)))),
      w_v_("w_v", Tensor::randn({dim, dim}, rng,
                                static_cast<float>(std::sqrt(1.0 / dim)))),
      w_o_("w_o", Tensor::randn({dim, dim}, rng,
                                static_cast<float>(std::sqrt(1.0 / dim)))) {
  SICKLE_CHECK_MSG(dim % heads == 0, "attention dim must divide by heads");
  for (Param* p : {&w_q_, &w_k_, &w_v_, &w_o_}) own(*p);
}

Tensor MultiHeadSelfAttention::forward(const Tensor& input) {
  SICKLE_CHECK_MSG(input.rank() == 3 && input.dim(2) == dim_,
                   "MHSA expects [B, T, D]");
  batch_ = input.dim(0);
  steps_ = input.dim(1);
  cached_input_ = input;
  const std::size_t rows = batch_ * steps_;

  q_ = Tensor({batch_, steps_, dim_});
  k_ = Tensor({batch_, steps_, dim_});
  v_ = Tensor({batch_, steps_, dim_});
  matmul_bt(input.data(), w_q_.value.data(), q_.data(), rows, dim_, dim_);
  matmul_bt(input.data(), w_k_.value.data(), k_.data(), rows, dim_, dim_);
  matmul_bt(input.data(), w_v_.value.data(), v_.data(), rows, dim_, dim_);

  probs_ = Tensor({batch_, heads_, steps_, steps_});
  concat_ = Tensor({batch_, steps_, dim_});
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t h = 0; h < heads_; ++h) {
      const std::size_t off = h * head_dim_;
      float* p_head =
          probs_.raw() + ((b * heads_ + h) * steps_) * steps_;
      // scores[t, s] = scale * q[b,t,off:off+hd] . k[b,s,off:off+hd]
      for (std::size_t t = 0; t < steps_; ++t) {
        const float* qrow = q_.raw() + (b * steps_ + t) * dim_ + off;
        float* prow = p_head + t * steps_;
        float max_score = -1e30f;
        for (std::size_t s = 0; s < steps_; ++s) {
          const float* krow = k_.raw() + (b * steps_ + s) * dim_ + off;
          float acc = 0.0f;
          for (std::size_t j = 0; j < head_dim_; ++j) acc += qrow[j] * krow[j];
          prow[s] = acc * scale;
          max_score = std::max(max_score, prow[s]);
        }
        // softmax row
        float denom = 0.0f;
        for (std::size_t s = 0; s < steps_; ++s) {
          prow[s] = std::exp(prow[s] - max_score);
          denom += prow[s];
        }
        const float inv = 1.0f / denom;
        for (std::size_t s = 0; s < steps_; ++s) prow[s] *= inv;
        // context[t] = sum_s p[t,s] v[s]
        float* crow = concat_.raw() + (b * steps_ + t) * dim_ + off;
        for (std::size_t j = 0; j < head_dim_; ++j) crow[j] = 0.0f;
        for (std::size_t s = 0; s < steps_; ++s) {
          const float* vrow = v_.raw() + (b * steps_ + s) * dim_ + off;
          const float w = prow[s];
          for (std::size_t j = 0; j < head_dim_; ++j) crow[j] += w * vrow[j];
        }
      }
    }
  }

  Tensor out({batch_, steps_, dim_});
  matmul_bt(concat_.data(), w_o_.value.data(), out.data(), rows, dim_, dim_);
  return out;
}

Tensor MultiHeadSelfAttention::backward(const Tensor& grad_output) {
  const std::size_t rows = batch_ * steps_;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  // Output projection.
  Tensor d_concat({batch_, steps_, dim_});
  matmul_at(grad_output.data(), concat_.data(), w_o_.grad.data(), dim_, rows,
            dim_, /*accumulate=*/true);
  matmul(grad_output.data(), w_o_.value.data(), d_concat.data(), rows, dim_,
         dim_);

  Tensor dq({batch_, steps_, dim_});
  Tensor dk({batch_, steps_, dim_});
  Tensor dv({batch_, steps_, dim_});

  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t h = 0; h < heads_; ++h) {
      const std::size_t off = h * head_dim_;
      const float* p_head =
          probs_.raw() + ((b * heads_ + h) * steps_) * steps_;
      for (std::size_t t = 0; t < steps_; ++t) {
        const float* dctx = d_concat.raw() + (b * steps_ + t) * dim_ + off;
        const float* prow = p_head + t * steps_;
        // dV[s] += p[t,s] * dctx ;  dp[t,s] = dctx . v[s]
        // softmax backward: dscore = p * (dp - sum_s p dp)
        float dot = 0.0f;
        std::vector<float> dp(steps_);
        for (std::size_t s = 0; s < steps_; ++s) {
          const float* vrow = v_.raw() + (b * steps_ + s) * dim_ + off;
          float acc = 0.0f;
          for (std::size_t j = 0; j < head_dim_; ++j) acc += dctx[j] * vrow[j];
          dp[s] = acc;
          dot += prow[s] * acc;
          float* dvrow = dv.raw() + (b * steps_ + s) * dim_ + off;
          for (std::size_t j = 0; j < head_dim_; ++j) {
            dvrow[j] += prow[s] * dctx[j];
          }
        }
        const float* qrow = q_.raw() + (b * steps_ + t) * dim_ + off;
        float* dqrow = dq.raw() + (b * steps_ + t) * dim_ + off;
        for (std::size_t s = 0; s < steps_; ++s) {
          const float dscore = prow[s] * (dp[s] - dot) * scale;
          const float* krow = k_.raw() + (b * steps_ + s) * dim_ + off;
          float* dkrow = dk.raw() + (b * steps_ + s) * dim_ + off;
          for (std::size_t j = 0; j < head_dim_; ++j) {
            dqrow[j] += dscore * krow[j];
            dkrow[j] += dscore * qrow[j];
          }
        }
      }
    }
  }

  // Projection weight grads and input grad.
  matmul_at(dq.data(), cached_input_.data(), w_q_.grad.data(), dim_, rows,
            dim_, /*accumulate=*/true);
  matmul_at(dk.data(), cached_input_.data(), w_k_.grad.data(), dim_, rows,
            dim_, /*accumulate=*/true);
  matmul_at(dv.data(), cached_input_.data(), w_v_.grad.data(), dim_, rows,
            dim_, /*accumulate=*/true);

  Tensor grad_in({batch_, steps_, dim_});
  matmul(dq.data(), w_q_.value.data(), grad_in.data(), rows, dim_, dim_);
  matmul(dk.data(), w_k_.value.data(), grad_in.data(), rows, dim_, dim_,
         /*accumulate=*/true);
  matmul(dv.data(), w_v_.value.data(), grad_in.data(), rows, dim_, dim_,
         /*accumulate=*/true);
  return grad_in;
}

double MultiHeadSelfAttention::flops() const {
  const double rows = static_cast<double>(batch_ * steps_);
  const double proj = 4.0 * 2.0 * rows * static_cast<double>(dim_ * dim_);
  const double attn = 2.0 * static_cast<double>(batch_) *
                      static_cast<double>(steps_) *
                      static_cast<double>(steps_) *
                      static_cast<double>(dim_);
  return 3.0 * (proj + 2.0 * attn);
}

TransformerEncoderLayer::TransformerEncoderLayer(std::size_t dim,
                                                 std::size_t heads,
                                                 std::size_t ffn_dim,
                                                 Rng& rng)
    : ln1_(dim),
      attn_(dim, heads, rng),
      ln2_(dim),
      ffn1_(dim, ffn_dim, rng),
      gelu_(Activation::kGelu),
      ffn2_(ffn_dim, dim, rng) {
  for (Module* m : std::initializer_list<Module*>{&ln1_, &attn_, &ln2_,
                                                  &ffn1_, &gelu_, &ffn2_}) {
    child(*m);
  }
}

Tensor TransformerEncoderLayer::forward(const Tensor& input) {
  // x1 = x + attn(ln1(x))
  Tensor a = attn_.forward(ln1_.forward(input));
  Tensor x1(input.shape());
  for (std::size_t i = 0; i < input.size(); ++i) x1[i] = input[i] + a[i];
  // x2 = x1 + ffn(ln2(x1))
  Tensor f = ffn2_.forward(gelu_.forward(ffn1_.forward(ln2_.forward(x1))));
  Tensor x2(x1.shape());
  for (std::size_t i = 0; i < x1.size(); ++i) x2[i] = x1[i] + f[i];
  return x2;
}

Tensor TransformerEncoderLayer::backward(const Tensor& grad_output) {
  // Residual 2: g flows to both x1 and the FFN branch.
  Tensor g_ffn = ln2_.backward(
      ffn1_.backward(gelu_.backward(ffn2_.backward(grad_output))));
  Tensor g_x1(grad_output.shape());
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    g_x1[i] = grad_output[i] + g_ffn[i];
  }
  // Residual 1.
  Tensor g_attn = ln1_.backward(attn_.backward(g_x1));
  Tensor grad_in(g_x1.shape());
  for (std::size_t i = 0; i < g_x1.size(); ++i) {
    grad_in[i] = g_x1[i] + g_attn[i];
  }
  return grad_in;
}

}  // namespace sickle::ml
