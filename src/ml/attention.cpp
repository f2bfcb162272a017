#include "ml/attention.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace sickle::ml {

namespace {

// Query rows whose dscore rows attention backward keeps at once.
constexpr std::size_t kQueryBlock = 8;

/// One head's [T, head_dim] slice of a [*, T, dim] row block, starting at
/// `head`, to [head_dim, T] scratch and back.
void head_to_scratch(const float* head, std::size_t steps, std::size_t dim,
                     std::size_t hd, float* scratch) {
  for (std::size_t s = 0; s < steps; ++s) {
    for (std::size_t j = 0; j < hd; ++j) {
      scratch[j * steps + s] = head[s * dim + j];
    }
  }
}

void scratch_to_head(const float* scratch, std::size_t steps,
                     std::size_t dim, std::size_t hd, float* head) {
  for (std::size_t s = 0; s < steps; ++s) {
    for (std::size_t j = 0; j < hd; ++j) {
      head[s * dim + j] = scratch[j * steps + s];
    }
  }
}

}  // namespace

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

  // One head's keys transposed to [head_dim, T], so each score row is
  // computed across keys.
  std::vector<float> kt(head_dim_ * steps_);
  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t h = 0; h < heads_; ++h) {
      const std::size_t off = h * head_dim_;
      head_to_scratch(k_.raw() + b * steps_ * dim_ + off, steps_, dim_,
                      head_dim_, kt.data());
      float* p_head =
          probs_.raw() + ((b * heads_ + h) * steps_) * steps_;
      for (std::size_t t = 0; t < steps_; ++t) {
        const float* qrow = q_.raw() + (b * steps_ + t) * dim_ + off;
        float* prow = p_head + t * steps_;
        // scores[t, s] = scale * q[b,t,off:off+hd] . k[b,s,off:off+hd],
        // each summed over j in order from 0.0f.
        std::fill(prow, prow + steps_, 0.0f);
        for (std::size_t j = 0; j < head_dim_; ++j) {
          const float qj = qrow[j];
          const float* ktrow = kt.data() + j * steps_;
#pragma omp simd
          for (std::size_t s = 0; s < steps_; ++s) prow[s] += qj * ktrow[s];
        }
        float max_score = -1e30f;
        for (std::size_t s = 0; s < steps_; ++s) {
          prow[s] *= scale;
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
#pragma omp simd
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

  // Per head: V transposed and the dV, dK sums, all [head_dim, T], so dp,
  // dV and dK run across keys; dp for one query row; dscore for one block
  // of query rows, whose dQ rows then take each key in order.
  const std::size_t hd = head_dim_;
  const std::size_t block = std::min(kQueryBlock, steps_);
  std::vector<float> vt(hd * steps_), dvt(hd * steps_), dkt(hd * steps_);
  std::vector<float> dp(steps_), dscore(block * steps_);
  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t h = 0; h < heads_; ++h) {
      const std::size_t off = h * hd;
      const std::size_t head = b * steps_ * dim_ + off;
      head_to_scratch(v_.raw() + head, steps_, dim_, hd, vt.data());
      std::fill(dvt.begin(), dvt.end(), 0.0f);
      std::fill(dkt.begin(), dkt.end(), 0.0f);
      const float* p_head =
          probs_.raw() + ((b * heads_ + h) * steps_) * steps_;
      for (std::size_t t0 = 0; t0 < steps_; t0 += block) {
        const std::size_t rows_in_block = std::min(block, steps_ - t0);
        for (std::size_t r = 0; r < rows_in_block; ++r) {
          const std::size_t t = t0 + r;
          const float* dctx = d_concat.raw() + head + t * dim_;
          const float* qrow = q_.raw() + head + t * dim_;
          const float* prow = p_head + t * steps_;
          // dp[t,s] = dctx . v[s];  dV[s] += p[t,s] * dctx
          std::fill(dp.begin(), dp.end(), 0.0f);
          for (std::size_t j = 0; j < hd; ++j) {
            const float dj = dctx[j];
            const float* vtrow = vt.data() + j * steps_;
            float* dvtrow = dvt.data() + j * steps_;
#pragma omp simd
            for (std::size_t s = 0; s < steps_; ++s) {
              dp[s] += dj * vtrow[s];
              dvtrow[s] += prow[s] * dj;
            }
          }
          // softmax backward: dscore = p * (dp - sum_s p dp)
          float dot = 0.0f;
          for (std::size_t s = 0; s < steps_; ++s) dot += prow[s] * dp[s];
          float* ds = dscore.data() + r * steps_;
#pragma omp simd
          for (std::size_t s = 0; s < steps_; ++s) {
            ds[s] = prow[s] * (dp[s] - dot) * scale;
          }
          // dK[s] += dscore[t,s] * q[t]
          for (std::size_t j = 0; j < hd; ++j) {
            const float qj = qrow[j];
            float* dktrow = dkt.data() + j * steps_;
#pragma omp simd
            for (std::size_t s = 0; s < steps_; ++s) dktrow[s] += ds[s] * qj;
          }
        }
        // dQ[t] += dscore[t,s] * k[s], keys in order.
        for (std::size_t s = 0; s < steps_; ++s) {
          const float* krow = k_.raw() + head + s * dim_;
          for (std::size_t r = 0; r < rows_in_block; ++r) {
            const float d = dscore[r * steps_ + s];
            float* dqrow = dq.raw() + head + (t0 + r) * dim_;
#pragma omp simd
            for (std::size_t j = 0; j < hd; ++j) dqrow[j] += d * krow[j];
          }
        }
      }
      scratch_to_head(dvt.data(), steps_, dim_, hd, dv.raw() + head);
      scratch_to_head(dkt.data(), steps_, dim_, hd, dk.raw() + head);
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
