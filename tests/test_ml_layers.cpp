// Gradient checks and unit tests for every layer in the ML stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "grad_check.hpp"
#include "ml/attention.hpp"
#include "ml/conv3d.hpp"
#include "ml/layers_basic.hpp"
#include "ml/loss.hpp"
#include "ml/lstm.hpp"
#include "ml/tensor.hpp"

namespace sickle::ml {
namespace {

using testing::check_gradients;

TEST(Tensor, ShapeAndReshape) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.shape_str(), "[2, 3]");
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.dim(0), 3u);
  EXPECT_THROW(t.reshaped({4, 2}), CheckError);
}

TEST(Tensor, MatmulKnownValues) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  const std::vector<float> a{1, 2, 3, 4};
  const std::vector<float> b{5, 6, 7, 8};
  std::vector<float> c(4, 0.0f);
  matmul(a, b, c, 2, 2, 2);
  EXPECT_FLOAT_EQ(c[0], 19.0f);
  EXPECT_FLOAT_EQ(c[1], 22.0f);
  EXPECT_FLOAT_EQ(c[2], 43.0f);
  EXPECT_FLOAT_EQ(c[3], 50.0f);
}

TEST(Tensor, MatmulVariantsConsistent) {
  Rng rng(1);
  const std::size_t m = 3, k = 4, n = 5;
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  std::vector<float> c1(m * n);
  matmul(a.data(), b.data(), c1, m, k, n);
  // b_t stored as [n, k]: transpose b.
  Tensor bt({n, k});
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < n; ++j) bt[j * k + i] = b[i * n + j];
  }
  std::vector<float> c2(m * n);
  matmul_bt(a.data(), bt.data(), c2, m, k, n);
  // a_t stored as [k, m]: transpose a.
  Tensor at({k, m});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < k; ++j) at[j * m + i] = a[i * k + j];
  }
  std::vector<float> c3(m * n);
  matmul_at(at.data(), b.data(), c3, m, k, n);
  for (std::size_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(c1[i], c2[i], 1e-5);
    EXPECT_NEAR(c1[i], c3[i], 1e-5);
  }
}

TEST(Dense, ForwardKnownValues) {
  Rng rng(2);
  Dense d(2, 1, rng);
  // Overwrite weights for a deterministic check: y = 2x0 - x1 + 0.5.
  d.parameters()[0]->value[0] = 2.0f;
  d.parameters()[0]->value[1] = -1.0f;
  d.parameters()[1]->value[0] = 0.5f;
  const Tensor x({1, 2}, {3.0f, 4.0f});
  const Tensor y = d.forward(x);
  EXPECT_FLOAT_EQ(y[0], 2.0f * 3.0f - 4.0f + 0.5f);
}

TEST(Dense, GradCheck) {
  Rng rng(3);
  Dense d(5, 4, rng);
  check_gradients(d, Tensor::randn({3, 5}, rng));
}

TEST(Dense, GradCheckHigherRankInput) {
  Rng rng(4);
  Dense d(4, 3, rng);
  check_gradients(d, Tensor::randn({2, 3, 4}, rng));
}

class ActivationGrad : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationGrad, GradCheck) {
  Rng rng(5);
  ActivationLayer layer(GetParam());
  check_gradients(layer, Tensor::randn({2, 7}, rng));
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationGrad,
                         ::testing::Values(Activation::kRelu,
                                           Activation::kTanh,
                                           Activation::kGelu,
                                           Activation::kSigmoid),
                         [](const auto& info) {
                           switch (info.param) {
                             case Activation::kRelu: return "relu";
                             case Activation::kTanh: return "tanh";
                             case Activation::kGelu: return "gelu";
                             default: return "sigmoid";
                           }
                         });

TEST(Activation, ReluClampsNegatives) {
  ActivationLayer relu(Activation::kRelu);
  const Tensor x({1, 3}, {-1.0f, 0.0f, 2.0f});
  const Tensor y = relu.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
}

TEST(LayerNorm, NormalizesRows) {
  LayerNorm ln(4);
  const Tensor x({2, 4}, {1.0f, 2.0f, 3.0f, 4.0f, 10.0f, 10.0f, 10.0f,
                          14.0f});
  const Tensor y = ln.forward(x);
  for (std::size_t r = 0; r < 2; ++r) {
    float mean = 0.0f, var = 0.0f;
    for (std::size_t j = 0; j < 4; ++j) mean += y[r * 4 + j];
    mean /= 4.0f;
    for (std::size_t j = 0; j < 4; ++j) {
      var += (y[r * 4 + j] - mean) * (y[r * 4 + j] - mean);
    }
    EXPECT_NEAR(mean, 0.0f, 1e-5);
    EXPECT_NEAR(var / 4.0f, 1.0f, 1e-3);
  }
}

TEST(LayerNorm, GradCheck) {
  Rng rng(6);
  LayerNorm ln(6);
  check_gradients(ln, Tensor::randn({3, 6}, rng));
}

TEST(Sequential, ComposesAndGradChecks) {
  Rng rng(9);
  Sequential seq;
  seq.push(std::make_unique<Dense>(4, 8, rng));
  seq.push(std::make_unique<ActivationLayer>(Activation::kTanh));
  seq.push(std::make_unique<Dense>(8, 2, rng));
  check_gradients(seq, Tensor::randn({3, 4}, rng));
  EXPECT_EQ(seq.parameters().size(), 4u);
}

TEST(Lstm, OutputShapeAndRange) {
  Rng rng(10);
  Lstm lstm(3, 5, rng);
  const Tensor x = Tensor::randn({2, 7, 3}, rng);
  const Tensor y = lstm.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 7, 5}));
  // h = o * tanh(c) in (-1, 1).
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_GT(y[i], -1.0f);
    EXPECT_LT(y[i], 1.0f);
  }
}

TEST(Lstm, GradCheck) {
  Rng rng(11);
  Lstm lstm(2, 3, rng);
  testing::GradCheckOptions opts;
  opts.eps = 5e-3f;
  check_gradients(lstm, Tensor::randn({2, 4, 2}, rng), 1234, opts);
}

TEST(Mhsa, OutputShapePreserved) {
  Rng rng(12);
  MultiHeadSelfAttention attn(8, 2, rng);
  const Tensor x = Tensor::randn({2, 5, 8}, rng);
  EXPECT_EQ(attn.forward(x).shape(), x.shape());
}

TEST(Mhsa, GradCheck) {
  Rng rng(13);
  MultiHeadSelfAttention attn(4, 2, rng);
  testing::GradCheckOptions opts;
  opts.eps = 5e-3f;
  check_gradients(attn, Tensor::randn({1, 3, 4}, rng), 99, opts);
}

TEST(Mhsa, RejectsIndivisibleHeads) {
  Rng rng(14);
  EXPECT_THROW(MultiHeadSelfAttention(7, 2, rng), CheckError);
}

TEST(TransformerLayer, GradCheck) {
  Rng rng(15);
  TransformerEncoderLayer layer(4, 2, 8, rng);
  testing::GradCheckOptions opts;
  opts.eps = 5e-3f;
  opts.rtol = 3e-2;
  check_gradients(layer, Tensor::randn({1, 3, 4}, rng), 7, opts);
}

TEST(Conv3D, OutputExtent) {
  Rng rng(16);
  Conv3D conv(1, 2, 3, 2, 1, rng);
  EXPECT_EQ(conv.out_extent(8), 4u);
  const Tensor x = Tensor::randn({1, 1, 8, 8, 8}, rng);
  const Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 2, 4, 4, 4}));
}

TEST(Conv3D, IdentityKernelPassesThrough) {
  Rng rng(17);
  Conv3D conv(1, 1, 1, 1, 0, rng);
  conv.parameters()[0]->value[0] = 1.0f;  // 1x1x1 kernel = identity
  conv.parameters()[1]->value[0] = 0.0f;
  const Tensor x = Tensor::randn({1, 1, 4, 4, 4}, rng);
  const Tensor y = conv.forward(x);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv3D, GradCheck) {
  Rng rng(18);
  Conv3D conv(2, 2, 3, 1, 1, rng);
  testing::GradCheckOptions opts;
  opts.eps = 5e-3f;
  check_gradients(conv, Tensor::randn({1, 2, 4, 4, 4}, rng), 5, opts);
}

TEST(ConvTranspose3D, DoublesExtentWithK4S2P1) {
  Rng rng(19);
  ConvTranspose3D up(1, 1, 4, 2, 1, rng);
  EXPECT_EQ(up.out_extent(4), 8u);
  const Tensor x = Tensor::randn({1, 1, 4, 4, 4}, rng);
  EXPECT_EQ(up.forward(x).shape(),
            (std::vector<std::size_t>{1, 1, 8, 8, 8}));
}

TEST(ConvTranspose3D, GradCheck) {
  Rng rng(20);
  ConvTranspose3D up(2, 1, 4, 2, 1, rng);
  testing::GradCheckOptions opts;
  opts.eps = 5e-3f;
  check_gradients(up, Tensor::randn({1, 2, 3, 3, 3}, rng), 3, opts);
}

TEST(Loss, MseKnownValueAndGrad) {
  const Tensor pred({1, 2}, {1.0f, 3.0f});
  const Tensor target({1, 2}, {0.0f, 0.0f});
  const auto loss = mse_loss(pred, target);
  EXPECT_DOUBLE_EQ(loss.value, (1.0 + 9.0) / 2.0);
  EXPECT_FLOAT_EQ(loss.grad[0], 1.0f);   // 2 * 1 / 2
  EXPECT_FLOAT_EQ(loss.grad[1], 3.0f);
}

TEST(Module, ParameterCountsAndZeroGrad) {
  Rng rng(21);
  Dense d(10, 5, rng);
  EXPECT_EQ(d.num_parameters(), 55u);  // 50 weights + 5 biases
  const Tensor x = Tensor::randn({1, 10}, rng);
  const Tensor y = d.forward(x);
  d.backward(Tensor::randn(y.shape(), rng));
  d.zero_grad();
  for (const Param* p : d.parameters()) {
    for (std::size_t i = 0; i < p->grad.size(); ++i) {
      EXPECT_EQ(p->grad[i], 0.0f);
    }
  }
}

// ------------------------------------------------------------------ Kernels
//
// Each training kernel is pinned, forward and backward, to an in-test copy
// of the scalar loop it was written as: every output, input gradient and
// parameter gradient must be memcmp-equal. Inputs hold exact +0 and -0
// (the zero-skips in matmul, matmul_at, Conv3D backward and
// ConvTranspose3D forward), and each layer runs two forward/backward
// rounds, so the second backward adds onto nonzero weight gradients.

namespace ref {

void matmul(const float* a, const float* b, float* c, std::size_t m,
            std::size_t k, std::size_t n, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const float aip = a[i * k + p];
      if (aip == 0.0f) continue;
      const float* brow = b + p * n;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aip * brow[j];
    }
  }
}

void matmul_bt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      c[i * n + j] += acc;
    }
  }
}

void matmul_at(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float api = arow[i];
      if (api == 0.0f) continue;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += api * brow[j];
    }
  }
}

/// A layer's parameters as plain vectors: values and accumulated grads.
struct Params {
  std::vector<std::vector<float>> value, grad;

  explicit Params(Module& m) {
    for (const Param* p : m.parameters()) {
      value.emplace_back(p->value.data().begin(), p->value.data().end());
      grad.emplace_back(p->grad.data().begin(), p->grad.data().end());
    }
  }
};

/// MultiHeadSelfAttention as the scalar loops it was written as.
struct Mhsa {
  std::size_t dim, heads, hd, batch = 0, steps = 0;
  Params p;
  std::vector<float> input, q, k, v, probs, concat;

  Mhsa(MultiHeadSelfAttention& m, std::size_t dim_, std::size_t heads_)
      : dim(dim_), heads(heads_), hd(dim_ / heads_), p(m) {}

  std::vector<float> forward(const Tensor& x) {
    batch = x.dim(0);
    steps = x.dim(1);
    input.assign(x.data().begin(), x.data().end());
    const std::size_t rows = batch * steps;
    q.assign(rows * dim, 0.0f);
    k.assign(rows * dim, 0.0f);
    v.assign(rows * dim, 0.0f);
    matmul_bt(input.data(), p.value[0].data(), q.data(), rows, dim, dim,
              false);
    matmul_bt(input.data(), p.value[1].data(), k.data(), rows, dim, dim,
              false);
    matmul_bt(input.data(), p.value[2].data(), v.data(), rows, dim, dim,
              false);
    probs.assign(batch * heads * steps * steps, 0.0f);
    concat.assign(rows * dim, 0.0f);
    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t h = 0; h < heads; ++h) {
        const std::size_t off = h * hd;
        float* p_head = probs.data() + ((b * heads + h) * steps) * steps;
        for (std::size_t t = 0; t < steps; ++t) {
          const float* qrow = q.data() + (b * steps + t) * dim + off;
          float* prow = p_head + t * steps;
          float max_score = -1e30f;
          for (std::size_t s = 0; s < steps; ++s) {
            const float* krow = k.data() + (b * steps + s) * dim + off;
            float acc = 0.0f;
            for (std::size_t j = 0; j < hd; ++j) acc += qrow[j] * krow[j];
            prow[s] = acc * scale;
            max_score = std::max(max_score, prow[s]);
          }
          float denom = 0.0f;
          for (std::size_t s = 0; s < steps; ++s) {
            prow[s] = std::exp(prow[s] - max_score);
            denom += prow[s];
          }
          const float inv = 1.0f / denom;
          for (std::size_t s = 0; s < steps; ++s) prow[s] *= inv;
          float* crow = concat.data() + (b * steps + t) * dim + off;
          for (std::size_t j = 0; j < hd; ++j) crow[j] = 0.0f;
          for (std::size_t s = 0; s < steps; ++s) {
            const float* vrow = v.data() + (b * steps + s) * dim + off;
            const float w = prow[s];
            for (std::size_t j = 0; j < hd; ++j) crow[j] += w * vrow[j];
          }
        }
      }
    }
    std::vector<float> out(rows * dim, 0.0f);
    matmul_bt(concat.data(), p.value[3].data(), out.data(), rows, dim, dim,
              false);
    return out;
  }

  std::vector<float> backward(const Tensor& g) {
    const std::size_t rows = batch * steps;
    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    std::vector<float> d_concat(rows * dim, 0.0f);
    matmul_at(g.raw(), concat.data(), p.grad[3].data(), dim, rows, dim,
              true);
    matmul(g.raw(), p.value[3].data(), d_concat.data(), rows, dim, dim,
           false);
    std::vector<float> dq(rows * dim, 0.0f), dk(rows * dim, 0.0f),
        dv(rows * dim, 0.0f);
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t h = 0; h < heads; ++h) {
        const std::size_t off = h * hd;
        const float* p_head =
            probs.data() + ((b * heads + h) * steps) * steps;
        for (std::size_t t = 0; t < steps; ++t) {
          const float* dctx = d_concat.data() + (b * steps + t) * dim + off;
          const float* prow = p_head + t * steps;
          float dot = 0.0f;
          std::vector<float> dp(steps);
          for (std::size_t s = 0; s < steps; ++s) {
            const float* vrow = v.data() + (b * steps + s) * dim + off;
            float acc = 0.0f;
            for (std::size_t j = 0; j < hd; ++j) acc += dctx[j] * vrow[j];
            dp[s] = acc;
            dot += prow[s] * acc;
            float* dvrow = dv.data() + (b * steps + s) * dim + off;
            for (std::size_t j = 0; j < hd; ++j) {
              dvrow[j] += prow[s] * dctx[j];
            }
          }
          const float* qrow = q.data() + (b * steps + t) * dim + off;
          float* dqrow = dq.data() + (b * steps + t) * dim + off;
          for (std::size_t s = 0; s < steps; ++s) {
            const float dscore = prow[s] * (dp[s] - dot) * scale;
            const float* krow = k.data() + (b * steps + s) * dim + off;
            float* dkrow = dk.data() + (b * steps + s) * dim + off;
            for (std::size_t j = 0; j < hd; ++j) {
              dqrow[j] += dscore * krow[j];
              dkrow[j] += dscore * qrow[j];
            }
          }
        }
      }
    }
    matmul_at(dq.data(), input.data(), p.grad[0].data(), dim, rows, dim,
              true);
    matmul_at(dk.data(), input.data(), p.grad[1].data(), dim, rows, dim,
              true);
    matmul_at(dv.data(), input.data(), p.grad[2].data(), dim, rows, dim,
              true);
    std::vector<float> grad_in(rows * dim, 0.0f);
    matmul(dq.data(), p.value[0].data(), grad_in.data(), rows, dim, dim,
           false);
    matmul(dk.data(), p.value[1].data(), grad_in.data(), rows, dim, dim,
           true);
    matmul(dv.data(), p.value[2].data(), grad_in.data(), rows, dim, dim,
           true);
    return grad_in;
  }
};

struct Dims5 {
  std::size_t b, c, d, h, w;
  [[nodiscard]] std::size_t at(std::size_t bi, std::size_t ci, std::size_t z,
                               std::size_t y, std::size_t x) const {
    return (((bi * c + ci) * d + z) * h + y) * w + x;
  }
  [[nodiscard]] std::size_t size() const { return b * c * d * h * w; }
};

/// Shared geometry of the two convolutions: kernel, stride and padding.
struct ConvGeom {
  std::size_t cin, cout, k, s, p;
};

/// Conv3D as the eight nested scalar loops it was written as.
struct Conv {
  ConvGeom g;
  Params p;
  std::vector<float> input;
  Dims5 in{}, out{};

  Conv(Conv3D& m, ConvGeom geom) : g(geom), p(m) {}

  std::vector<float> forward(const Tensor& x) {
    in = {x.dim(0), x.dim(1), x.dim(2), x.dim(3), x.dim(4)};
    input.assign(x.data().begin(), x.data().end());
    const auto ext = [&](std::size_t e) {
      return (e + 2 * g.p - g.k) / g.s + 1;
    };
    out = {in.b, g.cout, ext(in.d), ext(in.h), ext(in.w)};
    std::vector<float> y(out.size(), 0.0f);
    const auto pd = static_cast<std::ptrdiff_t>(g.p);
    const std::size_t k = g.k;
    const std::vector<float>& wt = p.value[0];
    for (std::size_t b = 0; b < in.b; ++b) {
      for (std::size_t oc = 0; oc < g.cout; ++oc) {
        for (std::size_t oz = 0; oz < out.d; ++oz) {
          for (std::size_t oy = 0; oy < out.h; ++oy) {
            for (std::size_t ox = 0; ox < out.w; ++ox) {
              float acc = p.value[1][oc];
              for (std::size_t ic = 0; ic < g.cin; ++ic) {
                for (std::size_t kz = 0; kz < k; ++kz) {
                  const std::ptrdiff_t iz =
                      static_cast<std::ptrdiff_t>(oz * g.s + kz) - pd;
                  if (iz < 0 || iz >= static_cast<std::ptrdiff_t>(in.d))
                    continue;
                  for (std::size_t ky = 0; ky < k; ++ky) {
                    const std::ptrdiff_t iy =
                        static_cast<std::ptrdiff_t>(oy * g.s + ky) - pd;
                    if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in.h))
                      continue;
                    for (std::size_t kx = 0; kx < k; ++kx) {
                      const std::ptrdiff_t ix =
                          static_cast<std::ptrdiff_t>(ox * g.s + kx) - pd;
                      if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(in.w))
                        continue;
                      acc += wt[(((oc * g.cin + ic) * k + kz) * k + ky) * k +
                                kx] *
                             input[in.at(b, ic, static_cast<std::size_t>(iz),
                                         static_cast<std::size_t>(iy),
                                         static_cast<std::size_t>(ix))];
                    }
                  }
                }
              }
              y[out.at(b, oc, oz, oy, ox)] = acc;
            }
          }
        }
      }
    }
    return y;
  }

  std::vector<float> backward(const Tensor& grad_output) {
    std::vector<float> grad_in(in.size(), 0.0f);
    const auto pd = static_cast<std::ptrdiff_t>(g.p);
    const std::size_t k = g.k;
    for (std::size_t b = 0; b < in.b; ++b) {
      for (std::size_t oc = 0; oc < g.cout; ++oc) {
        for (std::size_t oz = 0; oz < out.d; ++oz) {
          for (std::size_t oy = 0; oy < out.h; ++oy) {
            for (std::size_t ox = 0; ox < out.w; ++ox) {
              const float gv = grad_output[out.at(b, oc, oz, oy, ox)];
              if (gv == 0.0f) continue;
              p.grad[1][oc] += gv;
              for (std::size_t ic = 0; ic < g.cin; ++ic) {
                for (std::size_t kz = 0; kz < k; ++kz) {
                  const std::ptrdiff_t iz =
                      static_cast<std::ptrdiff_t>(oz * g.s + kz) - pd;
                  if (iz < 0 || iz >= static_cast<std::ptrdiff_t>(in.d))
                    continue;
                  for (std::size_t ky = 0; ky < k; ++ky) {
                    const std::ptrdiff_t iy =
                        static_cast<std::ptrdiff_t>(oy * g.s + ky) - pd;
                    if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in.h))
                      continue;
                    for (std::size_t kx = 0; kx < k; ++kx) {
                      const std::ptrdiff_t ix =
                          static_cast<std::ptrdiff_t>(ox * g.s + kx) - pd;
                      if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(in.w))
                        continue;
                      const std::size_t widx =
                          (((oc * g.cin + ic) * k + kz) * k + ky) * k + kx;
                      const std::size_t iidx =
                          in.at(b, ic, static_cast<std::size_t>(iz),
                                static_cast<std::size_t>(iy),
                                static_cast<std::size_t>(ix));
                      p.grad[0][widx] += gv * input[iidx];
                      grad_in[iidx] += gv * p.value[0][widx];
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
    return grad_in;
  }
};

/// ConvTranspose3D as the scatter loops it was written as.
struct ConvT {
  ConvGeom g;
  Params p;
  std::vector<float> input;
  Dims5 in{}, out{};

  ConvT(ConvTranspose3D& m, ConvGeom geom) : g(geom), p(m) {}

  std::vector<float> forward(const Tensor& x) {
    in = {x.dim(0), x.dim(1), x.dim(2), x.dim(3), x.dim(4)};
    input.assign(x.data().begin(), x.data().end());
    const auto ext = [&](std::size_t e) {
      return (e - 1) * g.s + g.k - 2 * g.p;
    };
    out = {in.b, g.cout, ext(in.d), ext(in.h), ext(in.w)};
    std::vector<float> y(out.size(), 0.0f);
    for (std::size_t b = 0; b < out.b; ++b) {
      for (std::size_t oc = 0; oc < g.cout; ++oc) {
        float* base = y.data() + out.at(b, oc, 0, 0, 0);
        for (std::size_t i = 0; i < out.d * out.h * out.w; ++i) {
          base[i] = p.value[1][oc];
        }
      }
    }
    const auto pd = static_cast<std::ptrdiff_t>(g.p);
    const std::size_t k = g.k;
    for (std::size_t b = 0; b < in.b; ++b) {
      for (std::size_t ic = 0; ic < g.cin; ++ic) {
        for (std::size_t iz = 0; iz < in.d; ++iz) {
          for (std::size_t iy = 0; iy < in.h; ++iy) {
            for (std::size_t ix = 0; ix < in.w; ++ix) {
              const float xv = input[in.at(b, ic, iz, iy, ix)];
              if (xv == 0.0f) continue;
              for (std::size_t oc = 0; oc < g.cout; ++oc) {
                for (std::size_t kz = 0; kz < k; ++kz) {
                  const std::ptrdiff_t oz =
                      static_cast<std::ptrdiff_t>(iz * g.s + kz) - pd;
                  if (oz < 0 || oz >= static_cast<std::ptrdiff_t>(out.d))
                    continue;
                  for (std::size_t ky = 0; ky < k; ++ky) {
                    const std::ptrdiff_t oy =
                        static_cast<std::ptrdiff_t>(iy * g.s + ky) - pd;
                    if (oy < 0 || oy >= static_cast<std::ptrdiff_t>(out.h))
                      continue;
                    for (std::size_t kx = 0; kx < k; ++kx) {
                      const std::ptrdiff_t ox =
                          static_cast<std::ptrdiff_t>(ix * g.s + kx) - pd;
                      if (ox < 0 || ox >= static_cast<std::ptrdiff_t>(out.w))
                        continue;
                      y[out.at(b, oc, static_cast<std::size_t>(oz),
                               static_cast<std::size_t>(oy),
                               static_cast<std::size_t>(ox))] +=
                          xv * p.value[0][(((ic * g.cout + oc) * k + kz) * k +
                                           ky) * k + kx];
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
    return y;
  }

  std::vector<float> backward(const Tensor& grad_output) {
    std::vector<float> grad_in(in.size(), 0.0f);
    const auto pd = static_cast<std::ptrdiff_t>(g.p);
    const std::size_t k = g.k;
    for (std::size_t b = 0; b < out.b; ++b) {
      for (std::size_t oc = 0; oc < g.cout; ++oc) {
        const float* base = grad_output.raw() + out.at(b, oc, 0, 0, 0);
        float acc = 0.0f;
        for (std::size_t i = 0; i < out.d * out.h * out.w; ++i) {
          acc += base[i];
        }
        p.grad[1][oc] += acc;
      }
    }
    for (std::size_t b = 0; b < in.b; ++b) {
      for (std::size_t ic = 0; ic < g.cin; ++ic) {
        for (std::size_t iz = 0; iz < in.d; ++iz) {
          for (std::size_t iy = 0; iy < in.h; ++iy) {
            for (std::size_t ix = 0; ix < in.w; ++ix) {
              const std::size_t iidx = in.at(b, ic, iz, iy, ix);
              const float xv = input[iidx];
              float dx = 0.0f;
              for (std::size_t oc = 0; oc < g.cout; ++oc) {
                for (std::size_t kz = 0; kz < k; ++kz) {
                  const std::ptrdiff_t oz =
                      static_cast<std::ptrdiff_t>(iz * g.s + kz) - pd;
                  if (oz < 0 || oz >= static_cast<std::ptrdiff_t>(out.d))
                    continue;
                  for (std::size_t ky = 0; ky < k; ++ky) {
                    const std::ptrdiff_t oy =
                        static_cast<std::ptrdiff_t>(iy * g.s + ky) - pd;
                    if (oy < 0 || oy >= static_cast<std::ptrdiff_t>(out.h))
                      continue;
                    for (std::size_t kx = 0; kx < k; ++kx) {
                      const std::ptrdiff_t ox =
                          static_cast<std::ptrdiff_t>(ix * g.s + kx) - pd;
                      if (ox < 0 || ox >= static_cast<std::ptrdiff_t>(out.w))
                        continue;
                      const std::size_t widx =
                          (((ic * g.cout + oc) * k + kz) * k + ky) * k + kx;
                      const float gv =
                          grad_output[out.at(b, oc,
                                             static_cast<std::size_t>(oz),
                                             static_cast<std::size_t>(oy),
                                             static_cast<std::size_t>(ox))];
                      dx += gv * p.value[0][widx];
                      p.grad[0][widx] += gv * xv;
                    }
                  }
                }
              }
              grad_in[iidx] = dx;
            }
          }
        }
      }
    }
    return grad_in;
  }
};

}  // namespace ref

/// Gaussian values with exact +0 and -0 mixed in (every 7th and 11th).
void fill_with_zeros(std::span<float> v, Rng& rng) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<float>(rng.normal());
    if (i % 7 == 3) v[i] = 0.0f;
    if (i % 11 == 5) v[i] = -0.0f;
  }
}

Tensor tensor_with_zeros(std::vector<std::size_t> shape, Rng& rng) {
  Tensor t(std::move(shape));
  fill_with_zeros(t.data(), rng);
  return t;
}

/// Give every parameter (biases included, which start at zero) values with
/// signed zeros, and every gradient a nonzero starting point, so the first
/// backward already accumulates onto something.
void seed_params(Module& m, Rng& rng) {
  for (Param* p : m.parameters()) {
    fill_with_zeros(p->value.data(), rng);
    fill_with_zeros(p->grad.data(), rng);
  }
}

::testing::AssertionResult same_bits(std::span<const float> got,
                                     std::span<const float> want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  }
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0) {
    return ::testing::AssertionSuccess();
  }
  std::size_t i = 0;
  while (std::memcmp(&got[i], &want[i], sizeof(float)) == 0) ++i;
  return ::testing::AssertionFailure()
         << "first difference at " << i << " of " << got.size() << ": "
         << got[i] << " != " << want[i];
}

/// Two forward/backward rounds of `layer` against its reference copy.
template <typename Layer, typename Ref>
void expect_layer_matches(Layer& layer, Ref& want,
                          const std::vector<std::size_t>& in_shape, Rng& rng,
                          const std::string& what) {
  for (int round = 0; round < 2; ++round) {
    const Tensor x = tensor_with_zeros(in_shape, rng);
    const Tensor y = layer.forward(x);
    const std::vector<float> y_ref = want.forward(x);
    ASSERT_TRUE(same_bits(y.data(), y_ref)) << what << " forward " << round;
    const Tensor g = tensor_with_zeros(y.shape(), rng);
    const Tensor dx = layer.backward(g);
    const std::vector<float> dx_ref = want.backward(g);
    ASSERT_TRUE(same_bits(dx.data(), dx_ref))
        << what << " input grad " << round;
    const auto params = layer.parameters();
    for (std::size_t i = 0; i < params.size(); ++i) {
      ASSERT_TRUE(same_bits(params[i]->grad.data(), want.p.grad[i]))
          << what << " " << params[i]->name << " grad " << round;
    }
  }
}

TEST(Kernels, MatmulBtMatchesScalarLoop) {
  constexpr std::size_t kMaxM = 1024, kMaxN = 64, kMaxK = 270;
  Rng rng(101);
  std::vector<float> a(kMaxM * kMaxK), b(kMaxN * kMaxK), c0(kMaxM * kMaxN);
  fill_with_zeros(a, rng);
  fill_with_zeros(b, rng);
  fill_with_zeros(c0, rng);
  std::vector<std::size_t> rows{1, 2, 3, 4, 5, 6, 7, 8, 9, 1024};
  std::vector<std::size_t> cols;
  for (std::size_t n = 1; n <= 17; ++n) cols.push_back(n);
  cols.push_back(32);
  cols.push_back(64);
  for (const std::size_t m : rows) {
    for (const std::size_t n : cols) {
      for (const std::size_t k : {1u, 8u, 32u, 270u}) {
        for (const bool accumulate : {false, true}) {
          std::vector<float> got(c0.begin(), c0.begin() + m * n);
          std::vector<float> want = got;
          matmul_bt(std::span<const float>(a).first(m * k),
                    std::span<const float>(b).first(n * k), got, m, k, n,
                    accumulate);
          ref::matmul_bt(a.data(), b.data(), want.data(), m, k, n,
                         accumulate);
          ASSERT_TRUE(same_bits(got, want))
              << "m " << m << " n " << n << " k " << k << " accumulate "
              << accumulate;
        }
      }
    }
  }
}

TEST(Kernels, AttentionMatchesScalarLoops) {
  struct Shape {
    std::size_t batch, steps, dim, heads;
  };
  std::vector<Shape> shapes;
  for (const std::size_t steps : {1u, 3u, 64u, 65u}) {
    shapes.push_back({2, steps, 8, 2});   // head_dim 4
    shapes.push_back({2, steps, 32, 4});  // head_dim 8
  }
  shapes.push_back({16, 64, 32, 4});  // the train-dense shape
  for (const Shape& s : shapes) {
    Rng rng(200 + s.steps + s.dim);
    MultiHeadSelfAttention attn(s.dim, s.heads, rng);
    seed_params(attn, rng);
    ref::Mhsa want(attn, s.dim, s.heads);
    std::ostringstream what;
    what << "B" << s.batch << " T" << s.steps << " D" << s.dim;
    expect_layer_matches(attn, want, {s.batch, s.steps, s.dim}, rng,
                         what.str());
  }
}

struct ConvCase {
  ref::ConvGeom g;
  std::vector<std::size_t> in_shape;  ///< [B, Cin, D, H, W]
};

std::string describe(const ConvCase& c) {
  std::ostringstream os;
  os << "cin " << c.g.cin << " cout " << c.g.cout << " k" << c.g.k << " s"
     << c.g.s << " p" << c.g.p << " in";
  for (const std::size_t d : c.in_shape) os << ' ' << d;
  return os.str();
}

TEST(Kernels, Conv3DMatchesScalarLoops) {
  std::vector<ConvCase> cases;
  const std::vector<std::pair<std::size_t, std::size_t>> channels{
      {1, 1}, {1, 9}, {2, 5}, {3, 7}, {5, 3}, {6, 2}, {7, 4}, {9, 6}};
  for (const auto& [k, s, p] :
       std::vector<std::array<std::size_t, 3>>{{3, 2, 1}, {3, 1, 1},
                                               {1, 1, 0}}) {
    for (const auto& [cin, cout] : channels) {
      cases.push_back({{cin, cout, k, s, p}, {2, cin, 5, 6, 7}});
    }
    cases.push_back({{4, 8, k, s, p}, {16, 4, 8, 8, 8}});  // train-dense conv1
    cases.push_back({{8, 16, k, s, p}, {2, 8, 4, 4, 4}});  // coarse conv2
  }
  for (const ConvCase& c : cases) {
    Rng rng(300 + c.g.cin * 10 + c.g.cout);
    Conv3D conv(c.g.cin, c.g.cout, c.g.k, c.g.s, c.g.p, rng);
    seed_params(conv, rng);
    ref::Conv want(conv, c.g);
    expect_layer_matches(conv, want, c.in_shape, rng, describe(c));
  }
}

TEST(Kernels, ConvTranspose3DMatchesScalarLoops) {
  std::vector<ConvCase> cases;
  const std::vector<std::pair<std::size_t, std::size_t>> channels{
      {1, 1}, {2, 4}, {3, 1}, {5, 4}, {6, 3}, {7, 9}, {9, 1}};
  for (const auto& [cin, cout] : channels) {
    cases.push_back({{cin, cout, 4, 2, 1}, {2, cin, 2, 3, 4}});
  }
  cases.push_back({{8, 4, 4, 2, 1}, {16, 8, 2, 2, 2}});  // the decoder's up1
  cases.push_back({{4, 1, 4, 2, 1}, {16, 4, 4, 4, 4}});  // and its up2
  cases.push_back({{3, 2, 3, 1, 1}, {2, 3, 3, 4, 5}});
  cases.push_back({{2, 3, 2, 2, 0}, {2, 2, 3, 2, 4}});
  for (const ConvCase& c : cases) {
    Rng rng(400 + c.g.cin * 10 + c.g.cout);
    ConvTranspose3D up(c.g.cin, c.g.cout, c.g.k, c.g.s, c.g.p, rng);
    seed_params(up, rng);
    ref::ConvT want(up, c.g);
    expect_layer_matches(up, want, c.in_shape, rng, describe(c));
  }
}

}  // namespace
}  // namespace sickle::ml
