// Gradient checks and unit tests for every layer in the ML stack.
#include <gtest/gtest.h>

#include <cmath>

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

}  // namespace
}  // namespace sickle::ml
