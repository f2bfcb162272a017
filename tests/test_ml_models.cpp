// Tests for the paper's model architectures (Table 2 + foundation model).
#include <gtest/gtest.h>

#include "grad_check.hpp"
#include "ml/models.hpp"

namespace sickle::ml {
namespace {

using testing::check_gradients;

TEST(LstmModel, OutputShape) {
  Rng rng(1);
  LstmModelConfig cfg;
  cfg.in_channels = 3;
  cfg.hidden = 8;
  cfg.out_channels = 2;
  cfg.horizon = 2;
  LstmModel model(cfg, rng);
  const Tensor x = Tensor::randn({4, 5, 3}, rng);
  EXPECT_EQ(model.forward(x).shape(),
            (std::vector<std::size_t>{4, 2, 2}));
}

TEST(LstmModel, GradCheck) {
  Rng rng(2);
  LstmModelConfig cfg;
  cfg.in_channels = 2;
  cfg.hidden = 4;
  cfg.out_channels = 1;
  LstmModel model(cfg, rng);
  testing::GradCheckOptions opts;
  opts.eps = 5e-3f;
  opts.rtol = 3e-2;
  check_gradients(model, Tensor::randn({2, 3, 2}, rng), 11, opts);
}

TEST(GridDecoder, ProducesRequestedCube) {
  Rng rng(3);
  GridDecoder dec(16, 2, 8, rng);
  const Tensor x = Tensor::randn({3, 16}, rng);
  EXPECT_EQ(dec.forward(x).shape(),
            (std::vector<std::size_t>{3, 2, 8, 8, 8}));
}

TEST(GridDecoder, RejectsNonMultipleOf4Edge) {
  Rng rng(4);
  EXPECT_THROW(GridDecoder(16, 1, 6, rng), CheckError);
}

TEST(GridDecoder, GradCheck) {
  Rng rng(5);
  GridDecoder dec(8, 1, 4, rng);
  testing::GradCheckOptions opts;
  opts.eps = 5e-3f;
  opts.rtol = 3e-2;
  check_gradients(dec, Tensor::randn({2, 8}, rng), 21, opts);
}

TEST(MlpTransformer, OutputShape) {
  Rng rng(6);
  MlpTransformerConfig cfg;
  cfg.in_channels = 3;
  cfg.num_points = 16;
  cfg.dim = 16;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.ffn = 32;
  cfg.out_channels = 1;
  cfg.out_edge = 8;
  MlpTransformer model(cfg, rng);
  const Tensor x = Tensor::randn({2, 3, 3 * 16}, rng);
  EXPECT_EQ(model.forward(x).shape(),
            (std::vector<std::size_t>{2, 1, 8, 8, 8}));
  EXPECT_GT(model.num_parameters(), 1000u);
  EXPECT_GT(model.flops(), 0.0);
}

TEST(MlpTransformer, GradCheck) {
  Rng rng(7);
  MlpTransformerConfig cfg;
  cfg.in_channels = 2;
  cfg.num_points = 4;
  cfg.dim = 8;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.ffn = 16;
  cfg.out_channels = 1;
  cfg.out_edge = 4;
  MlpTransformer model(cfg, rng);
  testing::GradCheckOptions opts;
  opts.eps = 5e-3f;
  opts.rtol = 4e-2;
  opts.atol = 4e-3;
  check_gradients(model, Tensor::randn({1, 2, 8}, rng), 31, opts);
}

TEST(CnnTransformer, OutputShape) {
  Rng rng(8);
  CnnTransformerConfig cfg;
  cfg.in_channels = 2;
  cfg.edge = 8;
  cfg.dim = 16;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.ffn = 32;
  cfg.out_channels = 1;
  cfg.out_edge = 8;
  CnnTransformer model(cfg, rng);
  const Tensor x = Tensor::randn({2, 2, 2, 8, 8, 8}, rng);
  EXPECT_EQ(model.forward(x).shape(),
            (std::vector<std::size_t>{2, 1, 8, 8, 8}));
}

TEST(CnnTransformer, GradCheck) {
  Rng rng(9);
  CnnTransformerConfig cfg;
  cfg.in_channels = 1;
  cfg.edge = 4;
  cfg.dim = 8;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.ffn = 16;
  cfg.out_channels = 1;
  cfg.out_edge = 4;
  CnnTransformer model(cfg, rng);
  testing::GradCheckOptions opts;
  opts.eps = 5e-3f;
  opts.rtol = 4e-2;
  opts.atol = 4e-3;
  check_gradients(model, Tensor::randn({1, 2, 1, 4, 4, 4}, rng), 41, opts);
}

TEST(FoundationModel, OutputShapeAndRefinement) {
  Rng rng(10);
  FoundationModelConfig cfg;
  cfg.in_channels = 2;
  cfg.edge = 8;
  cfg.patch = 4;
  cfg.dim = 16;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.ffn = 32;
  cfg.out_channels = 1;
  cfg.adaptive_fraction = 0.25;
  FoundationModel model(cfg, rng);
  const Tensor x = Tensor::randn({2, 2, 8, 8, 8}, rng);
  EXPECT_EQ(model.forward(x).shape(),
            (std::vector<std::size_t>{2, 1, 8, 8, 8}));
  // 8 patches per example, 25% refined -> 2 per example, 2 examples.
  EXPECT_EQ(model.refined_patches().size(), 4u);
}

TEST(FoundationModel, RefinesHighVariancePatches) {
  Rng rng(11);
  FoundationModelConfig cfg;
  cfg.in_channels = 1;
  cfg.edge = 8;
  cfg.patch = 4;
  cfg.dim = 8;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.ffn = 16;
  cfg.out_channels = 1;
  cfg.adaptive_fraction = 0.13;  // 1 of 8 patches
  FoundationModel model(cfg, rng);
  // Flat field except one noisy patch (patch id 7: corner x,y,z in [4,8)).
  Tensor x({1, 1, 8, 8, 8});
  Rng noise(12);
  for (std::size_t z = 4; z < 8; ++z) {
    for (std::size_t y = 4; y < 8; ++y) {
      for (std::size_t xx = 4; xx < 8; ++xx) {
        x[(z * 8 + y) * 8 + xx] = static_cast<float>(noise.normal());
      }
    }
  }
  (void)model.forward(x);
  ASSERT_EQ(model.refined_patches().size(), 1u);
  EXPECT_EQ(model.refined_patches()[0], 7u);
}

TEST(FoundationModel, ParamGradCheck) {
  // Input gradients are not propagated (the model is the graph's top), so
  // check parameters only — probe via a wrapper asserting param grads.
  Rng rng(13);
  FoundationModelConfig cfg;
  cfg.in_channels = 1;
  cfg.edge = 4;
  cfg.patch = 2;
  cfg.dim = 8;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.ffn = 16;
  cfg.out_channels = 1;
  cfg.adaptive_fraction = 0.3;
  FoundationModel model(cfg, rng);

  const Tensor x = Tensor::randn({1, 1, 4, 4, 4}, rng);
  Tensor y = model.forward(x);
  Rng crng(14);
  const Tensor coeff = Tensor::randn(y.shape(), crng, 1.0f);
  model.zero_grad();
  (void)model.backward(coeff);

  const float eps = 5e-3f;
  Rng probe_rng(15);
  for (Param* p : model.parameters()) {
    const std::size_t n = p->value.size();
    const auto probes =
        n <= 8 ? [&] {
          std::vector<std::size_t> all(n);
          for (std::size_t i = 0; i < n; ++i) all[i] = i;
          return all;
        }()
               : probe_rng.sample_without_replacement(n, 8);
    for (const std::size_t i : probes) {
      const float saved = p->value[i];
      p->value[i] = saved + eps;
      const double lp = testing::linear_loss(model.forward(x), coeff);
      p->value[i] = saved - eps;
      const double lm = testing::linear_loss(model.forward(x), coeff);
      p->value[i] = saved;
      const double numeric = (lp - lm) / (2.0 * eps);
      const double tol = 4e-3 + 4e-2 * std::max(std::abs(numeric),
                                                std::abs(static_cast<double>(
                                                    p->grad[i])));
      EXPECT_NEAR(p->grad[i], numeric, tol) << p->name << "[" << i << "]";
    }
  }
}

}  // namespace
}  // namespace sickle::ml
