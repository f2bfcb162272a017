// Tests: Adam, scheduler, precision emulation, trainer, pinned fits.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "ml/layers_basic.hpp"
#include "ml/models.hpp"
#include "ml/optim.hpp"
#include "ml/trainer.hpp"
#include "store/chunk_layout.hpp"

namespace sickle::ml {
namespace {

/// y = 2x - 1 regression dataset.
TensorDataset linear_dataset(std::size_t n, Rng& rng) {
  TensorDataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const auto x = static_cast<float>(rng.uniform(-1.0, 1.0));
    data.push(Tensor({1}, {x}), Tensor({1}, {2.0f * x - 1.0f}));
  }
  return data;
}

TEST(Adam, ConvergesFasterThanSgdOnIllConditioned) {
  // Minimize 100 (w1 - 1)^2 + 0.01 (w2 - 1)^2 from the origin, against a
  // plain gradient-descent reference (a larger lr diverges on the stiff
  // axis).
  Param w1("w1", Tensor({1})), w2("w2", Tensor({1}));
  Adam adam({&w1, &w2}, 0.1);
  float s1 = 0.0f, s2 = 0.0f;
  const float sgd_lr = 0.001f;
  for (int i = 0; i < 100; ++i) {
    w1.grad[0] = 2.0f * 100.0f * (w1.value[0] - 1.0f);
    w2.grad[0] = 2.0f * 0.01f * (w2.value[0] - 1.0f);
    adam.step();
    s1 -= sgd_lr * 2.0f * 100.0f * (s1 - 1.0f);
    s2 -= sgd_lr * 2.0f * 0.01f * (s2 - 1.0f);
  }
  const double adam_err =
      std::abs(w1.value[0] - 1.0f) + std::abs(w2.value[0] - 1.0f);
  EXPECT_LT(adam_err, 0.1);
  EXPECT_LT(adam_err, std::abs(s1 - 1.0f) + std::abs(s2 - 1.0f));
}

TEST(ReduceLROnPlateau, ReducesAfterPatienceExhausted) {
  Param w("w", Tensor({1}));
  Adam opt({&w}, 1e-3);
  ReduceLROnPlateau sched(opt, 0.5, 3);
  EXPECT_FALSE(sched.step(1.0));  // sets best
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(sched.step(1.0));
  EXPECT_TRUE(sched.step(1.0));  // 4th bad epoch triggers
  EXPECT_DOUBLE_EQ(opt.lr(), 5e-4);
}

TEST(ReduceLROnPlateau, ImprovementResetsCounter) {
  Param w("w", Tensor({1}));
  Adam opt({&w}, 1e-3);
  ReduceLROnPlateau sched(opt, 0.5, 2);
  sched.step(1.0);
  sched.step(1.0);
  sched.step(0.5);  // improvement
  sched.step(0.6);
  sched.step(0.6);
  EXPECT_DOUBLE_EQ(opt.lr(), 1e-3);  // not yet reduced
}

TEST(ReduceLROnPlateau, RespectsMinLr) {
  Param w("w", Tensor({1}));
  Adam opt({&w}, 1e-3);
  ReduceLROnPlateau sched(opt, 0.1, 0, /*min_lr=*/1e-4);
  sched.step(1.0);
  for (int i = 0; i < 10; ++i) sched.step(2.0);
  EXPECT_GE(opt.lr(), 1e-4);
}

TEST(Precision, Fp32IsIdentity) {
  EXPECT_EQ(quantize(1.2345678f, Precision::kFp32), 1.2345678f);
}

TEST(Precision, Bf16DropsMantissaBits) {
  const float x = 1.0f + 1e-4f;
  const float q = quantize(x, Precision::kBf16);
  EXPECT_NE(q, x);           // below bf16 resolution near 1.0
  EXPECT_NEAR(q, x, 1e-2f);  // but close
  EXPECT_EQ(quantize(1.0f, Precision::kBf16), 1.0f);
}

TEST(Precision, Fp16ClampsRange) {
  EXPECT_LE(quantize(1e6f, Precision::kFp16), 65504.0f);
  EXPECT_NEAR(quantize(0.333333f, Precision::kFp16), 0.333333f, 1e-3f);
}

TEST(TensorDataset, BatchStacksExamples) {
  TensorDataset data;
  data.push(Tensor({2}, {1.0f, 2.0f}), Tensor({1}, {0.0f}));
  data.push(Tensor({2}, {3.0f, 4.0f}), Tensor({1}, {1.0f}));
  const std::vector<std::size_t> idx{1, 0};
  const auto [in, tg] = data.batch(idx);
  EXPECT_EQ(in.shape(), (std::vector<std::size_t>{2, 2}));
  EXPECT_FLOAT_EQ(in[0], 3.0f);  // example 1 first
  EXPECT_FLOAT_EQ(tg[1], 0.0f);
}

TEST(TensorDataset, RejectsInconsistentShapes) {
  TensorDataset data;
  data.push(Tensor({2}), Tensor({1}));
  EXPECT_THROW(data.push(Tensor({3}), Tensor({1})), CheckError);
}

TEST(Trainer, LearnsLinearMap) {
  Rng rng(1);
  TensorDataset data = linear_dataset(200, rng);
  Rng mrng(2);
  Sequential model;
  model.push(std::make_unique<Dense>(1, 8, mrng));
  model.push(std::make_unique<ActivationLayer>(Activation::kTanh));
  model.push(std::make_unique<Dense>(8, 1, mrng));
  TrainConfig cfg;
  cfg.epochs = 60;
  cfg.batch = 16;
  cfg.lr = 1e-2;
  const auto report = fit(model, data, cfg);
  EXPECT_LT(report.test_loss, 0.01);
  EXPECT_LT(report.epoch_losses.back(), report.epoch_losses.front());
  EXPECT_GT(report.energy.joules(), 0.0);
  EXPECT_EQ(report.parameters, model.num_parameters());
}

TEST(Trainer, DeterministicGivenSeed) {
  auto run_once = [] {
    Rng rng(3);
    TensorDataset data = linear_dataset(64, rng);
    Rng mrng(4);
    Sequential model;
    model.push(std::make_unique<Dense>(1, 4, mrng));
    model.push(std::make_unique<Dense>(4, 1, mrng));
    TrainConfig cfg;
    cfg.epochs = 10;
    cfg.seed = 5;
    return fit(model, data, cfg).test_loss;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Trainer, LstmLearnsSineContinuation) {
  // Predict the next sample of a sine from a window — the paper's
  // sample-single problem shape.
  Rng rng(6);
  TensorDataset data;
  const std::size_t window = 8;
  for (std::size_t i = 0; i < 300; ++i) {
    std::vector<float> in(window);
    const double phase = 0.07 * static_cast<double>(i);
    for (std::size_t t = 0; t < window; ++t) {
      in[t] = static_cast<float>(std::sin(phase + 0.3 * t));
    }
    const auto target =
        static_cast<float>(std::sin(phase + 0.3 * window));
    data.push(Tensor({window, 1}, std::move(in)), Tensor({1, 1}, {target}));
  }
  Rng mrng(7);
  LstmModelConfig mc;
  mc.in_channels = 1;
  mc.hidden = 16;
  LstmModel model(mc, mrng);
  TrainConfig cfg;
  cfg.epochs = 40;
  cfg.batch = 32;
  cfg.lr = 5e-3;
  const auto report = fit(model, data, cfg);
  EXPECT_LT(report.test_loss, 0.05);
}

TEST(Trainer, PrecisionEmulationStillConverges) {
  Rng rng(10);
  TensorDataset data = linear_dataset(128, rng);
  Rng mrng(11);
  Sequential model;
  model.push(std::make_unique<Dense>(1, 8, mrng));
  model.push(std::make_unique<Dense>(8, 1, mrng));
  TrainConfig cfg;
  cfg.epochs = 40;
  cfg.lr = 1e-2;
  cfg.precision = Precision::kBf16;
  const auto report = fit(model, data, cfg);
  EXPECT_LT(report.test_loss, 0.05);
}

TEST(Evaluate, MatchesManualMse) {
  TensorDataset data;
  data.push(Tensor({1}, {1.0f}), Tensor({1}, {2.0f}));
  // Identity "model".
  class Identity final : public Module {
   public:
    Tensor forward(const Tensor& x) override { return x; }
    Tensor backward(const Tensor& g) override { return g; }
    [[nodiscard]] std::string name() const override { return "Identity"; }
  };
  Identity model;
  const std::vector<std::size_t> idx{0};
  EXPECT_DOUBLE_EQ(evaluate(model, data, idx), 1.0);  // (1-2)^2
}


/// FNV-1a over the raw bytes of a float vector.
std::uint64_t float_digest(const std::vector<float>& v) {
  return store::fnv1a64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(v.data()),
      v.size() * sizeof(float)));
}

/// Every libm result the training path depends on: Box-Muller's log and
/// cos (weight init), the float exp and tanh of the activations, softmax
/// and LSTM gates, and Adam's bias-correction pow.
std::uint64_t libm_probe() {
  std::vector<float> out;
  for (int i = -4000; i <= 4000; ++i) {
    const float x = static_cast<float>(i) * 2.5e-3f;
    out.push_back(std::exp(x));
    out.push_back(std::tanh(x));
  }
  for (int i = 1; i <= 4000; ++i) {
    const double u = static_cast<double>(i) / 4001.0;
    out.push_back(static_cast<float>(std::log(u)));
    out.push_back(static_cast<float>(std::cos(6.283185307179586 * u)));
    out.push_back(static_cast<float>(std::pow(0.999, static_cast<double>(i))));
  }
  return float_digest(out);
}

struct GoldenFit {
  std::vector<double> epoch_losses;
  double test_loss = 0.0;
  std::size_t parameters = 0;
  double flops = 0.0;
  double projected_kj = 0.0;
};

/// A tiny seeded fit: 20 random examples of the given shapes, 3 epochs of
/// batch 4 (18 train, 2 test).
GoldenFit golden_fit(Module& model, const std::vector<std::size_t>& in_shape,
                     const std::vector<std::size_t>& out_shape) {
  Rng rng(77);
  TensorDataset data;
  for (int i = 0; i < 20; ++i) {
    Tensor in = Tensor::randn(in_shape, rng);  // drawn before the target
    data.push(std::move(in), Tensor::randn(out_shape, rng, 0.5f));
  }
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch = 4;
  cfg.seed = 3;
  const TrainReport r = fit(model, data, cfg);
  return {r.epoch_losses, r.test_loss, model.num_parameters(),
          r.energy.flops(), r.energy.projected_kilojoules()};
}

/// The CNN_Transformer golden with fine tokens, the train-dense model.
GoldenFit fit_cnn_transformer_fine() {
  Rng rng(13);
  CnnTransformerConfig mc;
  mc.in_channels = 2;
  mc.edge = 4;
  mc.dim = 8;
  mc.heads = 2;
  mc.layers = 2;
  mc.ffn = 16;
  mc.out_edge = 4;
  mc.fine_tokens = true;
  CnnTransformer model(mc, rng);
  return golden_fit(model, {2, 2, 4, 4, 4}, {1, 4, 4, 4});
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Training may get faster, never different: for each surrogate a tiny
/// seeded fit pins every epoch loss and the test loss as exact bits, the
/// parameter count, and the report's FLOPs and projected kJ. The fits go
/// through libm (weight init, activations, Adam), so the platform's libm
/// results are pinned first; on a platform whose libm rounds differently
/// the test is reported and skipped rather than failed.
TEST(ModelGolden, FitsArePinned) {
  if (const std::uint64_t probe = libm_probe();
      probe != 0x87978aff38a47dc7ull) {
    std::printf("libm differs on this platform (%016llx); skipped\n",
                static_cast<unsigned long long>(probe));
    GTEST_SKIP();
  }
  struct Golden {
    const char* arch;
    std::function<GoldenFit()> run;
    std::vector<std::uint64_t> epoch_losses;
    std::uint64_t test_loss;
    std::size_t parameters;
    std::uint64_t flops;
    std::uint64_t projected_kj;
  };
  const std::vector<Golden> goldens = {
      {"LSTM",
       [] {
         Rng rng(11);
         LstmModelConfig mc;
         mc.in_channels = 2;
         mc.hidden = 8;
         LstmModel model(mc, rng);
         return golden_fit(model, {4, 2}, {1, 1});
       },
       {0x3fca62e7482af66aull, 0x3fc9561d77c8539eull, 0x3fc9c3a3ffd8c6aeull},
       0x3fe2dee5a55e1257ull, 1009,
       0x4130f29000000000ull, 0x3e72d22b7ed56713ull},
      {"MLP_Transformer",
       [] {
         Rng rng(12);
         MlpTransformerConfig mc;
         mc.in_channels = 2;
         mc.num_points = 8;
         mc.dim = 8;
         mc.heads = 2;
         mc.layers = 2;
         mc.ffn = 16;
         mc.out_edge = 4;
         MlpTransformer model(mc, rng);
         return golden_fit(model, {2, 16}, {1, 4, 4, 4});
       },
       {0x3fce8d86bebfc665ull, 0x3fcef7abee9a8d66ull, 0x3fcddbdb73668abbull},
       0x3fd12c3dfe2be6d1ull, 12117,
       0x41418f8000000000ull, 0x3e9a0cd88bf7639aull},
      {"CNN_Transformer/fine", fit_cnn_transformer_fine,
       {0x3fcf74da7b1b23fdull, 0x3fce90eb481f02b0ull, 0x3fcf0e0c0b2813e6ull},
       0x3fd22a9d2050c524ull, 12221,
       0x4166a9a000000000ull, 0x3eb71ef4fbae3cd9ull},
      {"CNN_Transformer/coarse",
       [] {
         Rng rng(14);
         CnnTransformerConfig mc;
         mc.in_channels = 2;
         mc.edge = 4;
         mc.dim = 8;
         mc.heads = 2;
         mc.layers = 2;
         mc.ffn = 16;
         mc.out_edge = 4;
         CnnTransformer model(mc, rng);
         return golden_fit(model, {2, 2, 4, 4, 4}, {1, 4, 4, 4});
       },
       {0x3fd00a54f1fbdb9aull, 0x3fcebb5fc588afd3ull, 0x3fcf0f44e2392835ull},
       0x3fd3289df3f2b83dull, 15757,
       0x41593bc000000000ull, 0x3eb55a87a8e2c9a6ull},
      {"Foundation",
       [] {
         Rng rng(15);
         FoundationModelConfig mc;
         mc.in_channels = 2;
         mc.edge = 4;
         mc.patch = 2;
         mc.dim = 8;
         mc.heads = 2;
         mc.layers = 2;
         mc.ffn = 16;
         FoundationModel model(mc, rng);
         return golden_fit(model, {2, 4, 4, 4}, {1, 4, 4, 4});
       },
       {0x402d4a453640bef5ull, 0x402893a75077d04full, 0x40245d837a6ddb47ull},
       0x40241c84b1bcaf6cull, 1544,
       0x414dbe0000000000ull, 0x3ea993b943683aaeull},
  };
  for (const auto& g : goldens) {
    const GoldenFit got = g.run();
    ASSERT_EQ(got.epoch_losses.size(), g.epoch_losses.size()) << g.arch;
    for (std::size_t e = 0; e < got.epoch_losses.size(); ++e) {
      EXPECT_EQ(bits(got.epoch_losses[e]), g.epoch_losses[e])
          << g.arch << " epoch " << e << " loss " << got.epoch_losses[e];
    }
    EXPECT_EQ(bits(got.test_loss), g.test_loss) << g.arch << " test loss";
    EXPECT_EQ(got.parameters, g.parameters) << g.arch << " parameters";
    EXPECT_EQ(bits(got.flops), g.flops) << g.arch << " FLOPs";
    EXPECT_EQ(bits(got.projected_kj), g.projected_kj)
        << g.arch << " projected kJ";
  }
}

/// sickle-serve's runners train at once, so the kernels' per-thread
/// scratch must share nothing: four threads fitting the same model at the
/// same time each get the serial bits.
TEST(ModelGolden, ConcurrentFitsMatchSerialBits) {
  const GoldenFit serial = fit_cnn_transformer_fine();
  constexpr std::size_t kThreads = 4;
  std::vector<GoldenFit> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&got, i] { got[i] = fit_cnn_transformer_fine(); });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kThreads; ++i) {
    ASSERT_EQ(got[i].epoch_losses.size(), serial.epoch_losses.size());
    for (std::size_t e = 0; e < serial.epoch_losses.size(); ++e) {
      EXPECT_EQ(bits(got[i].epoch_losses[e]), bits(serial.epoch_losses[e]))
          << "thread " << i << " epoch " << e;
    }
    EXPECT_EQ(bits(got[i].test_loss), bits(serial.test_loss))
        << "thread " << i << " test loss";
  }
}

}  // namespace
}  // namespace sickle::ml
