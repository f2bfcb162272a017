// Tests: optimizers, scheduler, precision emulation, trainer, DDP.
#include <gtest/gtest.h>

#include <cmath>

#include "ml/layers_basic.hpp"
#include "ml/models.hpp"
#include "ml/optim.hpp"
#include "ml/trainer.hpp"
#include "parallel/world.hpp"

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

TEST(Sgd, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 by hand-driving the optimizer.
  Param w("w", Tensor({1}, {0.0f}));
  Sgd opt({&w}, 0.1);
  for (int i = 0; i < 200; ++i) {
    w.grad[0] = 2.0f * (w.value[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(w.value[0], 3.0f, 1e-3);
}

TEST(Adam, ConvergesFasterThanSgdOnIllConditioned) {
  auto run = [](Optimizer& opt, Param& w1, Param& w2) {
    for (int i = 0; i < 100; ++i) {
      w1.grad[0] = 2.0f * 100.0f * (w1.value[0] - 1.0f);
      w2.grad[0] = 2.0f * 0.01f * (w2.value[0] - 1.0f);
      opt.step();
    }
    return std::abs(w1.value[0] - 1.0f) + std::abs(w2.value[0] - 1.0f);
  };
  Param a1("a1", Tensor({1})), a2("a2", Tensor({1}));
  Adam adam({&a1, &a2}, 0.1);
  const double adam_err = run(adam, a1, a2);
  Param s1("s1", Tensor({1})), s2("s2", Tensor({1}));
  Sgd sgd({&s1, &s2}, 0.001);  // larger lr diverges on the stiff axis
  const double sgd_err = run(sgd, s1, s2);
  EXPECT_LT(adam_err, sgd_err);
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

TEST(Trainer, DdpMatchesGradientAveragingSemantics) {
  // 2-rank DDP on identical data halves must produce a *working* model;
  // exact equality with serial isn't required (batch sharding changes the
  // effective batch statistics) but convergence is.
  World world(2);
  std::vector<double> losses(2, 1e9);
  world.run([&](Comm& comm) {
    Rng rng(8);
    TensorDataset data = linear_dataset(128, rng);
    Rng mrng(9);  // identical init on both ranks
    Sequential model;
    model.push(std::make_unique<Dense>(1, 8, mrng));
    model.push(std::make_unique<ActivationLayer>(Activation::kTanh));
    model.push(std::make_unique<Dense>(8, 1, mrng));
    TrainConfig cfg;
    cfg.epochs = 40;
    cfg.lr = 1e-2;
    const auto report = fit(model, data, cfg, &comm);
    losses[comm.rank()] = report.test_loss;
  });
  EXPECT_LT(losses[0], 0.02);
  // Ranks end with identical models (same allreduced gradients).
  EXPECT_DOUBLE_EQ(losses[0], losses[1]);
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

}  // namespace
}  // namespace sickle::ml
