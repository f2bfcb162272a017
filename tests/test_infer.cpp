// Tests for the microsecond surrogate inference engine: parity with the
// training-path forward across the model zoo, checkpoint round-trips, and
// magnitude pruning semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <filesystem>
#include <vector>

#include "infer/engine.hpp"
#include "infer/prune.hpp"
#include "ml/models.hpp"

namespace sickle::infer {
namespace {

namespace fs = std::filesystem;

/// RMS deviation between two equally-sized float sequences.
double rms(std::span<const float> a, std::span<const float> b) {
  EXPECT_EQ(a.size(), b.size());
  double sq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sq += d * d;
  }
  return std::sqrt(sq / static_cast<double>(a.size()));
}

std::vector<float> random_window(Rng& rng, std::size_t n) {
  std::vector<float> w(n);
  for (float& v : w) v = static_cast<float>(rng.normal());
  return w;
}

/// Training-path forward of a batch-1 window, flattened.
std::vector<float> model_forward(ml::LstmModel& model,
                                 std::span<const float> window,
                                 std::size_t steps, std::size_t in) {
  ml::Tensor x({1, steps, in},
               std::vector<float>(window.begin(), window.end()));
  const ml::Tensor y = model.forward(x);
  return {y.raw(), y.raw() + y.size()};
}

TEST(InferParity, LstmZooWithinTolerance) {
  struct Shape {
    std::size_t in, hidden, out, horizon, steps;
  };
  // The hidden-size ladder ends (2, 32) plus the fig6 drag-surrogate
  // shape (hidden 16, window 3) and odd intermediate sizes.
  const Shape zoo[] = {
      {2, 2, 1, 1, 3},  {3, 5, 1, 1, 4},   {4, 8, 2, 2, 3},
      {2, 16, 1, 1, 3}, {6, 27, 1, 3, 5},  {2, 32, 2, 1, 3},
  };
  std::uint64_t seed = 100;
  for (const Shape& s : zoo) {
    Rng rng(seed++);
    ml::LstmModelConfig cfg;
    cfg.in_channels = s.in;
    cfg.hidden = s.hidden;
    cfg.out_channels = s.out;
    cfg.horizon = s.horizon;
    ml::LstmModel model(cfg, rng);
    Engine engine = compile(model);
    EXPECT_EQ(engine.arch(), Engine::Arch::kLstmSurrogate);
    EXPECT_EQ(engine.hidden(), s.hidden);
    EXPECT_EQ(engine.input_features(), s.in);
    EXPECT_EQ(engine.output_features(), s.horizon * s.out);

    std::vector<float> out(engine.output_features());
    for (int trial = 0; trial < 4; ++trial) {
      const std::vector<float> window = random_window(rng, s.steps * s.in);
      const std::vector<float> want =
          model_forward(model, window, s.steps, s.in);
      engine.predict(window, out);
      EXPECT_LE(rms(out, want), 1e-6)
          << "hidden=" << s.hidden << " in=" << s.in;
    }
  }
}

TEST(InferParity, MlpAllActivations) {
  using ml::Activation;
  Rng rng(7);
  ml::Sequential seq;
  seq.push(std::make_unique<ml::Dense>(6, 16, rng));
  seq.push(std::make_unique<ml::ActivationLayer>(Activation::kRelu));
  seq.push(std::make_unique<ml::Dense>(16, 16, rng));
  seq.push(std::make_unique<ml::ActivationLayer>(Activation::kGelu));
  seq.push(std::make_unique<ml::Dense>(16, 8, rng));
  seq.push(std::make_unique<ml::ActivationLayer>(Activation::kTanh));
  seq.push(std::make_unique<ml::Dense>(8, 3, rng));
  seq.push(std::make_unique<ml::ActivationLayer>(Activation::kSigmoid));

  Engine engine = compile(seq);
  EXPECT_EQ(engine.arch(), Engine::Arch::kMlp);
  EXPECT_EQ(engine.input_features(), 6u);
  EXPECT_EQ(engine.output_features(), 3u);

  std::vector<float> out(3);
  for (int trial = 0; trial < 4; ++trial) {
    const std::vector<float> x = random_window(rng, 6);
    ml::Tensor xt({1, 6}, std::vector<float>(x.begin(), x.end()));
    const ml::Tensor y = seq.forward(xt);
    engine.predict(x, out);
    EXPECT_LE(rms(out, y.data()), 1e-6);
  }
}

TEST(InferParity, RejectsUnsupportedChains) {
  Rng rng(8);
  ml::Sequential empty;
  EXPECT_THROW((void)compile(empty), RuntimeError);
  ml::Sequential norm;
  norm.push(std::make_unique<ml::Dense>(4, 4, rng));
  norm.push(std::make_unique<ml::LayerNorm>(4));
  EXPECT_THROW((void)compile(norm), RuntimeError);
}

TEST(InferEngine, HiddenOutsideLadderThrows) {
  for (const std::size_t hidden :
       {static_cast<std::size_t>(kMinHidden - 1),
        static_cast<std::size_t>(kMaxHidden + 1)}) {
    LstmWeights w;
    w.in = 2;
    w.hidden = hidden;
    EXPECT_THROW((void)Engine::from_weights(std::move(w)), RuntimeError);
  }
  Rng rng(9);
  ml::LstmModelConfig cfg;
  cfg.in_channels = 2;
  cfg.hidden = static_cast<std::size_t>(kMaxHidden) + 2;
  ml::LstmModel model(cfg, rng);
  EXPECT_THROW((void)compile(model), RuntimeError);
}

TEST(InferEngine, PredictValidatesExtents) {
  Rng rng(10);
  ml::LstmModelConfig cfg;
  cfg.in_channels = 3;
  cfg.hidden = 4;
  ml::LstmModel model(cfg, rng);
  Engine engine = compile(model);
  std::vector<float> out(engine.output_features());
  // Not a whole number of timesteps.
  EXPECT_THROW(engine.predict(std::vector<float>(7), out), CheckError);
  // Wrong output extent.
  std::vector<float> bad_out(engine.output_features() + 1);
  EXPECT_THROW(engine.predict(std::vector<float>(6), bad_out), CheckError);
  Engine empty;
  EXPECT_THROW(empty.predict(std::vector<float>(6), out), CheckError);
}

TEST(InferEngine, SaveLoadServesIdenticalPredictions) {
  Rng rng(11);
  ml::LstmModelConfig cfg;
  cfg.in_channels = 4;
  cfg.hidden = 12;
  cfg.out_channels = 2;
  ml::LstmModel model(cfg, rng);
  Engine engine = compile(model);

  const auto path =
      (fs::temp_directory_path() / "sickle_infer_roundtrip.bin").string();
  engine.save(path);
  Engine loaded = Engine::load(path);
  EXPECT_EQ(loaded.hidden(), engine.hidden());
  EXPECT_EQ(loaded.num_parameters(), engine.num_parameters());

  std::vector<float> a(engine.output_features());
  std::vector<float> b(loaded.output_features());
  for (int trial = 0; trial < 3; ++trial) {
    const std::vector<float> window = random_window(rng, 5 * 4);
    engine.predict(window, a);
    loaded.predict(window, b);
    // Bit-identical: same packed weights, same code path.
    EXPECT_EQ(std::vector<float>(a), std::vector<float>(b));
  }
  fs::remove(path);
}

/// Hand-built surrogate of H independent "pipelines": every recurrent
/// weight and the i/f/o gates are zero (those gates sit at
/// sigmoid(0) = 0.5), layer-2 channel j reads only layer-1 channel j,
/// and the g-gate input weights of layer-1 channel j are scaled by 2^j.
/// Channel contributions to the linear all-ones head are therefore
/// independent and exponentially graded: greedy magnitude pruning removes
/// pipeline 0, then 1, ..., and each removal's probe error dominates the
/// sum of all previous ones.
LstmWeights pipeline_weights(std::size_t in, std::size_t H, Rng& rng) {
  LstmWeights w;
  w.in = in;
  w.hidden = H;
  w.horizon = 1;
  w.out_channels = 1;
  w.wx1.assign(4 * H * in, 0.0f);
  w.wh1.assign(4 * H * H, 0.0f);
  w.b1.assign(4 * H, 0.0f);
  w.wx2.assign(4 * H * H, 0.0f);
  w.wh2.assign(4 * H * H, 0.0f);
  w.b2.assign(4 * H, 0.0f);
  constexpr std::size_t kGGate = 2;  // gate order i|f|g|o
  for (std::size_t j = 0; j < H; ++j) {
    const float scale =
        0.4f * std::pow(0.5f, static_cast<float>(H - 1 - j));
    for (std::size_t c = 0; c < in; ++c) {
      w.wx1[(kGGate * H + j) * in + c] =
          scale * (0.5f + 0.5f * static_cast<float>(rng.uniform()));
    }
    w.wx2[(kGGate * H + j) * H + j] = 1.0f;
  }
  PackedDense head;
  head.in = H;
  head.out = 1;
  head.act = Act::kIdentity;
  head.w.assign(H, 1.0f);
  head.b.assign(1, 0.0f);
  w.head.push_back(std::move(head));
  return w;
}

TEST(InferPrune, GreedyRmsGrowsMonotonically) {
  Rng rng(12);
  const std::size_t in = 3, H = 8;
  Engine engine = Engine::from_weights(pipeline_weights(in, H, rng));

  const std::size_t num_probes = 24, steps = 4;
  const std::vector<float> probes =
      random_window(rng, num_probes * steps * in);
  PruneOptions opts;
  opts.rms_threshold = 1e9;  // magnitude order alone drives the search
  PruneReport report = prune(engine, probes, num_probes, opts);
  EXPECT_FALSE(report.refused);
  EXPECT_EQ(report.final_hidden, static_cast<std::size_t>(kMinHidden));
  ASSERT_EQ(report.accepted.size(), H - static_cast<std::size_t>(kMinHidden));
  for (std::size_t i = 0; i + 1 < report.accepted.size(); ++i) {
    // Error vs the original engine is cumulative: each further channel
    // removal can only lose information the probes exercised.
    EXPECT_GE(report.accepted[i + 1].rms, report.accepted[i].rms * 0.999)
        << "step " << i;
  }
  EXPECT_EQ(report.final_rms, report.accepted.back().rms);
  EXPECT_EQ(engine.hidden(), report.final_hidden);
}

TEST(InferPrune, RefusesBelowThresholdAndLeavesEngineIntact) {
  Rng rng(13);
  ml::LstmModelConfig cfg;
  cfg.in_channels = 2;
  cfg.hidden = 6;
  ml::LstmModel model(cfg, rng);
  Engine engine = compile(model);

  const std::size_t num_probes = 8, steps = 3;
  const std::vector<float> probes =
      random_window(rng, num_probes * steps * cfg.in_channels);
  const std::vector<float> window = random_window(rng, steps * 2);
  std::vector<float> before(engine.output_features());
  engine.predict(window, before);

  PruneOptions opts;
  opts.rms_threshold = 0.0;  // nothing can pass
  PruneReport report = prune(engine, probes, num_probes, opts);
  EXPECT_TRUE(report.refused);
  EXPECT_TRUE(report.accepted.empty());
  EXPECT_EQ(report.final_hidden, cfg.hidden);
  EXPECT_EQ(engine.hidden(), cfg.hidden);

  std::vector<float> after(engine.output_features());
  engine.predict(window, after);
  EXPECT_EQ(before, after);
}

TEST(InferPrune, PrunedEngineStaysWithinThresholdAndRoundTrips) {
  Rng rng(14);
  ml::LstmModelConfig cfg;
  cfg.in_channels = 3;
  cfg.hidden = 16;
  ml::LstmModel model(cfg, rng);
  Engine original = compile(model);
  Engine engine = original;  // engines are cheap to copy

  const std::size_t num_probes = 32, steps = 4;
  const std::vector<float> probes =
      random_window(rng, num_probes * steps * cfg.in_channels);
  // Reference predictions of the unpruned engine.
  const std::size_t probe_len = steps * cfg.in_channels;
  std::vector<float> ref(num_probes);
  for (std::size_t p = 0; p < num_probes; ++p) {
    original.predict(
        std::span<const float>(probes).subspan(p * probe_len, probe_len),
        std::span<float>(ref).subspan(p, 1));
  }

  PruneOptions opts;
  opts.rms_threshold = 0.5;  // generous for a random-init surrogate
  PruneReport report = prune(engine, probes, num_probes, opts);
  ASSERT_FALSE(report.accepted.empty());
  EXPECT_LT(engine.hidden(), cfg.hidden);
  EXPECT_LE(report.final_rms, opts.rms_threshold);

  // Independently re-measure the pruned engine against the original.
  double sq = 0.0;
  std::vector<float> out(1);
  for (std::size_t p = 0; p < num_probes; ++p) {
    engine.predict(
        std::span<const float>(probes).subspan(p * probe_len, probe_len),
        out);
    const double d =
        static_cast<double>(out[0]) - static_cast<double>(ref[p]);
    sq += d * d;
  }
  EXPECT_LE(std::sqrt(sq / static_cast<double>(num_probes)),
            opts.rms_threshold + 1e-12);

  // Prune -> save -> load -> bit-identical predictions.
  const auto path =
      (fs::temp_directory_path() / "sickle_infer_pruned.bin").string();
  engine.save(path);
  Engine loaded = Engine::load(path);
  EXPECT_EQ(loaded.hidden(), engine.hidden());
  std::vector<float> a(1), b(1);
  for (int trial = 0; trial < 3; ++trial) {
    const std::vector<float> window =
        random_window(rng, steps * cfg.in_channels);
    engine.predict(window, a);
    loaded.predict(window, b);
    EXPECT_EQ(a[0], b[0]);
  }
  fs::remove(path);
}

TEST(InferPrune, MaxChannelsPrunesToExactTarget) {
  Rng rng(15);
  ml::LstmModelConfig cfg;
  cfg.in_channels = 2;
  cfg.hidden = 12;
  ml::LstmModel model(cfg, rng);
  Engine engine = compile(model);

  const std::size_t num_probes = 8;
  const std::vector<float> probes =
      random_window(rng, num_probes * 3 * cfg.in_channels);
  PruneOptions opts;
  opts.rms_threshold = 1e9;
  opts.max_channels = 4;
  PruneReport report = prune(engine, probes, num_probes, opts);
  EXPECT_FALSE(report.refused);
  EXPECT_EQ(report.accepted.size(), 4u);
  EXPECT_EQ(engine.hidden(), 8u);
  EXPECT_EQ(report.initial_hidden, 12u);
  EXPECT_EQ(report.final_hidden, 8u);
}

TEST(InferPrune, CandidatePicksSmallestMagnitudeChannel) {
  Rng rng(16);
  LstmWeights w = pipeline_weights(3, 8, rng);
  Engine engine = Engine::from_weights(std::move(w));
  // pipeline_weights grades layer-1 channel j at 2^j, so channel 0 is the
  // smallest; layer-2 channels all look identical (unit diagonal read,
  // unit head fan-out), so argmin resolves the tie to channel 0.
  const auto [c1, c2] = find_pruning_candidate(engine);
  EXPECT_EQ(c1, 0u);
  EXPECT_EQ(c2, 0u);
}

}  // namespace
}  // namespace sickle::infer
