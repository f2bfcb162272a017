// Batch-1 surrogate serving latency: the training-path forward vs the
// compiled inference engine (src/infer/), across the drag-surrogate
// shapes the paper's fig6 sweep trains ({135, 270, 540} sensors -> 2*ns
// input channels, hidden 16, window 3) plus a deeper window, a wider
// hidden size and an MLP stack. Each row is repeated kRepeats times and folded through
// JsonReport::add_sample, so BENCH_inference.json carries the median
// with min/max dispersion; tools/check_bench.py gates the engine's
// "ns_per_op" against the committed baseline, and CI separately asserts
// the recorded speedup floor (the engine's whole reason to exist is the
// >= 10x batch-1 win over the training path).
//
// The pruned rows magnitude-prune a copy of the fig6 engine down to a
// fixed channel budget (PruneOptions::max_channels), so the JSON also
// tracks what pruning buys on top of compilation.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "infer/engine.hpp"
#include "infer/prune.hpp"
#include "ml/layers_basic.hpp"
#include "ml/models.hpp"

namespace {

using namespace sickle;

constexpr int kRepeats = 5;

/// Mean batch-1 wall time of `fn` in nanoseconds (warmed up, averaged
/// over `reps` calls).
template <typename Fn>
double time_ns(std::size_t reps, Fn&& fn) {
  fn();
  Timer t;
  for (std::size_t r = 0; r < reps; ++r) fn();
  return t.seconds() * 1e9 / static_cast<double>(reps);
}

std::vector<float> random_window(Rng& rng, std::size_t n) {
  std::vector<float> w(n);
  for (float& v : w) v = static_cast<float>(rng.normal());
  return w;
}

/// One LSTM-surrogate row: train-path vs engine (and optionally a
/// magnitude-pruned engine) on a freshly initialized model of the given
/// shape. Repeated measurements fold into a single JSON record.
void lstm_row(bench::JsonReport& report, std::size_t in, std::size_t hidden,
              std::size_t window, std::size_t prune_to) {
  Rng rng(hidden * 1000 + in);
  ml::LstmModelConfig mc;
  mc.in_channels = in;
  mc.hidden = hidden;
  mc.out_channels = 1;
  mc.horizon = 1;
  ml::LstmModel model(mc, rng);

  infer::Engine engine = infer::compile(model);
  const std::vector<float> window_data = random_window(rng, window * in);
  ml::Tensor xb({1, window, in},
                std::vector<float>(window_data.begin(), window_data.end()));
  std::vector<float> out(engine.output_features());

  infer::Engine pruned = engine;
  if (prune_to > 0 && prune_to < hidden) {
    const std::size_t np = 16;
    std::vector<float> probes;
    Rng prng(7);
    for (std::size_t p = 0; p < np; ++p) {
      const auto w = random_window(prng, window * in);
      probes.insert(probes.end(), w.begin(), w.end());
    }
    infer::PruneOptions opts;
    opts.rms_threshold = 1e9;  // budget-driven: stop at the channel target
    opts.max_channels = hidden - prune_to;
    (void)infer::prune(pruned, probes, np, opts);
  }

  char name[64];
  std::snprintf(name, sizeof(name), "lstm_h%zu_in%zu_w%zu", hidden, in,
                window);
  for (int rep = 0; rep < kRepeats; ++rep) {
    const double train_ns = time_ns(64, [&] { (void)model.forward(xb); });
    const double engine_ns =
        time_ns(512, [&] { engine.predict(window_data, out); });
    report.add_sample(name, "training_ns", train_ns);
    // ns_per_op is the engine latency: the metric check_bench.py gates.
    report.add_sample(name, "ns_per_op", engine_ns);
    report.add_sample(name, "speedup", train_ns / engine_ns);
    if (pruned.hidden() < engine.hidden()) {
      const double pruned_ns =
          time_ns(512, [&] { pruned.predict(window_data, out); });
      report.add_sample(name, "pruned_ns", pruned_ns);
      report.add_sample(name, "pruned_speedup", train_ns / pruned_ns);
    }
  }
  std::printf("%-22s hidden %2zu -> %2zu  (engine vs training, %d repeats)\n",
              name, engine.hidden(), pruned.hidden(), kRepeats);
}

/// The MLP row: a plain Dense/ReLU stack through Sequential vs its
/// packed-dense engine.
void mlp_row(bench::JsonReport& report) {
  Rng rng(99);
  ml::Sequential seq;
  seq.push(std::make_unique<ml::Dense>(64, 64, rng));
  seq.push(std::make_unique<ml::ActivationLayer>(ml::Activation::kRelu));
  seq.push(std::make_unique<ml::Dense>(64, 32, rng));
  seq.push(std::make_unique<ml::ActivationLayer>(ml::Activation::kRelu));
  seq.push(std::make_unique<ml::Dense>(32, 1, rng));

  infer::Engine engine = infer::compile(seq);
  const std::vector<float> x = random_window(rng, 64);
  ml::Tensor xb({1, 64}, std::vector<float>(x.begin(), x.end()));
  std::vector<float> out(1);
  for (int rep = 0; rep < kRepeats; ++rep) {
    const double train_ns = time_ns(256, [&] { (void)seq.forward(xb); });
    const double engine_ns = time_ns(2048, [&] { engine.predict(x, out); });
    report.add_sample("mlp_64x64x32x1", "training_ns", train_ns);
    report.add_sample("mlp_64x64x32x1", "ns_per_op", engine_ns);
    report.add_sample("mlp_64x64x32x1", "speedup", train_ns / engine_ns);
  }
  std::printf("%-22s (engine vs training, %d repeats)\n", "mlp_64x64x32x1",
              kRepeats);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sickle;
  std::string json_path = "BENCH_inference.json";
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--json_out=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      json_path = argv[i] + std::strlen(kFlag);
    }
  }
  bench::banner("Inference engine — batch-1 serving latency",
                "compiled surrogate vs the training-path forward; the "
                "fig6 drag shapes plus a deep window and an MLP stack");

  bench::JsonReport report("bench_inference");
  // The fig6 sweep's sensor counts (in = 2*ns), the shipping surrogate
  // hidden size, and the drag window.
  lstm_row(report, /*in=*/270, /*hidden=*/16, /*window=*/3, /*prune_to=*/8);
  lstm_row(report, /*in=*/540, /*hidden=*/16, /*window=*/3, /*prune_to=*/8);
  lstm_row(report, /*in=*/1080, /*hidden=*/16, /*window=*/3, /*prune_to=*/0);
  // Deeper window: the precompute path's 4-timestep blocks engage fully.
  lstm_row(report, /*in=*/270, /*hidden=*/32, /*window=*/8, /*prune_to=*/0);
  // A wider surrogate: its 4H = 160 gate rows end in a 32-row tile.
  lstm_row(report, /*in=*/270, /*hidden=*/40, /*window=*/3, /*prune_to=*/0);
  mlp_row(report);
  report.write(json_path);
  return 0;
}
