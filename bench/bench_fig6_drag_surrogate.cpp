// Fig. 6: drag-prediction surrogate accuracy, MaxEnt vs random sampling.
//
// LSTM (two LSTM layers + three dense) predicting the drag coefficient of
// the OF2D cylinder from ns sampled "sensor" points, window 3, three
// replicates per configuration. The paper reports 5–10% lower error and
// smaller seed-to-seed std for MaxEnt. Sample counts are scaled 4x down
// from the paper's {540, 1080, 2160} (the synthetic field is 10800 points,
// same as the paper, but training here is single-core).
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "common/mathx.hpp"
#include "common/timer.hpp"
#include "field/derived.hpp"
#include "flow/cylinder.hpp"
#include "infer/engine.hpp"
#include "infer/prune.hpp"
#include "ml/models.hpp"
#include "sickle/case.hpp"

using namespace sickle;

int main() {
  bench::banner("Fig. 6 — OF2D drag surrogate: MaxEnt vs random",
                "MaxEnt: lower mean test loss and smaller std across seeds "
                "(5-10% in the paper)");

  // OF2D with realistic measurement noise: free-stream sensors are then
  // nearly pure noise while wake sensors keep the shedding-phase signal —
  // the regime where intelligent sensor placement pays (the paper's DNS
  // has the same property through turbulent fluctuations).
  // Domain enlarged so the wake covers only ~8% of it: sensor placement
  // then genuinely matters (in the tight default domain a random draw
  // lands in the wake a third of the time anyway).
  flow::CylinderWakeParams wake_params;
  wake_params.seed = 42;
  wake_params.noise = 0.08;
  wake_params.nx = 160;
  wake_params.ny = 120;
  wake_params.domain_x1 = 22.0;
  wake_params.domain_y1 = 6.0;
  DatasetBundle bundle;
  {
    auto wake = flow::generate_cylinder_wake(wake_params);
    bundle.scalar_target = wake.drag;
    bundle.data = std::move(wake.dataset);
    bundle.input_vars = {"u", "v"};
    bundle.output_vars = {"p"};
    bundle.cluster_var = "wz";
  }
  const std::size_t window = 3;

  bench::row_header({"ns", "method", "mean_loss", "std_loss", "replicates"});
  struct Cell {
    double mean, sd;
  };
  std::vector<std::pair<std::string, Cell>> summary;

  for (const std::size_t ns : {135, 270, 540}) {
    for (const char* method : {"random", "maxent"}) {
      std::vector<double> losses;
      for (std::uint64_t seed = 0; seed < 3; ++seed) {  // 3, as the paper
        energy::EnergyCounter sampling_energy;
        const auto data = build_drag_dataset(bundle, method, ns, window,
                                             seed + 1, &sampling_energy);
        Rng mrng(seed + 100);
        ml::LstmModelConfig mc;
        mc.in_channels = 2 * ns;  // u, v at each sensor
        mc.hidden = 16;
        mc.out_channels = 1;
        ml::LstmModel model(mc, mrng);
        ml::TrainConfig tc;
        tc.epochs = 25;
        tc.batch = 16;
        tc.lr = 2e-3;
        tc.patience = 8;
        tc.seed = seed;
        const auto report = ml::fit(model, data, tc);
        losses.push_back(report.test_loss);
      }
      const double m = mean(losses);
      const double sd = stddev(losses);
      std::printf("%-22zu%-22s%-22.5f%-22.5f%-22zu\n", ns, method, m, sd,
                  losses.size());
      summary.emplace_back(std::string(method) + "@" + std::to_string(ns),
                           Cell{m, sd});
    }
  }

  // Shape check: per ns, compare maxent vs random.
  std::printf("\nshape check (maxent vs random):\n");
  for (std::size_t i = 0; i + 1 < summary.size(); i += 2) {
    const auto& random = summary[i].second;
    const auto& maxent = summary[i + 1].second;
    std::printf("  %-14s loss ratio maxent/random = %.3f, std ratio = %.3f\n",
                summary[i].first.substr(7).c_str(),
                maxent.mean / std::max(random.mean, 1e-12),
                maxent.sd / std::max(random.sd, 1e-12));
  }
  std::printf("(paper: ratios < 1, i.e. MaxEnt more accurate and more "
              "reproducible)\n");

  // Serving latency for the surrogate the sweep just characterized: the
  // largest configuration retrained once, then compiled (src/infer/) and
  // magnitude-pruned. This is the deploy-side counterpart of the
  // accuracy table — what one drag prediction costs per solver step.
  {
    const std::size_t ns = 540;
    const auto data =
        build_drag_dataset(bundle, "maxent", ns, window, 1, nullptr);
    Rng mrng(100);
    ml::LstmModelConfig mc;
    mc.in_channels = 2 * ns;
    mc.hidden = 16;
    mc.out_channels = 1;
    ml::LstmModel model(mc, mrng);
    ml::TrainConfig tc;
    tc.epochs = 25;
    tc.batch = 16;
    tc.lr = 2e-3;
    tc.patience = 8;
    (void)ml::fit(model, data, tc);

    infer::Engine engine = infer::compile(model);
    const auto& x0 = data.input(0);
    ml::Tensor xb = x0.reshaped({1, x0.dim(0), x0.dim(1)});
    std::vector<float> out(engine.output_features());
    auto time_ns = [](std::size_t reps, auto&& fn) {
      fn();
      Timer t;
      for (std::size_t r = 0; r < reps; ++r) fn();
      return t.seconds() * 1e9 / static_cast<double>(reps);
    };
    const double train_ns = time_ns(64, [&] { (void)model.forward(xb); });
    const double engine_ns =
        time_ns(512, [&] { engine.predict(x0.data(), out); });

    std::vector<float> probes;
    const std::size_t np = std::min<std::size_t>(16, data.size());
    for (std::size_t p = 0; p < np; ++p) {
      const auto span = data.input(p).data();
      probes.insert(probes.end(), span.begin(), span.end());
    }
    infer::PruneOptions popts;
    popts.rms_threshold = 0.05;
    const auto preport = infer::prune(engine, probes, np, popts);
    const double pruned_ns =
        time_ns(512, [&] { engine.predict(x0.data(), out); });

    std::printf("\nserving latency (ns=%zu, hidden 16, window %zu):\n", ns,
                window);
    bench::row_header({"path", "latency_ns", "speedup"});
    std::printf("%-22s%-22.0f%-22s\n", "training forward", train_ns, "1.0x");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1fx", train_ns / engine_ns);
    std::printf("%-22s%-22.0f%-22s\n", "compiled engine", engine_ns, buf);
    std::snprintf(buf, sizeof(buf), "%.1fx", train_ns / pruned_ns);
    std::printf("%-22s%-22.0f%-22s  (hidden %zu -> %zu, rms %.4g)\n",
                "pruned engine", pruned_ns, buf, preport.initial_hidden,
                preport.final_hidden, preport.final_rms);
  }
  return 0;
}
