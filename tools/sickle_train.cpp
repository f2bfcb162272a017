// sickle_train — the paper's `train.py case.yaml` (task T2).
//
//   sickle_train case.yaml
//
// Runs the full case (subsample -> train -> evaluate) and prints the lines
// the paper's analysis greps for: "Evaluation on test set" and
// "Total Energy Consumed". The dataset flows through the generator
// producer, so `store.ingest: streaming` with an skl2/series backend
// runs the whole T1 path without materializing a Dataset. The
// "sample set hash" line fingerprints the sampled cubes — CI diffs it
// across backend x ingest combinations to prove bit-identity.
//
// `train.arch: lstm` selects the OF2D drag surrogate (sample-single):
// sensor windows via build_drag_dataset, an ml::LstmModel fit, then —
// when the `inference` section is present — the post-training surrogate
// stage: compile to an infer::Engine, parity-check it against the
// training-path forward, measure batch-1 latency, magnitude-prune under
// the configured probe-RMS budget, and optionally persist the engine.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/timer.hpp"
#include "infer/engine.hpp"
#include "infer/prune.hpp"
#include "ml/models.hpp"
#include "ml/trainer.hpp"
#include "sickle/config_driver.hpp"
#include "sickle/dataset_zoo.hpp"

namespace {

using namespace sickle;

/// Mean batch-1 wall time of `fn` in nanoseconds (warmed up, averaged).
template <typename Fn>
double time_ns(std::size_t reps, Fn&& fn) {
  fn();  // warm-up: touches weights, faults pages
  Timer t;
  for (std::size_t r = 0; r < reps; ++r) fn();
  return t.seconds() * 1e9 / static_cast<double>(reps);
}

/// Post-training surrogate stage: compile, parity-check, time, prune,
/// persist. Every line is stable and greppable (tools/e2e_smoke.sh and
/// the docs quote them).
void inference_stage(ml::LstmModel& model, const ml::TensorDataset& data,
                     const InferenceOptions& io) {
  infer::Engine engine = infer::compile(model);
  std::printf("inference engine: hidden %zu | parameters %zu\n",
              engine.hidden(), engine.num_parameters());

  // Parity against the training-path forward on held-out examples.
  const std::size_t out_f = engine.output_features();
  const std::size_t n_par = std::min<std::size_t>(data.size(), 32);
  std::vector<float> out(out_f);
  double sq = 0.0;
  for (std::size_t i = 0; i < n_par; ++i) {
    const ml::Tensor& x = data.input(i);  // [window, features]
    ml::Tensor xb = x.reshaped({1, x.dim(0), x.dim(1)});
    const ml::Tensor y = model.forward(xb);
    engine.predict(x.data(), out);
    for (std::size_t o = 0; o < out_f; ++o) {
      const double d = static_cast<double>(out[o]) -
                       static_cast<double>(y.data()[o]);
      sq += d * d;
    }
  }
  const double parity =
      std::sqrt(sq / static_cast<double>(n_par * out_f));
  std::printf("inference parity rms: %.3g over %zu examples\n", parity,
              n_par);

  // Batch-1 latency: training-path forward vs the compiled engine.
  const ml::Tensor& x0 = data.input(0);
  ml::Tensor xb = x0.reshaped({1, x0.dim(0), x0.dim(1)});
  const double train_ns =
      time_ns(64, [&] { (void)model.forward(xb); });
  const double engine_ns =
      time_ns(512, [&] { engine.predict(x0.data(), out); });
  std::printf(
      "inference latency: training %.0f ns | engine %.0f ns | "
      "speedup %.1fx\n",
      train_ns, engine_ns, train_ns / engine_ns);

  if (io.prune_rms > 0.0) {
    const std::size_t np = std::min(io.probes, data.size());
    const std::size_t probe_len = x0.size();
    std::vector<float> probes;
    probes.reserve(np * probe_len);
    for (std::size_t p = 0; p < np; ++p) {
      const auto span = data.input(p).data();
      probes.insert(probes.end(), span.begin(), span.end());
    }
    infer::PruneOptions opts;
    opts.rms_threshold = io.prune_rms;
    opts.min_hidden = io.min_hidden;
    const infer::PruneReport report =
        infer::prune(engine, probes, np, opts);
    const double pruned_ns =
        time_ns(512, [&] { engine.predict(x0.data(), out); });
    std::printf(
        "inference pruned: hidden %zu -> %zu | rms %.4g | budget %.4g | "
        "refused %d\n",
        report.initial_hidden, report.final_hidden, report.final_rms,
        io.prune_rms, report.refused ? 1 : 0);
    std::printf("inference pruned latency: %.0f ns | %.1fx vs training\n",
                pruned_ns, train_ns / pruned_ns);
  }

  if (!io.engine_path.empty()) {
    engine.save(io.engine_path);
    infer::Engine loaded = infer::Engine::load(io.engine_path);
    std::vector<float> check(out_f);
    engine.predict(x0.data(), out);
    loaded.predict(x0.data(), check);
    if (out != check) {
      throw RuntimeError("inference engine reload verification failed");
    }
    std::printf("inference engine written: %s (reload verified)\n",
                io.engine_path.c_str());
  }
}

/// The OF2D drag-surrogate case (train.arch: lstm): sensor windows,
/// LstmModel training, then the optional inference stage.
void run_lstm_drag_case(const Config& cfg, const CaseConfig& cc,
                        const std::string& label) {
  // Parsed first, so a bad inference key fails before training does.
  const InferenceOptions io = inference_from_config(cfg);
  const auto seed =
      static_cast<std::uint64_t>(cfg.get_int("shared", "seed", 42));
  DatasetBundle bundle =
      make_dataset(label, seed, dataset_scale_from_config(cfg));
  energy::EnergyCounter sampling_energy;
  Timer sampling_timer;
  const ml::TensorDataset data = build_drag_dataset(
      bundle, cc.pipeline.point_method, cc.pipeline.num_samples, cc.window,
      seed, &sampling_energy);
  const double sampling_seconds = sampling_timer.seconds();
  if (data.size() == 0) {
    throw RuntimeError("drag dataset is empty (window too long?)");
  }
  std::printf("drag windows: %zu | features %zu | window %zu\n",
              data.size(), data.input(0).dim(1), cc.window);

  Rng rng(cc.train.seed, /*stream=*/0x40DE1);
  ml::LstmModelConfig mc;
  mc.in_channels = data.input(0).dim(1);
  mc.hidden = cc.model_dim;
  mc.out_channels = 1;
  mc.horizon = 1;
  ml::LstmModel model(mc, rng);
  const ml::TrainReport tr = ml::fit(model, data, cc.train);

  std::printf("model parameters: %zu\n", tr.parameters);
  std::printf("final train loss: %.6f\n", tr.final_train_loss);
  std::printf("Evaluation on test set: %.6f\n", tr.test_loss);
  std::printf("Elapsed Time: %.3f s\n", sampling_seconds + tr.seconds);
  std::printf("Total Energy Consumed: %.6f kJ\n",
              sampling_energy.projected_kilojoules() +
                  tr.energy.projected_kilojoules());

  if (io.enabled) inference_stage(model, data, io);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sickle;
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s case.yaml\n", argv[0]);
    return 2;
  }
  try {
    const Config cfg = Config::load(argv[1]);
    const std::string label = dataset_label_from_config(cfg);
    std::printf("dataset: %s\n", label.c_str());
    const CaseConfig cc = case_from_config(cfg);
    const obs::ObsOptions oo = obs_options_from_config(cfg);
    obs::apply(oo);

    if (cc.arch == "LSTM") {
      std::printf("arch: %s | epochs %zu | batch %zu | sampling %s @ %zu "
                  "sensors | hidden %zu\n",
                  cc.arch.c_str(), cc.train.epochs, cc.train.batch,
                  cc.pipeline.point_method.c_str(), cc.pipeline.num_samples,
                  cc.model_dim);
      run_lstm_drag_case(cfg, cc, label);
    } else {
      ProducerBundle bundle = make_dataset_producer(
          label,
          static_cast<std::uint64_t>(cfg.get_int("shared", "seed", 42)),
          dataset_scale_from_config(cfg));

      std::printf("arch: %s | epochs %zu | batch %zu | sampling %s/%s @ %zu "
                  "per cube | backend %s | ingest %s\n",
                  cc.arch.c_str(), cc.train.epochs, cc.train.batch,
                  cc.pipeline.hypercube_method.c_str(),
                  cc.pipeline.point_method.c_str(), cc.pipeline.num_samples,
                  cc.backend.c_str(), cc.ingest.c_str());
      const CaseReport report = run_case(bundle, cc);

      std::printf("sampled points: %zu\n", report.sampled_points);
      std::printf("sample set hash: %016" PRIx64 "\n", report.sample_hash);
      if (report.ingest_peak_bytes > 0) {
        std::printf("ingest peak bytes: %zu\n", report.ingest_peak_bytes);
      }
      std::printf("model parameters: %zu\n", report.train.parameters);
      std::printf("final train loss: %.6f\n", report.train.final_train_loss);
      std::printf("Evaluation on test set: %.6f\n", report.train.test_loss);
      double elapsed = 0.0;
      for (const char* stage :
           {"case.ingest_seconds", "case.selection_seconds",
            "case.sampling_seconds", "case.training_seconds"}) {
        elapsed += report.metrics.at(stage);
      }
      std::printf("Elapsed Time: %.3f s\n", elapsed);
      std::printf("Total Energy Consumed: %.6f kJ\n",
                  report.total_kilojoules());
      if (oo.enabled) {
        // Per-case telemetry plus the process-wide registry (store/pool/
        // codec tallies accumulated by the instrumented layers).
        std::printf("case metrics:\n");
        for (const auto& [name, value] : report.metrics) {
          std::printf("  %-28s %.6g\n", name.c_str(), value);
        }
      }
    }
    if (oo.enabled) {
      const std::string table = obs::summary_table();
      if (!table.empty()) {
        std::printf("metrics summary:\n%s", table.c_str());
      }
      obs::finalize(oo);
      if (!oo.trace_path.empty()) {
        std::printf("trace written: %s\n", oo.trace_path.c_str());
      }
      if (!oo.metrics_path.empty()) {
        std::printf("metrics written: %s\n", oo.metrics_path.c_str());
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
