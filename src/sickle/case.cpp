#include "sickle/case.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "field/hypercube.hpp"
#include "sampling/hypercube_selector.hpp"
#include "sampling/point_samplers.hpp"
#include "sickle/stage.hpp"
#include "store/codec.hpp"

namespace sickle {

void check_sampling_methods(const sampling::PipelineConfig& pl,
                            std::vector<ValidationIssue>& issues) {
  // Checks `value` against its owner's list; the hint spells the list.
  const auto check_one_of = [&issues](const auto& names,
                                      const std::string& value,
                                      std::string field, std::string message) {
    std::string hint;
    for (const auto& name : names) {
      if (name == value) return;
      hint += (hint.empty() ? "" : " | ") + std::string(name);
    }
    issues.push_back({std::move(field), message + value, std::move(hint)});
  };
  check_one_of(sampling::kHypercubeMethods, pl.hypercube_method,
               "subsample.hypercubes", "unknown hypercube method: ");
  check_one_of(sampling::SamplerRegistry::instance().names(), pl.point_method,
               "subsample.method", "unknown point sampler: ");
}

std::vector<ValidationIssue> CaseConfig::validate() const {
  std::vector<ValidationIssue> issues;
  const auto add = [&issues](std::string field, std::string message,
                             std::string hint = "") {
    issues.push_back({std::move(field), std::move(message), std::move(hint)});
  };

  if (backend != "memory" && backend != "skl2" && backend != "series") {
    add("store.backend", "unknown store backend: " + backend,
        "memory | skl2 | series");
  }
  if (ingest != "materialize" && ingest != "streaming") {
    add("store.ingest", "unknown store ingest mode: " + ingest,
        "materialize | streaming");
  }
  if (arch != "LSTM" && arch != "MLP_Transformer" &&
      arch != "CNN_Transformer" && arch != "Foundation") {
    add("train.arch", "unknown architecture: " + arch,
        "LSTM | MLP_Transformer | CNN_Transformer | Foundation");
  }
  // Every arch but LSTM (sickle_train's drag surrogate, which fits sensor
  // windows) trains on isotropic sampled cubes of an edge its model can
  // take: the transformers' decoder upsamples 4x, and Foundation splits
  // the cube into patches.
  if (arch != "LSTM") {
    const field::CubeSpec& cube = pipeline.cube;
    const std::string e = std::to_string(cube.ex);
    if (cube.ey != cube.ex) {
      add("subsample.nysl", "training cubes must be isotropic: nysl " +
                                std::to_string(cube.ey) + " != nxsl " + e);
    }
    if (cube.ez != cube.ex) {
      add("subsample.nzsl", "training cubes must be isotropic: nzsl " +
                                std::to_string(cube.ez) + " != nxsl " + e);
    }
    if (arch == "Foundation") {
      const std::size_t patch = stage::foundation_patch(cube.ex);
      if (cube.ex % patch != 0) {
        add("subsample.nxsl", "cube edge " + e +
                                  " is not a multiple of Foundation's patch "
                                  "edge " + std::to_string(patch));
      }
    } else if (cube.ex < 4 || cube.ex % 4 != 0) {
      add("subsample.nxsl", "cube edge " + e +
                                " is not a positive multiple of 4, as the "
                                "4x-upsampling decoder needs");
    }
  }
  check_sampling_methods(pipeline, issues);
  if (window == 0) add("train.window", "window must be >= 1");
  if (model_dim == 0) add("train.dim", "model dim must be >= 1");
  if (model_heads == 0) {
    add("train.heads", "model heads must be >= 1");
  } else if (arch != "LSTM" && model_dim % model_heads != 0) {
    // Attention splits the model dim evenly across its heads.
    add("train.heads", "model dim " + std::to_string(model_dim) +
                           " does not divide into " +
                           std::to_string(model_heads) + " heads");
  }
  if (store.chunk.nx == 0 || store.chunk.ny == 0 || store.chunk.nz == 0) {
    add("store.chunk", "store chunk edges must be positive");
  }
  if (store.cache_bytes == 0) {
    add("store.cache_mb", "store cache_mb must be positive");
  }
  if (store.write_budget_bytes == 0) {
    add("store.write_budget_mb", "store write_budget_mb must be positive");
  }
  try {
    (void)store::make_codec(store.codec, store.tolerance);
  } catch (const std::exception& e) {
    add("store.codec", e.what(), "raw | delta | quant | gorilla");
  }
  if (temporal.enabled() && temporal.bins == 0) {
    add("temporal.bins", "temporal bins must be positive");
  }
  if (train.epochs == 0) add("train.epochs", "epochs must be >= 1");
  if (train.batch == 0) add("train.batch", "batch must be >= 1");
  if (!(train.lr > 0.0)) add("train.lr", "learning rate must be > 0");
  if (!(train.test_fraction >= 0.0) || !(train.test_fraction < 1.0)) {
    add("train.test_frac", "test fraction must be in [0, 1)");
  }
  return issues;
}

// The orchestrator itself lives in stage.cpp (stage::run_staged), shared
// bit-for-bit with CaseSession; run_case is the legacy blocking adapter —
// a null observer means no hooks fire and no cancellation is polled, so
// behavior, hashes, and exception types match the pre-session API.

CaseReport run_case(const DatasetBundle& bundle, CaseConfig cfg) {
  return stage::run_staged(bundle, std::move(cfg), nullptr);
}

CaseReport run_case(ProducerBundle& bundle, CaseConfig cfg) {
  return stage::run_staged(std::move(bundle), std::move(cfg), nullptr);
}

ml::TensorDataset build_drag_dataset(const DatasetBundle& bundle,
                                     const std::string& method,
                                     std::size_t ns, std::size_t window,
                                     std::uint64_t seed,
                                     energy::EnergyCounter* energy) {
  SICKLE_CHECK_MSG(!bundle.scalar_target.empty(),
                   "dataset has no scalar target (need OF2D)");
  SICKLE_CHECK_MSG(bundle.data.num_snapshots() == bundle.scalar_target.size(),
                   "target length mismatch");
  const auto& shape = bundle.data.shape();
  // Treat the whole field as one "cube" so every sampler applies directly.
  field::CubeSpec spec{shape.nx, shape.ny, shape.nz};
  const field::CubeTiling tiling(shape, spec);
  auto sampler = sampling::SamplerRegistry::instance().create(method);

  sampling::SamplerContext ctx;
  ctx.phase_variables = bundle.input_vars;
  ctx.cluster_var = bundle.cluster_var;
  ctx.num_samples = ns;
  ctx.num_clusters = 10;
  ctx.energy = energy;

  std::vector<std::string> vars = bundle.input_vars;
  if (!bundle.cluster_var.empty() &&
      std::find(vars.begin(), vars.end(), bundle.cluster_var) == vars.end()) {
    vars.push_back(bundle.cluster_var);
  }

  // Fixed sample locations per snapshot (chosen on the first snapshot) so
  // the LSTM sees consistent "sensors" across the window — matching the
  // sparse-sensor framing of the paper's sample-single problem.
  const field::Hypercube first = field::extract_cube(
      bundle.data.snapshot(0), tiling, {0, 0, 0},
      std::span<const std::string>(vars));
  Rng rng = Rng(seed).fork(0xD7A6);
  std::vector<std::size_t> locations = sampler->select(first, ctx, rng);
  std::sort(locations.begin(), locations.end());

  const std::size_t c = bundle.input_vars.size();
  const std::size_t f = c * locations.size();
  ml::TensorDataset out;
  const std::size_t steps = bundle.data.num_snapshots();
  for (std::size_t t = 0; t + window <= steps; ++t) {
    std::vector<float> in;
    in.reserve(window * f);
    for (std::size_t w = 0; w < window; ++w) {
      const auto& snap = bundle.data.snapshot(t + w);
      for (const auto& var : bundle.input_vars) {
        const auto data = snap.get(var).data();
        for (const std::size_t loc : locations) {
          in.push_back(static_cast<float>(data[loc]));
        }
      }
      if (energy != nullptr) {
        energy->add_bytes(static_cast<double>(f) * sizeof(double));
      }
    }
    const auto target =
        static_cast<float>(bundle.scalar_target[t + window - 1]);
    out.push(ml::Tensor({window, f}, std::move(in)),
             ml::Tensor({1, 1}, {target}));
  }
  return out;
}

}  // namespace sickle
