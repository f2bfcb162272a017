#include "sickle/config_driver.hpp"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/error.hpp"
#include "sickle/dataset_zoo.hpp"
#include "sickle/errors.hpp"

namespace sickle {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// Issue sink for the section parsers: each caller gathers every problem
/// and throws ONE ConfigError at the end.
void report(std::vector<ValidationIssue>& sink, std::string field,
            std::string message, std::string hint = "") {
  sink.push_back({std::move(field), std::move(message), std::move(hint)});
}

sampling::PipelineConfig pipeline_into(const Config& cfg,
                                       std::vector<ValidationIssue>& sink) {
  sampling::PipelineConfig pl;
  // Cube edges: the paper's --nxsl/--nysl/--nzsl.
  pl.cube.ex = static_cast<std::size_t>(
      positive_int(cfg, "subsample", "nxsl", 8, sink));
  pl.cube.ey = static_cast<std::size_t>(
      positive_int(cfg, "subsample", "nysl", 8, sink));
  pl.cube.ez = static_cast<std::size_t>(
      positive_int(cfg, "subsample", "nzsl", 8, sink));
  pl.hypercube_method = cfg.get_str("subsample", "hypercubes", "maxent");
  pl.point_method = cfg.get_str("subsample", "method", "maxent");
  pl.num_hypercubes = static_cast<std::size_t>(
      positive_int(cfg, "subsample", "num_hypercubes", 32, sink));
  pl.num_samples = static_cast<std::size_t>(
      positive_int(cfg, "subsample", "num_samples", 3277, sink));
  pl.num_clusters = static_cast<std::size_t>(
      positive_int(cfg, "subsample", "num_clusters", 20, sink));
  if (cfg.has("shared", "input_vars")) {
    pl.input_vars = cfg.get_list("shared", "input_vars");
  }
  if (cfg.has("shared", "output_vars")) {
    pl.output_vars = cfg.get_list("shared", "output_vars");
  }
  pl.cluster_var = cfg.get_str("shared", "cluster_var", "");
  pl.pdf_bins = static_cast<std::size_t>(
      positive_int(cfg, "subsample", "pdf_bins", 10, sink));
  pl.seed = static_cast<std::uint64_t>(cfg.get_int("shared", "seed", 42));
  // Worker threads for scoring + point sampling: 1 serial, 0 = all
  // hardware threads, N = dedicated pool. Bit-identical samples for every
  // value (see PipelineConfig::threads).
  const long threads = cfg.get_int("subsample", "threads", 1);
  if (threads < 0) {
    report(sink, "subsample.threads", "subsample threads must be >= 0",
           "0 = all hardware threads");
    pl.threads = 1;
  } else {
    pl.threads = static_cast<std::size_t>(threads);
  }
  check_sampling_methods(pl, sink);
  return pl;
}

store::StoreOptions store_into(const Config& cfg,
                               std::vector<ValidationIssue>& sink) {
  store::StoreOptions opts;
  // Fail at config time, not at the first mid-run snapshot spill.
  const long edge = positive_int(cfg, "store", "chunk", 32, sink);
  opts.chunk.nx = static_cast<std::size_t>(
      positive_int(cfg, "store", "chunk_x", edge, sink));
  opts.chunk.ny = static_cast<std::size_t>(
      positive_int(cfg, "store", "chunk_y", edge, sink));
  opts.chunk.nz = static_cast<std::size_t>(
      positive_int(cfg, "store", "chunk_z", edge, sink));
  opts.cache_bytes = static_cast<std::size_t>(
                         positive_int(cfg, "store", "cache_mb", 64, sink))
                     << 20;
  opts.write_budget_bytes =
      static_cast<std::size_t>(
          positive_int(cfg, "store", "write_budget_mb", 8, sink))
      << 20;
  const long prefetch = cfg.get_int("store", "prefetch_depth", 0);
  if (prefetch < 0) {
    report(sink, "store.prefetch_depth",
           "store prefetch_depth must be >= 0", "0 disables readahead");
  } else {
    opts.prefetch_depth = static_cast<std::size_t>(prefetch);
  }
  opts.codec = lower(cfg.get_str("store", "codec", "delta"));
  opts.tolerance = cfg.get_double("store", "tolerance", 1e-6);
  try {
    (void)store::make_codec(opts.codec, opts.tolerance);  // validates name
  } catch (const std::exception& e) {
    report(sink, "store.codec", e.what(),
           "raw | delta | quant | gorilla");
  }
  return opts;
}

TemporalSelection temporal_into(const Config& cfg,
                                std::vector<ValidationIssue>& sink) {
  TemporalSelection ts;
  const long keep = cfg.get_int("temporal", "num_snapshots", 0);
  if (keep < 0) {
    report(sink, "temporal.num_snapshots",
           "temporal num_snapshots must be >= 0", "0 disables the stage");
  } else {
    ts.num_snapshots = static_cast<std::size_t>(keep);
  }
  ts.bins = static_cast<std::size_t>(
      positive_int(cfg, "temporal", "bins", 100, sink));
  ts.variable = cfg.get_str("temporal", "variable", "");
  return ts;
}

}  // namespace

long positive_int(const Config& cfg, const std::string& section,
                  const std::string& key, long fallback,
                  std::vector<ValidationIssue>& sink) {
  const long v = cfg.get_int(section, key, fallback);
  if (v <= 0) {
    report(sink, section + "." + key, key + " must be positive");
    return fallback;
  }
  return v;
}

std::string normalize_arch(const std::string& arch) {
  const std::string a = lower(arch);
  if (a == "lstm") return "LSTM";
  if (a == "mlp_transformer" || a == "mlp-transformer") {
    return "MLP_Transformer";
  }
  if (a == "cnn_transformer" || a == "cnn-transformer") {
    return "CNN_Transformer";
  }
  if (a == "foundation" || a == "matey") return "Foundation";
  throw RuntimeError("unknown architecture: " + arch);
}

std::string dataset_label_from_config(const Config& cfg) {
  return cfg.get_str("shared", "dataset", "SST-P1F4");
}

double dataset_scale_from_config(const Config& cfg) {
  const double scale = cfg.get_double("shared", "scale", 1.0);
  if (!(scale > 0.0 && scale <= kMaxDatasetScale)) {
    throw ConfigError(
        {{"shared.scale", "shared scale must be in (0, 8192]", ""}});
  }
  return scale;
}

sampling::PipelineConfig pipeline_from_config(const Config& cfg) {
  std::vector<ValidationIssue> issues;
  sampling::PipelineConfig pl = pipeline_into(cfg, issues);
  if (!issues.empty()) throw ConfigError(std::move(issues));
  return pl;
}

CaseConfig case_from_config(const Config& cfg) {
  // Every section parser appends to `issues`, invalid values are replaced
  // with defaults so parsing continues, and the caller gets ONE
  // ConfigError naming every problem — the contract both the
  // config_driver CLIs and the server's submit verb rely on.
  std::vector<ValidationIssue> issues;
  CaseConfig cc;
  cc.pipeline = pipeline_into(cfg, issues);
  cc.backend = lower(cfg.get_str("store", "backend", "memory"));
  cc.ingest = lower(cfg.get_str("store", "ingest", "materialize"));
  cc.store = store_into(cfg, issues);
  cc.spill_dir = cfg.get_str("store", "spill_dir", "");
  cc.temporal = temporal_into(cfg, issues);
  const std::string raw_arch =
      cfg.get_str("train", "arch", "MLP_transformer");
  try {
    cc.arch = normalize_arch(raw_arch);
  } catch (const RuntimeError&) {
    // Keep the raw spelling: validate() below reports it (exactly once)
    // with the list of valid architectures.
    cc.arch = raw_arch;
  }
  cc.window = static_cast<std::size_t>(
      positive_int(cfg, "train", "window", 1, issues));
  cc.model_dim = static_cast<std::size_t>(
      positive_int(cfg, "train", "dim", 32, issues));
  cc.model_heads = static_cast<std::size_t>(
      positive_int(cfg, "train", "heads", 4, issues));
  cc.model_layers = static_cast<std::size_t>(
      positive_int(cfg, "train", "layers", 1, issues));

  cc.train.epochs = static_cast<std::size_t>(
      positive_int(cfg, "train", "epochs", 1000, issues));
  cc.train.batch = static_cast<std::size_t>(
      positive_int(cfg, "train", "batch", 16, issues));
  cc.train.lr = cfg.get_double("train", "lr", 1e-3);
  const long patience = cfg.get_int("train", "patience", 20);
  if (patience < 0) {
    report(issues, "train.patience", "train patience must be >= 0");
  } else {
    cc.train.patience = static_cast<std::size_t>(patience);
  }
  cc.train.test_fraction = cfg.get_double("train", "test_frac", 0.1);
  cc.train.seed = static_cast<std::uint64_t>(
      cfg.get_int("train", "seed", cfg.get_int("shared", "seed", 42)));
  const std::string precision =
      lower(cfg.get_str("train", "precision", "fp32"));
  if (precision == "fp32") {
    cc.train.precision = ml::Precision::kFp32;
  } else if (precision == "fp16") {
    cc.train.precision = ml::Precision::kFp16;
  } else if (precision == "bf16") {
    cc.train.precision = ml::Precision::kBf16;
  } else {
    issues.push_back({"train.precision", "unknown precision: " + precision,
                      "fp32 | fp16 | bf16"});
  }

  // Semantic checks over the assembled config. Parse-level issues above
  // substituted defaults, so a field validate() flags here was not
  // already flagged; the field-name guard keeps the few overlapping
  // checks (codec, enums) reported exactly once.
  for (auto& issue : cc.validate()) {
    const bool dup =
        std::any_of(issues.begin(), issues.end(),
                    [&](const ValidationIssue& have) {
                      return have.field == issue.field;
                    });
    if (!dup) issues.push_back(std::move(issue));
  }
  if (!issues.empty()) throw ConfigError(std::move(issues));
  return cc;
}

obs::ObsOptions obs_options_from_config(const Config& cfg) {
  obs::ObsOptions oo;
  oo.trace_path = cfg.get_str("observability", "trace_path", "");
  oo.metrics_path = cfg.get_str("observability", "metrics_path", "");
  oo.enabled = cfg.get_bool(
      "observability", "enabled",
      !oo.trace_path.empty() || !oo.metrics_path.empty());
  return oo;
}

InferenceOptions inference_from_config(const Config& cfg) {
  std::vector<ValidationIssue> issues;
  InferenceOptions io;
  io.prune_rms = cfg.get_double("inference", "prune_rms", 0.0);
  io.probes = static_cast<std::size_t>(
      positive_int(cfg, "inference", "probes", 32, issues));
  io.min_hidden = static_cast<std::size_t>(
      positive_int(cfg, "inference", "min_hidden", 2, issues));
  io.engine_path = cfg.get_str("inference", "engine_path", "");
  const bool any_key =
      cfg.has("inference", "prune_rms") || cfg.has("inference", "probes") ||
      cfg.has("inference", "min_hidden") ||
      cfg.has("inference", "engine_path");
  io.enabled = cfg.get_bool("inference", "enabled", any_key);
  if (!issues.empty()) throw ConfigError(std::move(issues));
  return io;
}

}  // namespace sickle
