/// @file config_driver.hpp
/// @brief Config-driven case construction: the paper's case.yaml workflow.
///
/// The reference runs `srun -n 32 python subsample.py case.yaml` and
/// `python train.py case.yaml`; this module maps the same YAML-subset keys
/// onto PipelineConfig / CaseConfig so the CLI tools (tools/) and user code
/// can drive SICKLE from config files. Key names follow the paper's sample
/// YAML (shared / subsample / train sections, nxsl/nysl/nzsl cube edges,
/// hypercubes/method sampling choices, arch / window / epochs training
/// knobs).
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "obs/obs.hpp"
#include "sickle/case.hpp"

namespace sickle {

/// Read `section.key` as an integer that must be positive. A value <= 0
/// is appended to `sink` as an issue and `fallback` returned in its place,
/// so a parser can go on and then throw one ConfigError naming every bad
/// field (and downstream casts never see garbage).
[[nodiscard]] long positive_int(const Config& cfg, const std::string& section,
                                const std::string& key, long fallback,
                                std::vector<ValidationIssue>& sink);

/// Dataset label: `shared.dataset` (zoo label, e.g. "SST-P1F4"); the
/// paper's `dtype`+`path` pair maps onto the generator zoo offline.
[[nodiscard]] std::string dataset_label_from_config(const Config& cfg);

/// Grid-scale multiplier for the generator zoo: `shared.scale` (default
/// 1.0, must be in (0, kMaxDatasetScale]) — lets CI smoke configs shrink a
/// case without a separate code path.
[[nodiscard]] double dataset_scale_from_config(const Config& cfg);

/// Build the sampling pipeline from the `shared` + `subsample` sections.
/// Missing keys fall back to the same defaults the paper's CLI uses; the
/// cube edges and the sizes (num_hypercubes, num_samples, num_clusters,
/// pdf_bins) must be positive, and `hypercubes` and `method` must name a
/// known selector and sampler (check_sampling_methods).
/// `subsample.threads` maps onto PipelineConfig::threads (1 = serial,
/// 0 = all hardware threads, N = dedicated pool; samples are
/// bit-identical for every value). Throws one ConfigError naming every
/// bad field.
[[nodiscard]] sampling::PipelineConfig pipeline_from_config(
    const Config& cfg);

/// Build the full case from the `shared`, `subsample`, `store`,
/// `temporal` and `train` sections, and throw one ConfigError naming
/// every bad field across all of them. The `store` section:
///   store:
///     backend: skl2        # memory | skl2 | series
///     ingest: streaming    # materialize | streaming
///     codec: delta         # raw | delta | quant | gorilla (+ zstd in
///                          # SICKLE_WITH_ZSTD builds)
///     tolerance: 1e-6      # quant max abs error
///     chunk: 32            # cubic chunk edge; chunk_x/y/z override
///     cache_mb: 64         # reader block-cache capacity
///     write_budget_mb: 8   # streaming-writer flush budget (SKL2 + SKL3)
///     spill_dir: /scratch  # spill placement (CaseConfig::spill_dir)
/// The `temporal` section; absent section (or num_snapshots: 0) disables
/// the stage:
///   temporal:
///     num_snapshots: 10    # snapshots to keep (0 = keep all)
///     variable: T          # PDF variable; default cluster_var
///     bins: 100
/// `train.patience` must be >= 0.
[[nodiscard]] CaseConfig case_from_config(const Config& cfg);

/// Build the observability options from the `observability` section:
///   observability:
///     trace_path: run.trace.json    # Chrome trace-event JSON export
///     metrics_path: run.metrics.json# registry snapshot export
///     enabled: true                 # optional master switch
/// `enabled` defaults to true exactly when either path is set, so
/// setting a path is enough to turn the layer on; an explicit
/// `enabled: false` keeps a config's paths around without paying for
/// collection. Absent section = disabled = zero overhead.
[[nodiscard]] obs::ObsOptions obs_options_from_config(const Config& cfg);

/// Knobs for the post-training surrogate inference stage (infer::Engine
/// compilation + magnitude pruning) consumed by tools/sickle_train.
struct InferenceOptions {
  bool enabled = false;
  /// Probe-RMS budget handed to infer::prune; 0 disables pruning (the
  /// engine is still compiled and parity-checked).
  double prune_rms = 0.0;
  std::size_t probes = 32;      ///< held-out windows for the prune search
  std::size_t min_hidden = 2;   ///< pruning floor on the hidden size
  std::string engine_path;      ///< write the compiled engine here ("" = no)
};

/// Build the inference options from the `inference` section:
///   inference:
///     enabled: true          # optional master switch
///     prune_rms: 0.05        # probe-RMS budget (0 = compile only)
///     probes: 32
///     min_hidden: 2
///     engine_path: drag.engine
/// `enabled` defaults to true exactly when any other inference key is
/// set, mirroring the observability section; absent section = disabled.
/// `probes` and `min_hidden` must be positive; throws one ConfigError
/// naming every bad field.
[[nodiscard]] InferenceOptions inference_from_config(const Config& cfg);

/// Normalize the paper's architecture spellings ("MLP_transformer",
/// "CNN_Transformer", "lstm", ...) onto the internal names; throws
/// RuntimeError for unknown architectures.
[[nodiscard]] std::string normalize_arch(const std::string& arch);

}  // namespace sickle
