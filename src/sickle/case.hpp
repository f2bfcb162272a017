/// @file case.hpp
/// @brief Case runner: subsample -> train -> evaluate, the paper's
/// T1 -> T2 -> T3 workflow driven by one config.
///
/// run_case is a staged streaming orchestrator: (A) ingest the dataset as
/// a field::SeriesSource — in RAM, spilled to per-snapshot SKL2 stores,
/// or appended to one streaming SKL3 series container — then (B) optional
/// temporal snapshot selection over streamed per-snapshot PDFs, (C)
/// two-phase sampling per selected snapshot with accepted points written
/// straight into the training-set builder (no second pass over the raw
/// data), and (D) training. All backends run the same stages, so sample
/// sets are bit-identical across memory/skl2/series for lossless codecs.
///
/// Ingest comes in two modes. "materialize" builds the full in-RAM
/// Dataset first (the only choice for the memory backend). "streaming"
/// consumes a flow::SnapshotProducer snapshot-at-a-time — simulate ->
/// encode -> append -> drop — so no full Dataset ever exists for the
/// skl2/series backends and peak ingest memory is bounded by one snapshot
/// plus the writer's flush budget (CaseReport::ingest_peak_bytes,
/// test-asserted). Both modes produce bit-identical stores, sample sets,
/// and training tensors for lossless codecs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ml/trainer.hpp"
#include "sampling/pipeline.hpp"
#include "sampling/temporal.hpp"
#include "sickle/dataset_zoo.hpp"
#include "sickle/errors.hpp"
#include "store/snapshot_store.hpp"

namespace sickle {

/// Optional temporal snapshot selection stage (paper §4.3): keep only the
/// greedy max-min JS subset of snapshots before sampling and training.
struct TemporalSelection {
  /// Snapshots to keep; 0 disables the stage (all snapshots are used).
  std::size_t num_snapshots = 0;
  /// PDF variable; empty falls back to the pipeline's cluster_var, then
  /// its first input variable.
  std::string variable;
  std::size_t bins = 100;

  [[nodiscard]] bool enabled() const noexcept { return num_snapshots > 0; }
};

struct CaseConfig {
  sampling::PipelineConfig pipeline;
  /// "LSTM" | "MLP_Transformer" | "CNN_Transformer" | "Foundation"
  std::string arch = "MLP_Transformer";
  ml::TrainConfig train;
  std::size_t window = 1;   ///< input sequence length T
  std::size_t model_dim = 32;
  std::size_t model_heads = 4;
  std::size_t model_layers = 1;
  /// Sampling backend: "memory" runs the staged pipeline over the in-RAM
  /// dataset; "skl2" spills each snapshot to its own chunked compressed
  /// store; "series" streams every snapshot into one SKL3 container
  /// (amortized header/index, shared block cache) and runs selection +
  /// sampling + training-set build out-of-core. Sample sets are identical
  /// across backends for lossless codecs, at any pipeline.threads value.
  std::string backend = "memory";
  /// Ingest mode: "materialize" builds the full in-RAM Dataset before
  /// stage A (today's default, bit-exact legacy behavior); "streaming"
  /// feeds a SnapshotProducer straight into the spill store one snapshot
  /// at a time (skl2/series backends; the memory backend always
  /// materializes). Only meaningful for the ProducerBundle overload of
  /// run_case — a DatasetBundle is materialized by definition.
  std::string ingest = "materialize";
  store::StoreOptions store;  ///< chunking/codec knobs for spill backends
  /// Where spill backends place their temporary stores; empty = the
  /// system temp directory. The spill is removed once the training set is
  /// built; on failure it is kept and its path logged to stderr.
  std::string spill_dir;
  TemporalSelection temporal;  ///< optional snapshot-subset stage

  /// ALL problems with this config at once — enum fields (backend, ingest,
  /// arch, codec), zero/negative sizes, and fraction ranges — so a config
  /// with three typos is fixed in one round trip instead of three.
  /// Empty means valid. CaseSession::submit throws ConfigError with this
  /// list; config_driver merges it into its own parse-level issues.
  /// run_case itself keeps its legacy first-throw SICKLE_CHECKs.
  [[nodiscard]] std::vector<ValidationIssue> validate() const;
};

struct CaseReport {
  std::size_t sampled_points = 0;
  /// Wall time of the T1 stages: spill/ingest (skl2/series), temporal
  /// selection, and the per-snapshot sampling pipeline. Training-set
  /// tensor construction and scaler fitting are T2 cost and excluded.
  double sampling_seconds = 0.0;
  double sampling_kilojoules = 0.0;
  /// Compressed on-disk bytes of the spilled store(s) (skl2/series only).
  std::size_t store_bytes = 0;
  /// Snapshot indices the temporal stage kept, ascending; empty when the
  /// stage is disabled (all snapshots were used).
  std::vector<std::size_t> selected_snapshots;
  /// FNV-1a fingerprint of the sampled cubes (snapshot, cube id, point
  /// indices, feature bit patterns) in pipeline order — equal across
  /// backends/ingest modes/thread counts exactly when the sample sets are
  /// bit-identical, which is what the e2e smoke CI job diffs.
  std::uint64_t sample_hash = 0;
  /// Streaming ingest only: high-water mark of one produced snapshot plus
  /// the store writer's buffered encoded blocks — the "no full Dataset"
  /// guarantee, bounded by one snapshot + write_budget (+ codec slack).
  /// 0 for materialized ingest (the Dataset itself is the peak).
  std::size_t ingest_peak_bytes = 0;
  /// High-water mark of live spill bytes on disk, set by the retention
  /// policy the config implies, for either ingest mode. memory backend:
  /// 0. skl2 with the temporal stage off (rolling): one snapshot file —
  /// each spill is sampled and deleted before the next is produced, so
  /// disk stays O(snapshot) for any series length. series backend, and
  /// skl2 with the temporal stage on (retain): the whole spilled store
  /// (= store_bytes), because selection revisits snapshots.
  std::size_t ingest_peak_disk_bytes = 0;
  ml::TrainReport train;
  double training_kilojoules = 0.0;
  /// Per-stage telemetry, populated on every run (independent of the
  /// global obs::enabled() switch — these are per-case values, not
  /// process-cumulative registry counters). Keys: `case.*_seconds` wall
  /// times per stage, `case.sampled_points` / `case.store_bytes` /
  /// `case.ingest_peak_bytes` mirrors of the scalar fields, and for
  /// spill backends the reader-side `store.cache_*` / `store.io_*`
  /// tallies. Keys ending in `_seconds` are wall-clock and vary run to
  /// run; everything else is bit-stable for lossless codecs at
  /// pipeline.threads == 1.
  std::map<std::string, double> metrics;

  [[nodiscard]] double total_kilojoules() const noexcept {
    return sampling_kilojoules + training_kilojoules;
  }
};

/// Run the full pipeline on a generated dataset bundle. The bundle's
/// variable roles fill the pipeline config's variable lists when empty.
/// A DatasetBundle is materialized by definition, so cfg.ingest is
/// ignored here; use the ProducerBundle overload for streaming ingest.
[[nodiscard]] CaseReport run_case(const DatasetBundle& bundle,
                                  CaseConfig cfg);

/// Generator-driven form: with cfg.ingest == "streaming" and a spill
/// backend (skl2/series), snapshots flow simulate -> encode -> append ->
/// drop and no full Dataset ever exists; with "materialize" (or the
/// memory backend) the producer is drained into a DatasetBundle first.
/// Sample sets and training tensors are bit-identical across all backend
/// x ingest combinations for lossless codecs. The producer is consumed.
[[nodiscard]] CaseReport run_case(ProducerBundle& bundle, CaseConfig cfg);

/// Build the supervised TensorDataset for a given architecture from the
/// sampling result (exposed for tests and custom training loops).
///
/// MLP_Transformer: input [T=window, C*N] sampled points; target dense
///   output cube [C', E, E, E] of the same (snapshot, cube).
/// CNN_Transformer / Foundation: input dense cube(s); target dense output
///   cube. Foundation input drops the time axis ([C, E, E, E]).
[[nodiscard]] ml::TensorDataset build_training_set(
    const DatasetBundle& bundle, const sampling::PipelineResult& sampled,
    const CaseConfig& cfg);

/// OF2D drag problem (sample-single): per snapshot, sample ns points with
/// `method` ("random" | "maxent" | "uips" | "stratified"), build windows of
/// length `window`, target = drag at the window's last step.
[[nodiscard]] ml::TensorDataset build_drag_dataset(
    const DatasetBundle& bundle, const std::string& method, std::size_t ns,
    std::size_t window, std::uint64_t seed,
    energy::EnergyCounter* energy = nullptr);

}  // namespace sickle
