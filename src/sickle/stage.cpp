#include "sickle/stage.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>

#include "common/timer.hpp"
#include "field/hypercube.hpp"
#include "flow/producer.hpp"
#include "ml/models.hpp"
#include "obs/trace.hpp"
#include "sampling/point_samplers.hpp"
#include "store/series_store.hpp"

namespace sickle {

namespace stage {

namespace {

namespace fs = std::filesystem;

/// Per-variable affine scaler (global z-score). All training tensors are
/// standardized so losses are comparable across datasets and targets with
/// large physical magnitudes (eps, pv) train properly.
struct VarScaler {
  double mean = 0.0;
  double inv_std = 1.0;
  [[nodiscard]] float apply(double x) const noexcept {
    return static_cast<float>((x - mean) * inv_std);
  }
};

/// Streaming z-score moment accumulator: feed snapshots one at a time
/// (variables inner, snapshots outer — the exact accumulation order of a
/// whole-series fit_scalers pass, so scalers computed incrementally
/// during ingest are bit-identical to a dedicated post-hoc pass). The
/// rolling ingest policy folds each spilled snapshot in as it is
/// sampled, eliminating the scaler pass over the store entirely.
class ScalerAccumulator {
 public:
  explicit ScalerAccumulator(std::vector<std::string> vars)
      : vars_(std::move(vars)), accs_(vars_.size()) {}

  void accumulate(const field::FieldSource& src) {
    for (std::size_t v = 0; v < vars_.size(); ++v) {
      field::for_each_flat_batch(src, vars_[v],
                                 [&](std::span<const double> vals) {
                                   for (const double x : vals) {
                                     accs_[v].sum += x;
                                     accs_[v].sq += x * x;
                                     ++accs_[v].n;
                                   }
                                 });
    }
  }

  [[nodiscard]] std::map<std::string, VarScaler> take() const {
    std::map<std::string, VarScaler> out;
    for (std::size_t v = 0; v < vars_.size(); ++v) {
      SICKLE_CHECK_MSG(accs_[v].n > 0, "scaler saw no values: " + vars_[v]);
      VarScaler s;
      s.mean = accs_[v].sum / static_cast<double>(accs_[v].n);
      const double var_x = std::max(
          accs_[v].sq / static_cast<double>(accs_[v].n) - s.mean * s.mean,
          1e-24);
      s.inv_std = 1.0 / std::sqrt(var_x);
      out[vars_[v]] = s;
    }
    return out;
  }

 private:
  struct Acc {
    double sum = 0.0, sq = 0.0;
    std::size_t n = 0;
  };
  std::vector<std::string> vars_;
  std::vector<Acc> accs_;
};

/// Every variable the training tensors standardize: inputs, then outputs.
std::vector<std::string> scaler_vars(const CaseConfig& cfg) {
  std::vector<std::string> vars = cfg.pipeline.input_vars;
  vars.insert(vars.end(), cfg.pipeline.output_vars.begin(),
              cfg.pipeline.output_vars.end());
  return vars;
}

/// Fit z-score scalers by streaming the series snapshot-major (one pass
/// over the store, all variables accumulated per visit — out-of-core
/// sources pay one reader/cache walk per snapshot, not one per variable).
/// Each variable's accumulator still sees its values in t-ascending flat
/// order — the same sequence as a span scan over an in-memory Dataset —
/// so scalers (and therefore training tensors) are bit-identical across
/// the memory/skl2/series backends for lossless codecs.
std::map<std::string, VarScaler> fit_scalers(
    const field::SeriesSource& series, const CaseConfig& cfg) {
  ScalerAccumulator acc(scaler_vars(cfg));
  for (std::size_t t = 0; t < series.num_snapshots(); ++t) {
    acc.accumulate(series.source(t));
  }
  return acc.take();
}

/// Raw (unstandardized) dense values of `vars` inside a cube, as a
/// [C, E, E, E]-ordered flat vector (channel-major over the cube's
/// z-fastest point order). Works over any FieldSource, so the builder
/// pulls targets from RAM or from a spilled store alike.
std::vector<double> raw_dense_cube(const field::FieldSource& src,
                                   const field::CubeTiling& tiling,
                                   std::size_t cube_id,
                                   std::span<const std::string> vars) {
  const auto cube =
      field::extract_cube(src, tiling, tiling.coord(cube_id), vars);
  std::vector<double> out;
  out.reserve(vars.size() * cube.points());
  for (std::size_t v = 0; v < vars.size(); ++v) {
    for (std::size_t p = 0; p < cube.points(); ++p) {
      out.push_back(cube.values[v][p]);
    }
  }
  return out;
}

/// Raw sampled input features of a cube as a fixed-length [C * N] row
/// (variable-major). Pads by cycling when fewer than N samples exist.
std::vector<double> raw_sampled_row(const sampling::CubeSamples& cs,
                                    std::span<const std::string> input_vars,
                                    std::size_t n_points) {
  std::vector<double> row;
  row.reserve(input_vars.size() * n_points);
  const std::size_t have = cs.samples.points();
  SICKLE_CHECK_MSG(have > 0, "cube produced no samples");
  for (const auto& var : input_vars) {
    const auto col = cs.samples.column(var);
    for (std::size_t i = 0; i < n_points; ++i) {
      row.push_back(col[i % have]);
    }
  }
  return row;
}

/// Standardize a variable-major raw block (per-var stride =
/// raw.size() / vars.size()) with each variable's scaler — the exact
/// per-variable, point-ascending float arithmetic the builder always
/// used, so deferring standardization to take() changes no bit.
std::vector<float> standardize(std::span<const double> raw,
                               std::span<const std::string> vars,
                               const std::map<std::string, VarScaler>& sc) {
  const std::size_t per = raw.size() / vars.size();
  std::vector<float> out;
  out.reserve(raw.size());
  for (std::size_t v = 0; v < vars.size(); ++v) {
    const VarScaler& s = sc.at(vars[v]);
    for (std::size_t p = 0; p < per; ++p) {
      out.push_back(s.apply(raw[v * per + p]));
    }
  }
  return out;
}

/// Streaming training-set builder: accepted cubes are captured as RAW
/// examples the moment they are sampled, pulling dense values from the
/// snapshot source that produced them (its blocks are still warm in the
/// store's LRU cache) — no second pass over the raw data and no
/// accumulation of the full PipelineResult. Standardization is deferred
/// to take(scalers): scalers need only exist by then, so the rolling
/// ingest policy can accumulate their moments DURING ingest instead of
/// paying a dedicated pass over the spilled store. Every caller runs the
/// identical per-variable float arithmetic in the identical order, so
/// tensors are bit-identical however the scalers were fit.
class TrainingSetBuilder {
 public:
  TrainingSetBuilder(const CaseConfig& cfg, const field::GridShape& grid)
      : cfg_(cfg), tiling_(grid, cfg.pipeline.cube),
        edge_(cfg.pipeline.cube.ex) {
    const auto& pl = cfg.pipeline;
    SICKLE_CHECK_MSG(pl.cube.ex == pl.cube.ey && pl.cube.ex == pl.cube.ez,
                     "training cubes must be isotropic (E^3)");
    SICKLE_CHECK_MSG(!pl.output_vars.empty(), "training needs output_vars");
    SICKLE_CHECK_MSG(cfg.arch == "MLP_Transformer" ||
                         cfg.arch == "CNN_Transformer" ||
                         cfg.arch == "Foundation",
                     "build_training_set: unsupported arch " + cfg.arch);
  }

  /// Capture one sampled cube's raw values. `src` must be the snapshot
  /// the cube was sampled from.
  void push(const field::FieldSource& src, const sampling::CubeSamples& cs) {
    const auto& pl = cfg_.pipeline;
    RawExample ex;
    ex.target = raw_dense_cube(src, tiling_, cs.cube_id,
                               std::span<const std::string>(pl.output_vars));
    if (cfg_.arch == "MLP_Transformer") {
      ex.input = raw_sampled_row(
          cs, std::span<const std::string>(pl.input_vars), pl.num_samples);
    } else {  // CNN_Transformer / Foundation: dense input cube
      ex.input = raw_dense_cube(src, tiling_, cs.cube_id,
                                std::span<const std::string>(pl.input_vars));
    }
    raw_.push_back(std::move(ex));
  }

  /// Standardize every captured example with `sc` and build the tensors.
  [[nodiscard]] ml::TensorDataset take(
      const std::map<std::string, VarScaler>& sc) {
    const auto& pl = cfg_.pipeline;
    const std::size_t c_out = pl.output_vars.size();
    ml::TensorDataset out;
    for (RawExample& ex : raw_) {
      auto tgt = standardize(std::span<const double>(ex.target),
                             std::span<const std::string>(pl.output_vars),
                             sc);
      ml::Tensor target({c_out, edge_, edge_, edge_}, std::move(tgt));
      auto in1 = standardize(std::span<const double>(ex.input),
                             std::span<const std::string>(pl.input_vars),
                             sc);
      ex = RawExample{};  // release raw doubles as tensors replace them
      if (cfg_.arch == "Foundation") {  // no time axis
        out.push(ml::Tensor({pl.input_vars.size(), edge_, edge_, edge_},
                            std::move(in1)),
                 std::move(target));
        continue;
      }
      // Window: this cube's input from the `window` most recent snapshots
      // (repeating the earliest when history is short).
      std::vector<float> seq;
      seq.reserve(cfg_.window * in1.size());
      for (std::size_t w = 0; w < cfg_.window; ++w) {
        seq.insert(seq.end(), in1.begin(), in1.end());
      }
      std::vector<std::size_t> shape{cfg_.window, in1.size()};  // MLP
      if (cfg_.arch == "CNN_Transformer") {
        shape = {cfg_.window, pl.input_vars.size(), edge_, edge_, edge_};
      }
      out.push(ml::Tensor(std::move(shape), std::move(seq)),
               std::move(target));
    }
    raw_.clear();
    return out;
  }

 private:
  struct RawExample {
    std::vector<double> input;   ///< sampled row (MLP) or dense cube
    std::vector<double> target;  ///< dense output cube
  };

  const CaseConfig& cfg_;
  field::CubeTiling tiling_;
  std::size_t edge_;
  std::vector<RawExample> raw_;
};

/// Reader-side I/O tallies of a spill backend, folded across every
/// ChunkReader the backend recycled — the per-case view of what the
/// global `store.cache.*` registry counters see process-wide. Lands in
/// CaseReport::metrics.
struct SpillIoStats {
  store::CacheStats cache;
  std::uint64_t bytes_read = 0;

  /// Add a ChunkReader's or SeriesReader's lifetime tallies.
  template <typename Reader>
  void fold(const Reader& reader) {
    const store::CacheStats cs = reader.cache_stats();
    cache.hits += cs.hits;
    cache.misses += cs.misses;
    cache.evictions += cs.evictions;
    bytes_read += reader.io_bytes_read();
  }
};

/// A fresh, collision-free spill directory under `root` (the config's
/// spill_dir or the system temp directory).
fs::path make_spill_dir(const std::string& root) {
  static std::atomic<std::uint64_t> run_id{0};
  const fs::path base =
      root.empty() ? fs::temp_directory_path() : fs::path(root);
  const fs::path dir =
      base / ("sickle_case_store_" + std::to_string(::getpid()) + "_" +
              std::to_string(run_id.fetch_add(1)));
  fs::create_directories(dir);
  return dir;
}

/// Resolve the temporal stage's PDF variable: explicit config, else the
/// cluster variable, else the first input variable.
std::string temporal_variable(const CaseConfig& cfg) {
  if (!cfg.temporal.variable.empty()) return cfg.temporal.variable;
  if (!cfg.pipeline.cluster_var.empty()) return cfg.pipeline.cluster_var;
  SICKLE_CHECK_MSG(!cfg.pipeline.input_vars.empty(),
                   "temporal selection needs a variable");
  return cfg.pipeline.input_vars.front();
}

/// Incremental FNV-1a 64 over POD values (chains store::fnv1a64 through
/// its seed parameter) — the sample-set fingerprint behind
/// CaseReport::sample_hash.
struct Fnv64 {
  std::uint64_t h = store::fnv1a64({});  // empty span returns the basis
  void bytes(const void* p, std::size_t n) noexcept {
    h = store::fnv1a64(
        std::span<const std::uint8_t>(static_cast<const std::uint8_t*>(p), n),
        h);
  }
  template <typename T>
  void pod(const T& v) noexcept {
    bytes(&v, sizeof(T));
  }
};

/// The skl2 spill: one SKL2 file per snapshot, written as snapshots
/// arrive and presented as a SeriesSource. A single reader is recycled
/// across source(t) calls — the documented sequential SeriesSource borrow
/// contract — so reader memory stays O(one cache) no matter how long the
/// series is; revisits (the temporal PDF passes) reopen files instead of
/// re-encoding snapshots.
class Skl2FilesSeries final : public field::SeriesSource {
 public:
  Skl2FilesSeries(fs::path dir, const store::StoreOptions& opts)
      : dir_(std::move(dir)), opts_(opts) {}

  /// Write `snap` as the next snapshot's file.
  store::StoreWriteReport append(const field::Snapshot& snap) {
    paths_.push_back(
        (dir_ / ("snap_" + std::to_string(paths_.size()) + ".skl2"))
            .string());
    return store::write_store(snap, paths_.back(), opts_);
  }

  /// Delete snapshot t's file, closing its reader first.
  void drop(std::size_t t) {
    if (reader_ != nullptr && current_ == t) {
      io_.fold(*reader_);
      reader_.reset();
    }
    std::error_code ec;
    fs::remove(paths_[t], ec);
  }

  [[nodiscard]] std::size_t num_snapshots() const override {
    return paths_.size();
  }

  [[nodiscard]] const field::FieldSource& source(
      std::size_t t) const override {
    SICKLE_CHECK(t < paths_.size());
    if (reader_ == nullptr || current_ != t) {
      if (reader_ != nullptr) io_.fold(*reader_);
      reader_ =
          std::make_unique<store::ChunkReader>(paths_[t], opts_.cache_bytes);
      current_ = t;
    }
    return *reader_;
  }

  /// Lifetime I/O tallies including the currently open reader.
  [[nodiscard]] SpillIoStats io_stats() const {
    SpillIoStats out = io_;
    if (reader_ != nullptr) out.fold(*reader_);
    return out;
  }

 private:
  fs::path dir_;
  store::StoreOptions opts_;
  std::vector<std::string> paths_;
  mutable std::unique_ptr<store::ChunkReader> reader_;
  mutable std::size_t current_ = static_cast<std::size_t>(-1);
  mutable SpillIoStats io_;
};

/// Stage A's spill sink, in a fresh directory under the config's
/// spill_dir: one SKL2 file per snapshot (backend "skl2") or one SKL3
/// container (backend "series"). It fills the case report's store_bytes,
/// ingest_peak_disk_bytes (live spill bytes), ingest_peak_bytes
/// (streaming ingest only) and reader I/O metrics. remove() it once the
/// training set is built or the case is cancelled; a sink destroyed
/// without remove() belongs to a failed run and is kept, its path
/// logged, so a failed multi-hour spill can be inspected or resumed.
class SpillSink {
 public:
  SpillSink(const CaseConfig& cfg, CaseReport& report)
      : dir_(make_spill_dir(cfg.spill_dir)),
        opts_(cfg.store),
        streaming_(cfg.ingest == "streaming"),
        report_(report) {
    if (cfg.backend == "series") {
      writer_ = std::make_unique<store::SeriesWriter>(
          (dir_ / "series.skl3").string(), opts_);
    } else {
      files_ = std::make_unique<Skl2FilesSeries>(dir_, opts_);
    }
  }

  SpillSink(const SpillSink&) = delete;
  SpillSink& operator=(const SpillSink&) = delete;

  ~SpillSink() {
    if (!removed_) {
      std::fprintf(stderr,
                   "sickle: run_case failed; spilled store kept at %s\n",
                   dir_.string().c_str());
    }
  }

  void append(const field::Snapshot& snap) {
    max_snapshot_bytes_ = std::max(max_snapshot_bytes_, snap.bytes());
    if (writer_ != nullptr) {
      writer_->append(snap);
      return;
    }
    const auto wr = files_->append(snap);
    file_bytes_.push_back(wr.file_bytes);
    wrote(wr.file_bytes, wr.peak_buffered_bytes);
  }

  /// Delete spilled snapshot t (the rolling policy; skl2 only).
  void drop(std::size_t t) {
    files_->drop(t);
    live_bytes_ -= file_bytes_[t];
  }

  /// Seal for reading: the SKL3 container is closed and reopened through
  /// a SeriesReader (on CaseSession's shared block cache when
  /// StoreOptions::shared_cache is set); SKL2 files are read in place.
  void seal() {
    if (writer_ == nullptr) return;
    const auto wr = writer_->close();
    wrote(wr.file_bytes, wr.peak_buffered_bytes);
    store::ReaderOptions ropts{opts_.cache_bytes, 0, opts_.prefetch_depth,
                               opts_.pool};
    ropts.shared_cache = opts_.shared_cache;
    reader_ = std::make_unique<store::SeriesReader>(writer_->path(), ropts);
    writer_.reset();
  }

  /// The spilled series: SKL2 files at any time, SKL3 once sealed.
  [[nodiscard]] const field::SeriesSource& series() const {
    if (reader_ != nullptr) return *reader_;
    return *files_;
  }

  /// Fold the readers' cache and I/O tallies into CaseReport::metrics.
  void record_io() const {
    SpillIoStats io = files_ != nullptr ? files_->io_stats() : SpillIoStats{};
    if (reader_ != nullptr) io.fold(*reader_);
    report_.metrics["store.cache_hits"] = static_cast<double>(io.cache.hits);
    report_.metrics["store.cache_misses"] =
        static_cast<double>(io.cache.misses);
    report_.metrics["store.cache_evictions"] =
        static_cast<double>(io.cache.evictions);
    report_.metrics["store.io_bytes_read"] =
        static_cast<double>(io.bytes_read);
  }

  /// Close every reader and writer and delete the spill directory.
  void remove() {
    if (removed_) return;
    removed_ = true;
    reader_.reset();
    writer_.reset();
    files_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

 private:
  void wrote(std::size_t file_bytes, std::size_t buffered_bytes) {
    live_bytes_ += file_bytes;
    report_.store_bytes += file_bytes;
    report_.ingest_peak_disk_bytes =
        std::max(report_.ingest_peak_disk_bytes, live_bytes_);
    peak_buffered_bytes_ = std::max(peak_buffered_bytes_, buffered_bytes);
    // Materialized ingest reports 0: the Dataset itself is the peak.
    if (streaming_) {
      report_.ingest_peak_bytes = max_snapshot_bytes_ + peak_buffered_bytes_;
    }
  }

  fs::path dir_;
  store::StoreOptions opts_;
  bool streaming_;
  CaseReport& report_;
  std::unique_ptr<store::SeriesWriter> writer_;  ///< series, until seal()
  std::unique_ptr<store::SeriesReader> reader_;  ///< series, after seal()
  std::unique_ptr<Skl2FilesSeries> files_;       ///< skl2
  std::vector<std::size_t> file_bytes_;          ///< per skl2 file
  std::size_t live_bytes_ = 0;
  std::size_t max_snapshot_bytes_ = 0;
  std::size_t peak_buffered_bytes_ = 0;
  bool removed_ = false;
};

/// Mirror the scalar CaseReport fields into the metrics map so one
/// key-value view carries the whole per-case telemetry story.
void finalize_case_metrics(CaseReport& report) {
  report.metrics["case.sampled_points"] =
      static_cast<double>(report.sampled_points);
  report.metrics["case.store_bytes"] =
      static_cast<double>(report.store_bytes);
  report.metrics["case.ingest_peak_bytes"] =
      static_cast<double>(report.ingest_peak_bytes);
  report.metrics["case.ingest_peak_disk_bytes"] =
      static_cast<double>(report.ingest_peak_disk_bytes);
  report.metrics["case.selected_snapshots"] =
      static_cast<double>(report.selected_snapshots.size());
}

/// Fill the variable roles the config left empty from the bundle, then
/// validate the backend and ingest mode.
template <typename Bundle>
void resolve_roles(CaseConfig& cfg, const Bundle& bundle) {
  auto& pl = cfg.pipeline;
  if (pl.input_vars.empty()) pl.input_vars = bundle.input_vars;
  if (pl.output_vars.empty()) pl.output_vars = bundle.output_vars;
  if (pl.cluster_var.empty()) pl.cluster_var = bundle.cluster_var;
  SICKLE_CHECK_MSG(cfg.backend == "memory" || cfg.backend == "skl2" ||
                       cfg.backend == "series",
                   "unknown case backend: " + cfg.backend);
  SICKLE_CHECK_MSG(cfg.ingest == "materialize" || cfg.ingest == "streaming",
                   "unknown ingest mode: " + cfg.ingest);
}

/// --- Stage B: temporal snapshot selection over streamed PDFs. Returns
/// the snapshot indices to sample, ascending (identity when the stage is
/// disabled). Emits the case.selection span and fills
/// report.selected_snapshots / metrics["case.selection_seconds"].
std::vector<std::size_t> selection(const field::SeriesSource& series,
                                   const CaseConfig& cfg, CaseReport& report,
                                   Observer* obs) {
  if (obs != nullptr) obs->on_state(CaseState::kSelecting);
  checkpoint(obs);
  std::vector<std::size_t> selected(series.num_snapshots());
  std::iota(selected.begin(), selected.end(), std::size_t{0});
  // The span is emitted even when the stage is disabled, so every traced
  // case shows all four orchestrator stages.
  obs::Span span("case.selection", "case");
  double selection_seconds = 0.0;
  if (cfg.temporal.enabled()) {
    ScopedTimer selection_timer(selection_seconds);
    sampling::TemporalConfig tc;
    tc.variable = temporal_variable(cfg);
    tc.num_snapshots = cfg.temporal.num_snapshots;
    tc.bins = cfg.temporal.bins;
    selected = sampling::select_snapshots(series, tc);
    // Greedy selection order -> time order, so downstream stages see a
    // deterministic, chronologically coherent subset.
    std::sort(selected.begin(), selected.end());
    report.selected_snapshots = selected;
  }
  report.sampling_seconds += selection_seconds;
  report.metrics["case.selection_seconds"] = selection_seconds;
  return selected;
}

/// The one orchestrator loop behind both run_staged overloads. Stage A
/// drains `producer` into a spill sink (the memory backend passes none
/// and borrows `memory`) under a retention policy derived from the
/// config. Rolling (skl2, temporal stage off): no stage revisits a
/// snapshot, so each spill is written, sampled and deleted before the
/// next snapshot is produced and live disk stays one compressed
/// snapshot. Retain (otherwise): selection, the scaler pass and sampling
/// run over the sealed series. Both run the same per-snapshot step and
/// scaler arithmetic in the same order, so sample_hash and the training
/// tensors are bit-identical across backends and policies.
CaseReport run_loop(flow::SnapshotProducer* producer,
                    const field::SeriesSource* memory, const CaseConfig& cfg,
                    Observer* obs) {
  CaseReport report;
  obs::Span case_span("case.run", "case");
  const bool rolling = cfg.backend == "skl2" && !cfg.temporal.enabled();
  std::optional<SpillSink> sink;
  if (memory == nullptr) sink.emplace(cfg, report);
  ml::TensorDataset data;
  try {
    // Stage C's per-snapshot step, shared by both policies: sample one
    // snapshot, fold its cubes into sample_hash, and capture them as raw
    // training examples while the snapshot's blocks are still cached.
    const PoolHandle pool = resolve_threads(cfg.pipeline.threads);
    std::optional<TrainingSetBuilder> builder;
    Fnv64 hash;
    energy::EnergyCounter sampling_energy;
    const auto sample = [&](const field::FieldSource& src, std::size_t t) {
      if (!builder) builder.emplace(cfg, src.shape());
      auto r = sampling::run_pipeline_streaming(src, cfg.pipeline, t,
                                                pool.get());
      report.sampled_points += r.total_points();
      report.sampling_seconds += r.sampling_seconds;
      sampling_energy.merge(r.energy);
      for (const auto& cs : r.cubes) {
        hash.pod<std::uint64_t>(cs.snapshot);
        hash.pod<std::uint64_t>(cs.cube_id);
        hash.pod<std::uint64_t>(cs.samples.points());
        for (const std::size_t idx : cs.samples.indices) {
          hash.pod<std::uint64_t>(idx);
        }
        for (const double x : cs.samples.features) hash.pod<double>(x);
        builder->push(src, cs);
      }
    };

    // --- Stage A: produce -> encode -> append -> drop. At most one
    // produced snapshot is alive at any point (the loop variable), and
    // the store writers buffer at most one write-budget-bounded wave of
    // encoded blocks, so peak ingest memory is one snapshot + budget
    // (+ codec slack) — never the series.
    ScalerAccumulator rolled(scaler_vars(cfg));
    double ingest_seconds = 0.0;
    double rolled_seconds = 0.0;
    {
      obs::Span ingest_span("case.ingest", "case");
      if (obs != nullptr) obs->on_state(CaseState::kIngesting);
      checkpoint(obs);
      if (sink) {
        const std::size_t planned = producer->num_snapshots();
        std::size_t t = 0;
        while (auto snap = producer->next()) {
          checkpoint(obs);
          {
            ScopedTimer ingest_timer(ingest_seconds);
            sink->append(*snap);
          }
          snap.reset();  // values live in the spill now; free the snapshot
          if (rolling) {
            ScopedTimer rolled_timer(rolled_seconds);
            const field::FieldSource& src = sink->series().source(t);
            rolled.accumulate(src);
            sample(src, t);
            sink->drop(t);
          }
          ++t;
          if (obs != nullptr) obs->on_progress(t, planned);
        }
        // Check before seal(): an empty series must fail with the
        // producer-level message, not the store-internal one.
        SICKLE_CHECK_MSG(t > 0, "producer yielded no snapshots");
        ScopedTimer ingest_timer(ingest_seconds);
        sink->seal();
      }
    }
    report.sampling_seconds += ingest_seconds;
    report.metrics["case.ingest_seconds"] = ingest_seconds;

    const field::SeriesSource& series = sink ? sink->series() : *memory;
    const auto selected = selection(series, cfg, report, obs);

    // --- Stage C: the retain policy fits the scalers with one pass over
    // the series, then samples every selected snapshot; the rolling
    // policy did both during ingest, leaving only the tensor build.
    if (obs != nullptr) obs->on_state(CaseState::kSampling);
    {
      obs::Span sampling_span("case.sampling", "case");
      Timer stage_timer;
      const auto scalers = rolling ? rolled.take() : fit_scalers(series, cfg);
      if (!rolling) {
        std::size_t done = 0;
        for (const std::size_t t : selected) {
          checkpoint(obs);
          sample(series.source(t), t);
          if (obs != nullptr) obs->on_progress(++done, selected.size());
        }
      }
      SICKLE_CHECK_MSG(builder.has_value(), "no snapshot was sampled");
      data = builder->take(scalers);
      report.sample_hash = hash.h;
      report.metrics["case.sampling_seconds"] =
          stage_timer.seconds() + rolled_seconds;
    }
    // Node-projected energy: static power charged against roofline node
    // time, so ratios between cases track data volume and compute — the
    // regime the paper measures (see energy::EnergyModel).
    report.sampling_kilojoules = sampling_energy.projected_kilojoules();

    if (sink) {
      // Reader-side I/O tallies, folded before the readers close. The
      // spill is only needed until the training set exists; reclaim the
      // disk before the (potentially long) training stage.
      sink->record_io();
      sink->remove();
    }
  } catch (const CancelledError&) {
    // A cancelled case is not a failure to inspect: reclaim its spill.
    if (sink) sink->remove();
    throw;
  }

  training(data, cfg, report, obs);
  finalize_case_metrics(report);
  return report;
}

}  // namespace

void checkpoint(const Observer* obs) {
  if (obs != nullptr && obs->cancel_requested()) {
    throw CancelledError();
  }
}

void training(const ml::TensorDataset& data, const CaseConfig& cfg,
              CaseReport& report, Observer* obs) {
  if (obs != nullptr) obs->on_state(CaseState::kTraining);
  checkpoint(obs);
  obs::Span span("case.training", "case");
  Timer stage_timer;
  const auto& pl = cfg.pipeline;
  Rng rng(cfg.train.seed, /*stream=*/0x40DE1);
  std::unique_ptr<ml::Module> model;
  const std::size_t edge = pl.cube.ex;
  if (cfg.arch == "MLP_Transformer") {
    ml::MlpTransformerConfig mc;
    mc.in_channels = pl.input_vars.size();
    mc.num_points = pl.num_samples;
    mc.dim = cfg.model_dim;
    mc.heads = cfg.model_heads;
    mc.layers = cfg.model_layers;
    mc.ffn = 2 * cfg.model_dim;
    mc.out_channels = pl.output_vars.size();
    mc.out_edge = edge;
    model = std::make_unique<ml::MlpTransformer>(mc, rng);
  } else if (cfg.arch == "CNN_Transformer") {
    ml::CnnTransformerConfig cc;
    cc.in_channels = pl.input_vars.size();
    cc.edge = edge;
    cc.dim = cfg.model_dim;
    cc.heads = cfg.model_heads;
    cc.layers = cfg.model_layers;
    cc.ffn = 2 * cfg.model_dim;
    cc.out_channels = pl.output_vars.size();
    cc.out_edge = edge;
    // Full-full runs are attention-dominated in the paper (quadratic in
    // token count); fine tokenization reproduces that cost profile.
    cc.fine_tokens = true;
    model = std::make_unique<ml::CnnTransformer>(cc, rng);
  } else if (cfg.arch == "Foundation") {
    ml::FoundationModelConfig fc;
    fc.in_channels = pl.input_vars.size();
    fc.edge = edge;
    fc.patch = std::max<std::size_t>(2, edge / 4);
    fc.dim = cfg.model_dim;
    fc.heads = cfg.model_heads;
    fc.layers = cfg.model_layers;
    fc.ffn = 2 * cfg.model_dim;
    fc.out_channels = pl.output_vars.size();
    model = std::make_unique<ml::FoundationModel>(fc, rng);
  } else {
    throw CaseError(CaseErrorCode::kTraining,
                    "run_case: unsupported arch " + cfg.arch);
  }

  report.train = ml::fit(*model, data, cfg.train);
  report.training_kilojoules = report.train.energy.projected_kilojoules();
  report.metrics["case.training_seconds"] = stage_timer.seconds();
}

CaseReport run_staged(const DatasetBundle& bundle, CaseConfig cfg,
                      Observer* obs) {
  resolve_roles(cfg, bundle);
  // A Dataset is materialized by definition. The memory backend borrows
  // RAM views of it; the spill backends replay it through the same loop
  // a producer feeds.
  cfg.ingest = "materialize";
  if (cfg.backend == "memory") {
    const field::DatasetSeriesSource series(bundle.data);
    return run_loop(nullptr, &series, cfg, obs);
  }
  flow::DatasetProducer replay(bundle.data);
  return run_loop(&replay, nullptr, cfg, obs);
}

CaseReport run_staged(ProducerBundle& bundle, CaseConfig cfg,
                      Observer* obs) {
  resolve_roles(cfg, bundle);
  try {
    // The memory backend borrows views of a full Dataset, so it always
    // materializes; so does explicit ingest: materialize — both delegate
    // to the DatasetBundle path for bit-exact legacy behavior.
    if (cfg.backend == "memory" || cfg.ingest == "materialize") {
      return run_staged(materialize_bundle(bundle), std::move(cfg), obs);
    }
    return run_loop(bundle.producer.get(), nullptr, cfg, obs);
  } catch (...) {
    // A failed or cancelled run must not leave a half-consumed producer:
    // rewind it when the generator supports the reset() contract so the
    // bundle can be resubmitted. Generators that cannot rewind
    // (flow::CloneError) stay consumed — documented, not silent.
    if (bundle.producer != nullptr) {
      try {
        bundle.producer->reset();
      } catch (const flow::CloneError&) {
        // Single-pass generator: nothing to restore.
      }
    }
    throw;
  }
}

}  // namespace stage

ml::TensorDataset build_training_set(const DatasetBundle& bundle,
                                     const sampling::PipelineResult& sampled,
                                     const CaseConfig& cfg) {
  const field::DatasetSeriesSource series(bundle.data);
  stage::TrainingSetBuilder builder(cfg, bundle.data.shape());
  for (const auto& cs : sampled.cubes) {
    builder.push(series.source(cs.snapshot), cs);
  }
  return builder.take(stage::fit_scalers(series, cfg));
}

}  // namespace sickle
