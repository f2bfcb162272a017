// Traced rebuild of one case from the layers' public functions. Each call
// is timed from outside, in the order the orchestrator runs it, so a
// regression in case_wall_s names the layer that moved. The rebuilt
// sample fingerprint and test loss must equal the untraced run_case's;
// the caller gates on that.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>

#include "field/field_source.hpp"
#include "field/hypercube.hpp"
#include "flow/producer.hpp"
#include "ledger.hpp"
#include "parallel/thread_pool.hpp"
#include "sampling/hypercube_selector.hpp"
#include "sampling/pipeline.hpp"
#include "sampling/point_samplers.hpp"
#include "sampling/temporal.hpp"
#include "sickle/stage.hpp"
#include "store/chunk_layout.hpp"
#include "store/series_store.hpp"
#include "store/snapshot_store.hpp"

namespace sickle::ledger {

namespace {

namespace fs = std::filesystem;

/// FNV-1a over the sampled cubes: the fields, in the order, that make up
/// CaseReport::sample_hash.
struct Fingerprint {
  std::uint64_t h = store::fnv1a64({});

  template <typename T>
  void pod(const T& v) {
    h = store::fnv1a64(
        std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(&v), sizeof(T)),
        h);
  }

  void add(const sampling::CubeSamples& cs) {
    pod<std::uint64_t>(cs.snapshot);
    pod<std::uint64_t>(cs.cube_id);
    pod<std::uint64_t>(cs.samples.points());
    for (const std::size_t idx : cs.samples.indices) pod<std::uint64_t>(idx);
    for (const double x : cs.samples.features) pod<double>(x);
  }
};

std::uint64_t fingerprint(const std::vector<sampling::CubeSamples>& cubes) {
  Fingerprint f;
  for (const auto& cs : cubes) f.add(cs);
  return f.h;
}

/// Reader-side block tallies (zero for the memory backend).
struct StoreCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  ///< blocks decoded
  std::uint64_t io_bytes = 0;

  StoreCounts operator-(const StoreCounts& o) const {
    return {hits - o.hits, misses - o.misses, io_bytes - o.io_bytes};
  }
  StoreCounts& operator+=(const StoreCounts& o) {
    hits += o.hits;
    misses += o.misses;
    io_bytes += o.io_bytes;
    return *this;
  }
};

template <typename Reader>
StoreCounts counts_of(const Reader& r) {
  const store::CacheStats cs = r.cache_stats();
  return {cs.hits, cs.misses, r.io_bytes_read()};
}

/// The temporal stage's PDF variable, resolved as the orchestrator does:
/// explicit, else the cluster variable, else the first input variable.
std::string temporal_variable(const CaseConfig& cfg) {
  if (!cfg.temporal.variable.empty()) return cfg.temporal.variable;
  if (!cfg.pipeline.cluster_var.empty()) return cfg.pipeline.cluster_var;
  return cfg.pipeline.input_vars.front();
}

/// Phase 1 + phase 2 per snapshot, seeded as run_pipeline_streaming
/// seeds them, with per-layer clocks and store counters.
class SnapshotSampler {
 public:
  SnapshotSampler(const CaseConfig& cfg, SpanLog& spans)
      : cfg_(cfg),
        spans_(spans),
        pool_(resolve_threads(cfg.pipeline.threads)),
        sampler_(sampling::SamplerRegistry::instance().create(
            cfg.pipeline.point_method)),
        vars_(sampling::pipeline_variables(cfg.pipeline)) {}

  /// Sample snapshot `t` from `src`; `counts` reads the store tallies
  /// behind `src`. With `rerun_on_pool` (the last snapshot, so the reruns
  /// disturb no later phase) the snapshot is also rerun whole through
  /// run_pipeline_streaming, serially and on a 2-worker pool.
  template <typename Counts>
  void sample(const field::FieldSource& src, std::size_t t, Counts counts,
              bool rerun_on_pool) {
    const auto& pl = cfg_.pipeline;
    const field::CubeTiling tiling(src.shape(), pl.cube);
    sampling::HypercubeSelectorConfig sel;
    sel.method = pl.hypercube_method;
    sel.num_hypercubes = pl.num_hypercubes;
    sel.cluster_var = pl.cluster_var;
    sel.num_clusters = pl.num_clusters;
    sel.seed = pl.seed + t;
    sel.energy = &energy_;
    sel.pool = pool_.get();
    const long snap = static_cast<long>(t);

    const StoreCounts before = counts();
    std::vector<std::size_t> ids;
    {
      auto s = spans_.scope("sampling.phase1", &phase1_s, snap);
      ids = sampling::select_hypercubes(src, tiling, sel);
    }
    const StoreCounts mid = counts();
    phase1_counts += mid - before;

    sampling::SamplerContext ctx;
    ctx.phase_variables = pl.input_vars;
    ctx.cluster_var = pl.cluster_var;
    ctx.num_samples = pl.num_samples;
    ctx.num_clusters = pl.num_clusters;
    ctx.pdf_bins = pl.pdf_bins;
    std::vector<sampling::CubeSamples> cubes(ids.size());
    std::vector<energy::EnergyCounter> cube_energy(ids.size());
    std::vector<double> extract_busy(ids.size(), 0.0);
    std::vector<double> select_busy(ids.size(), 0.0);
    const auto work = [&](std::size_t i) {
      field::Hypercube cube;
      {
        auto s = spans_.scope("field.extract", &extract_busy[i], snap);
        cube = field::extract_cube(src, tiling, tiling.coord(ids[i]),
                                   std::span<const std::string>(vars_));
      }
      sampling::SamplerContext cube_ctx = ctx;
      cube_ctx.energy = &cube_energy[i];
      Rng rng = Rng(pl.seed).fork(t * 1000003 + ids[i]);
      std::vector<std::size_t> local;
      {
        auto s = spans_.scope("sampling.points", &select_busy[i], snap);
        local = sampler_->select(cube, cube_ctx, rng);
      }
      sampling::CubeSamples& out = cubes[i];
      out.snapshot = t;
      out.cube_id = ids[i];
      out.samples.variables = vars_;
      for (const std::size_t p : local) {
        out.samples.indices.push_back(cube.indices[p]);
        for (std::size_t v = 0; v < vars_.size(); ++v) {
          out.samples.features.push_back(cube.values[v][p]);
        }
      }
    };
    double fanout_s = 0.0;
    {
      auto s = spans_.scope("sampling.phase2", &fanout_s, snap);
      if (pool_.get() != nullptr) {
        parallel_for(ids.size(), work, pool_.get(), /*grain=*/1);
      } else {
        for (std::size_t i = 0; i < ids.size(); ++i) work(i);
      }
    }
    phase2_counts += counts() - mid;
    // With a pool, extraction and point selection overlap across
    // workers; the fan-out's wall time is split by their busy shares so
    // the layer times still add up to wall time.
    const double extract = std::accumulate(extract_busy.begin(),
                                           extract_busy.end(), 0.0);
    const double select = std::accumulate(select_busy.begin(),
                                          select_busy.end(), 0.0);
    const double busy = extract + select;
    const double extract_share = busy > 0.0 ? extract / busy : 0.0;
    extract_s += fanout_s * extract_share;
    phase2_s += fanout_s * (1.0 - extract_share);
    for (const auto& e : cube_energy) energy_.merge(e);

    if (rerun_on_pool) measure_pool(src, t, fingerprint(cubes));
    for (auto& cs : cubes) cubes_.push_back(std::move(cs));
  }

  [[nodiscard]] const std::vector<sampling::CubeSamples>& cubes() const {
    return cubes_;
  }
  [[nodiscard]] const energy::EnergyCounter& energy() const {
    return energy_;
  }

  double phase1_s = 0.0;
  double phase2_s = 0.0;
  double extract_s = 0.0;
  StoreCounts phase1_counts;
  StoreCounts phase2_counts;
  double pool_speedup = 0.0;
  bool pool_runs_match = false;

 private:
  void measure_pool(const field::FieldSource& src, std::size_t t,
                    std::uint64_t expected) {
    ThreadPool two(2);
    double serial_s = 0.0;
    double pooled_s = 0.0;
    sampling::PipelineResult serial;
    sampling::PipelineResult pooled;
    {
      auto s = spans_.scope("parallel.serial_snapshot", &serial_s,
                            static_cast<long>(t));
      serial = sampling::run_pipeline_streaming(src, cfg_.pipeline, t,
                                                nullptr);
    }
    {
      auto s = spans_.scope("parallel.pool2_snapshot", &pooled_s,
                            static_cast<long>(t));
      pooled = sampling::run_pipeline_streaming(src, cfg_.pipeline, t, &two);
    }
    pool_speedup = serial_s / pooled_s;
    pool_runs_match = fingerprint(serial.cubes) == expected &&
                      fingerprint(pooled.cubes) == expected;
  }

  const CaseConfig& cfg_;
  SpanLog& spans_;
  PoolHandle pool_;
  std::unique_ptr<sampling::PointSampler> sampler_;
  std::vector<std::string> vars_;
  energy::EnergyCounter energy_;
  std::vector<sampling::CubeSamples> cubes_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The orchestrator's z-score scaler pass over one snapshot: every value
/// of every input and output variable, streamed once in flat order.
void scan_for_scalers(const field::FieldSource& src,
                      const sampling::PipelineConfig& pl) {
  double sum = 0.0;
  double sq = 0.0;
  for (const auto* vars : {&pl.input_vars, &pl.output_vars}) {
    for (const std::string& var : *vars) {
      field::for_each_flat_batch(src, var, [&](std::span<const double> v) {
        for (const double x : v) {
          sum += x;
          sq += x * x;
        }
      });
    }
  }
  // Keep the arithmetic: the moments themselves are not needed here.
  [[maybe_unused]] static volatile double sink;
  sink = sum + sq;
}

}  // namespace

LayerReport rebuild_case(const DatasetBundle& data, const CaseConfig& cfg,
                         const std::string& spill_dir,
                         double reference_wall_s, SpanLog& spans) {
  // Removed below; on a throw, the caller's spill directory goes at exit.
  const fs::path dir = fs::path(spill_dir) / "rebuild";
  fs::create_directories(dir);
  SnapshotSampler sampler(cfg, spans);
  double append_s = 0.0;
  double open_s = 0.0;
  double temporal_s = 0.0;
  double scalers_s = 0.0;
  double raw_bytes = 0.0;
  double file_bytes = 0.0;
  StoreCounts temporal_counts;
  StoreCounts scaler_counts;

  if (cfg.backend == "skl2") {
    // Streaming skl2 without temporal selection is the fused rolling
    // window: each snapshot is written, opened, sampled and deleted
    // before the next is produced.
    SICKLE_CHECK_MSG(cfg.ingest == "streaming" && !cfg.temporal.enabled(),
                     "the rebuild covers the fused skl2 path only");
    flow::DatasetProducer producer(data.data);
    std::size_t t = 0;
    while (auto snap = producer.next()) {
      const long ts = static_cast<long>(t);
      const std::string path =
          (dir / ("snap_" + std::to_string(t) + ".skl2")).string();
      store::StoreWriteReport wr;
      {
        auto s = spans.scope("store.append", &append_s, ts);
        wr = store::write_store(*snap, path, cfg.store);
      }
      snap.reset();
      raw_bytes += static_cast<double>(wr.raw_bytes);
      file_bytes += static_cast<double>(wr.file_bytes);
      std::unique_ptr<store::ChunkReader> reader;
      {
        auto s = spans.scope("store.open", &open_s, ts);
        reader = std::make_unique<store::ChunkReader>(path,
                                                      cfg.store.cache_bytes);
      }
      {
        const StoreCounts before = counts_of(*reader);
        auto s = spans.scope("sickle.scalers", &scalers_s, ts);
        scan_for_scalers(*reader, cfg.pipeline);
        scaler_counts += counts_of(*reader) - before;
      }
      sampler.sample(*reader, t, [&] { return counts_of(*reader); },
                     t + 1 == producer.num_snapshots());
      reader.reset();
      fs::remove(path);
      ++t;
    }
    // The fused path has no temporal stage; time its identity selection.
    auto s = spans.scope("sampling.temporal", &temporal_s);
    std::vector<std::size_t> all(t);
    std::iota(all.begin(), all.end(), std::size_t{0});
  } else {
    std::unique_ptr<store::SeriesReader> reader;
    field::Dataset copy("replay");
    std::unique_ptr<field::DatasetSeriesSource> memory;
    const field::SeriesSource* series = nullptr;
    if (cfg.backend == "series") {
      const std::string path = (dir / "series.skl3").string();
      store::SeriesWriteReport wr;
      {
        store::SeriesWriter writer(path, cfg.store);
        flow::DatasetProducer producer(data.data);
        std::size_t t = 0;
        while (auto snap = producer.next()) {
          auto s = spans.scope("store.append", &append_s,
                               static_cast<long>(t++));
          writer.append(*snap);
        }
        auto s = spans.scope("store.append", &append_s);
        wr = writer.close();
      }
      raw_bytes = static_cast<double>(wr.raw_bytes);
      file_bytes = static_cast<double>(wr.file_bytes);
      {
        auto s = spans.scope("store.open", &open_s);
        reader = std::make_unique<store::SeriesReader>(
            path, store::ReaderOptions{cfg.store.cache_bytes, 0,
                                       cfg.store.prefetch_depth,
                                       cfg.store.pool});
      }
      series = reader.get();
    } else {
      // The memory backend's ingest is materializing the replayed
      // producer; its "open" is wrapping the dataset as a series.
      {
        auto s = spans.scope("store.append", &append_s);
        flow::DatasetProducer producer(data.data);
        copy = flow::materialize(producer, "replay");
      }
      auto s = spans.scope("store.open", &open_s);
      memory = std::make_unique<field::DatasetSeriesSource>(copy);
      series = memory.get();
    }
    const auto counts = [&] {
      return reader != nullptr ? counts_of(*reader) : StoreCounts{};
    };

    std::vector<std::size_t> selected(series->num_snapshots());
    {
      const StoreCounts before = counts();
      auto s = spans.scope("sampling.temporal", &temporal_s);
      if (cfg.temporal.enabled()) {
        sampling::TemporalConfig tc;
        tc.variable = temporal_variable(cfg);
        tc.num_snapshots = cfg.temporal.num_snapshots;
        tc.bins = cfg.temporal.bins;
        selected = sampling::select_snapshots(*series, tc);
        std::sort(selected.begin(), selected.end());
      } else {
        std::iota(selected.begin(), selected.end(), std::size_t{0});
      }
      temporal_counts = counts() - before;
    }
    {
      const StoreCounts before = counts();
      auto s = spans.scope("sickle.scalers", &scalers_s);
      for (std::size_t t = 0; t < series->num_snapshots(); ++t) {
        scan_for_scalers(series->source(t), cfg.pipeline);
      }
      scaler_counts = counts() - before;
    }
    for (const std::size_t t : selected) {
      sampler.sample(series->source(t), t, counts, t == selected.back());
    }
  }

  // Stage C's tensors, built from RAM (the orchestrator builds them from
  // the store while its blocks are cached; see README).
  sampling::PipelineResult sampled;
  sampled.cubes = sampler.cubes();
  double build_s = 0.0;
  ml::TensorDataset tensors;
  {
    auto s = spans.scope("sickle.build", &build_s);
    tensors = build_training_set(data, sampled, cfg);
  }
  double fit_s = 0.0;
  CaseReport trained;
  {
    auto s = spans.scope("ml.fit", &fit_s);
    stage::training(tensors, cfg, trained);
  }

  fs::remove_all(dir);

  StoreCounts total = temporal_counts;
  total += scaler_counts;
  total += sampler.phase1_counts;
  total += sampler.phase2_counts;
  const double layers_s = append_s + open_s + temporal_s + scalers_s +
                          sampler.phase1_s + sampler.phase2_s +
                          sampler.extract_s + build_s + fit_s;
  const double residual_s = reference_wall_s - layers_s;
  const auto epochs = static_cast<double>(
      std::max<std::size_t>(1, trained.train.epoch_losses.size()));

  LayerReport out;
  out.sample_hash = fingerprint(sampler.cubes());
  out.test_loss = trained.train.test_loss;
  out.pool_runs_match = sampler.pool_runs_match;
  out.metrics = {
      {"store.append_s", append_s, "s"},
      {"sickle.scalers_s", scalers_s, "s"},
      {"sampling.phase1_s", sampler.phase1_s, "s"},
      {"sampling.phase2_s", sampler.phase2_s, "s"},
      {"field.extract_s", sampler.extract_s, "s"},
      {"parallel.pool_speedup", sampler.pool_speedup, "x"},
      {"sickle.build_s", build_s, "s"},
      {"ml.fit_s", fit_s, "s"},
      {"ml.epoch_s", fit_s / epochs, "s"},
      {"ml.examples", static_cast<double>(tensors.size()), "count"},
      {"energy.sampling_j", sampler.energy().projected_joules(), "J"},
      {"energy.training_j", trained.training_kilojoules * 1e3, "J"},
  };
  out.extra = {
      {"store.open_s", open_s, "s"},
      {"store.compress_ratio", ratio(raw_bytes, file_bytes), "x"},
      {"store.blocks_decoded", static_cast<double>(total.misses), "count"},
      {"store.cache_hit_ratio",
       ratio(static_cast<double>(total.hits),
             static_cast<double>(total.hits + total.misses)),
       "fraction"},
      {"store.io_mb_read", static_cast<double>(total.io_bytes) / 1e6, "MB"},
      {"sampling.temporal_s", temporal_s, "s"},
      {"sampling.temporal_blocks_decoded",
       static_cast<double>(temporal_counts.misses), "count"},
      {"sampling.phase1_blocks_decoded",
       static_cast<double>(sampler.phase1_counts.misses), "count"},
      {"sickle.residual_s", residual_s, "s"},
  };
  out.shares = {
      {"store.append", append_s, "s"},
      {"store.open", open_s, "s"},
      {"sampling.temporal", temporal_s, "s"},
      {"sampling.phase1", sampler.phase1_s, "s"},
      {"sampling.phase2", sampler.phase2_s, "s"},
      {"field.extract", sampler.extract_s, "s"},
      {"sickle.scalers", scalers_s, "s"},
      {"sickle.build", build_s, "s"},
      {"ml.fit", fit_s, "s"},
      {"sickle.residual", residual_s, "s"},
  };
  return out;
}

}  // namespace sickle::ledger
