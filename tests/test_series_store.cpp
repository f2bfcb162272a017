// Unit tests: SKL3 series container — streaming writer (byte-budget
// bound, index patched on close), SeriesReader views over the shared
// block cache, crash-safety detection, streamed temporal selection
// equality, and the staged run_case orchestrator's series backend.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <span>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "file_bytes.hpp"
#include "gather_patterns.hpp"
#include "stats/entropy.hpp"
#include "stats/histogram.hpp"
#include "sampling/pipeline.hpp"
#include "sampling/temporal.hpp"
#include "sickle/case.hpp"
#include "store/series_store.hpp"
#include "store/snapshot_store.hpp"

namespace sickle::store {
namespace {

class SeriesStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sickle_series_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Periodic synthetic flow: snapshot t's fields are phase-shifted by
  /// t mod `period`, so PDFs repeat with that period — the regime
  /// temporal selection exists for. The grid is deliberately not
  /// divisible by typical chunk shapes.
  [[nodiscard]] static field::Dataset make_series(std::size_t steps,
                                                  std::size_t period = 4) {
    field::Dataset ds("periodic");
    for (std::size_t t = 0; t < steps; ++t) {
      field::Snapshot snap({10, 6, 5}, 0.1 * static_cast<double>(t));
      const double phase =
          static_cast<double>(t % period) / static_cast<double>(period);
      Rng rng(100 + t % period);
      for (const char* name : {"u", "v", "c"}) {
        auto& f = snap.add(name);
        std::size_t i = 0;
        for (auto& x : f.data()) {
          x = std::sin(0.05 * static_cast<double>(i++) +
                       6.28318 * phase) +
              0.05 * rng.normal();
        }
      }
      ds.push(snap);
    }
    return ds;
  }

  std::filesystem::path dir_;
};

/// A sealed series with its index summaries hidden: coarse_histogram
/// always reports nullopt, and value_range does too when `hide_ranges` is
/// set. That is what a source without summaries (the in-memory and SKL2
/// spill sources) gives temporal selection, so selection runs its scan
/// fallbacks over real payload decodes of `series`.
class HiddenSummaries final : public field::SeriesSource {
 public:
  HiddenSummaries(const SeriesReader& series, bool hide_ranges)
      : series_(series), hide_ranges_(hide_ranges) {}

  [[nodiscard]] std::size_t num_snapshots() const override {
    return series_.num_snapshots();
  }
  [[nodiscard]] const field::FieldSource& source(
      std::size_t t) const override {
    return series_.source(t);
  }
  [[nodiscard]] double time(std::size_t t) const override {
    return series_.time(t);
  }
  [[nodiscard]] std::optional<field::VarRange> value_range(
      std::size_t t, const std::string& var) const override {
    if (hide_ranges_) return std::nullopt;
    return series_.value_range(t, var);
  }

 private:
  const SeriesReader& series_;
  bool hide_ranges_;
};

TEST_F(SeriesStoreTest, LosslessRoundTripAcrossSnapshots) {
  const auto ds = make_series(5);
  for (const char* codec : {"raw", "delta", "gorilla"}) {
    StoreOptions opts;
    opts.chunk = {4, 4, 4};
    opts.codec = codec;
    SeriesWriter writer(path("s.skl3"), opts);
    for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
      writer.append(ds.snapshot(t));
    }
    const auto report = writer.close();
    EXPECT_EQ(report.snapshots, 5u);
    EXPECT_EQ(report.chunks, 5u * 3u * 12u);
    EXPECT_EQ(report.raw_bytes, 5u * ds.snapshot(0).bytes());
    EXPECT_GT(report.meta_bytes, 0u);
    EXPECT_EQ(report.file_bytes,
              std::filesystem::file_size(path("s.skl3")));

    const SeriesReader reader(path("s.skl3"));
    EXPECT_EQ(reader.num_snapshots(), 5u);
    EXPECT_EQ(reader.shape(), ds.shape());
    EXPECT_EQ(reader.variables(), ds.snapshot(0).names());
    EXPECT_EQ(reader.codec_name(), codec);
    for (std::size_t t = 0; t < 5; ++t) {
      EXPECT_DOUBLE_EQ(reader.time(t), ds.snapshot(t).time());
      EXPECT_DOUBLE_EQ(reader.source(t).time(), ds.snapshot(t).time());
      const auto loaded = reader.load_snapshot(t);
      for (const auto& name : ds.snapshot(t).names()) {
        const auto a = ds.snapshot(t).get(name).data();
        const auto b = loaded.get(name).data();
        for (std::size_t i = 0; i < a.size(); ++i) {
          ASSERT_DOUBLE_EQ(a[i], b[i])
              << codec << " t=" << t << " " << name << "[" << i << "]";
        }
      }
    }
  }
}

TEST_F(SeriesStoreTest, QuantRoundTripWithinTolerance) {
  const auto ds = make_series(3);
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  opts.codec = "quant";
  opts.tolerance = 1e-4;
  SeriesWriter writer(path("q.skl3"), opts);
  for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
    writer.append(ds.snapshot(t));
  }
  const auto report = writer.close();
  EXPECT_LT(report.file_bytes, report.raw_bytes);
  const SeriesReader reader(path("q.skl3"));
  for (std::size_t t = 0; t < 3; ++t) {
    const auto loaded = reader.load_snapshot(t);
    for (const auto& name : ds.snapshot(t).names()) {
      const auto a = ds.snapshot(t).get(name).data();
      const auto b = loaded.get(name).data();
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_NEAR(a[i], b[i], 1e-4);
      }
    }
  }
}

/// The streaming-writer acceptance test: appending a series whose encoded
/// payload is many times the write budget must keep the writer's peak
/// buffered bytes within the budget (plus one wave's codec expansion) —
/// memory is bounded by the budget, never by the series.
TEST_F(SeriesStoreTest, WriterPeakBufferingIsBoundedByBudget) {
  field::Dataset ds("big");
  Rng rng(7);
  for (std::size_t t = 0; t < 6; ++t) {
    field::Snapshot snap({32, 32, 32}, static_cast<double>(t));
    for (const char* name : {"u", "v"}) {
      auto& f = snap.add(name);
      for (auto& x : f.data()) x = rng.normal();
    }
    ds.push(snap);
  }
  StoreOptions opts;
  opts.chunk = {16, 16, 16};
  opts.codec = "delta";
  opts.write_budget_bytes = 64u << 10;  // two 16^3 chunks of raw input
  SeriesWriter writer(path("big.skl3"), opts);
  for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
    writer.append(ds.snapshot(t));
  }
  const auto report = writer.close();
  // Random data defeats the delta codec, so the payload is ~raw-sized:
  // far larger than the budget — the writer must have flushed in waves.
  EXPECT_GT(report.payload_bytes, 8u * opts.write_budget_bytes);
  EXPECT_LE(report.peak_buffered_bytes,
            opts.write_budget_bytes + opts.write_budget_bytes / 4);
  // And the container still round-trips exactly.
  const SeriesReader reader(path("big.skl3"));
  const auto loaded = reader.load_snapshot(3);
  const auto a = ds.snapshot(3).get("v").data();
  const auto b = loaded.get("v").data();
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_DOUBLE_EQ(a[i], b[i]);
}

TEST_F(SeriesStoreTest, AppendValidatesShapeAndVariables) {
  const auto ds = make_series(2);
  SeriesWriter writer(path("v.skl3"), {});
  writer.append(ds.snapshot(0));
  field::Snapshot other({4, 4, 4}, 0.0);
  other.add("u");
  EXPECT_THROW(writer.append(other), CheckError);  // grid mismatch
  field::Snapshot renamed(ds.shape(), 0.0);
  renamed.add("u");
  EXPECT_THROW(writer.append(renamed), CheckError);  // variable mismatch
  writer.append(ds.snapshot(1));
  (void)writer.close();
  EXPECT_THROW(writer.append(ds.snapshot(0)), CheckError);  // after close
  SeriesWriter empty(path("e.skl3"), {});
  EXPECT_THROW(empty.close(), CheckError);  // nothing appended
}

/// Crash-safety: a writer that never reached close() leaves a container
/// with no index patch; the reader must reject it with a clear error, not
/// read garbage.
TEST_F(SeriesStoreTest, UnclosedWriterIsDetectedAsMissingIndex) {
  const auto ds = make_series(2);
  {
    SeriesWriter writer(path("crash.skl3"), {});
    writer.append(ds.snapshot(0));
    writer.append(ds.snapshot(1));
    // No close(): simulates a crash mid-run. The destructor leaves the
    // payload but index_offset stays 0.
  }
  try {
    SeriesReader reader(path("crash.skl3"));
    FAIL() << "unclosed SKL3 must be rejected";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("no index"), std::string::npos)
        << e.what();
  }
}

TEST_F(SeriesStoreTest, TruncatedAndCorruptFilesAreRejected) {
  EXPECT_THROW(SeriesReader(path("missing.skl3")), RuntimeError);
  {
    std::ofstream f(path("bad.skl3"), std::ios::binary);
    f << "NOTSKL3DATA";
  }
  EXPECT_THROW(SeriesReader(path("bad.skl3")), RuntimeError);
  // An SKL2 file is not an SKL3 series.
  const auto ds = make_series(1);
  write_store(ds.snapshot(0), path("snap.skl2"), {});
  EXPECT_THROW(SeriesReader(path("snap.skl2")), RuntimeError);

  // A sealed series truncated mid-payload: the index (at the tail) is
  // gone, so the reader reports a truncation instead of short reads.
  SeriesWriter writer(path("trunc.skl3"), {});
  writer.append(ds.snapshot(0));
  (void)writer.close();
  const auto full = std::filesystem::file_size(path("trunc.skl3"));
  std::filesystem::resize_file(path("trunc.skl3"), full / 2);
  EXPECT_THROW(SeriesReader(path("trunc.skl3")), RuntimeError);
}

TEST_F(SeriesStoreTest, ViewsShareOneBlockCache) {
  const auto ds = make_series(4);
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  SeriesWriter writer(path("c.skl3"), opts);
  for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
    writer.append(ds.snapshot(t));
  }
  (void)writer.close();
  // Capacity of exactly one 4^3 chunk: every switch to a new (t, field,
  // chunk) evicts, including switches across snapshots.
  const SeriesReader reader(path("c.skl3"), /*cache_bytes=*/64 * 8);
  const auto first = reader.chunk(0, 0, 0);
  EXPECT_EQ(reader.cache_stats().misses, 1u);
  (void)reader.chunk(0, 0, 0);
  EXPECT_EQ(reader.cache_stats().hits, 1u);
  (void)reader.chunk(2, 0, 0);  // same chunk id, different snapshot
  const auto stats = reader.cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.resident_bytes, 64u * 8u);
  EXPECT_EQ(first->size(), 64u);  // evicted blocks stay alive for holders
}

/// Acceptance: streamed temporal selection over the SKL3 container must
/// return bit-identical snapshot indices to the in-memory path on a
/// periodic synthetic flow (lossless codec).
TEST_F(SeriesStoreTest, StreamedTemporalSelectionMatchesInMemory) {
  const auto ds = make_series(12, /*period=*/4);
  StoreOptions opts;
  opts.chunk = {8, 4, 4};
  opts.codec = "delta";
  SeriesWriter writer(path("t.skl3"), opts);
  for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
    writer.append(ds.snapshot(t));
  }
  (void)writer.close();
  // A tiny cache forces continual decode during the two PDF passes.
  const SeriesReader reader(path("t.skl3"), /*cache_bytes=*/8 << 10);

  sampling::TemporalConfig cfg;
  cfg.variable = "u";
  cfg.num_snapshots = 5;
  cfg.bins = 32;
  const auto in_memory = sampling::select_snapshots(ds, cfg);
  const auto streamed = sampling::select_snapshots(reader, cfg);
  EXPECT_EQ(streamed, in_memory);
  ASSERT_EQ(in_memory.size(), 5u);
  // The periodic flow only has 4 distinct phases; novelty against
  // snapshot 0 must vanish for same-phase snapshots.
  const auto pmfs_mem =
      sampling::snapshot_pmfs(field::DatasetSeriesSource(ds), cfg);
  EXPECT_EQ(sampling::snapshot_pmfs(reader, cfg), pmfs_mem);
  const auto novelty = [&](std::size_t t) {
    return stats::js_divergence(std::span<const double>(pmfs_mem[t]),
                                std::span<const double>(pmfs_mem[0]));
  };
  EXPECT_LT(novelty(4), 1e-3);   // same phase as snapshot 0
  EXPECT_GT(novelty(2), 1e-3);   // opposite phase
}

/// Acceptance: the multi-snapshot streaming pipeline over an SKL3 series
/// must reproduce the in-memory dataset pipeline bit-for-bit, for any
/// thread count, including on snapshot subsets.
TEST_F(SeriesStoreTest, SeriesPipelineMatchesInMemoryBitExactly) {
  const auto ds = make_series(4);
  sampling::PipelineConfig cfg;
  cfg.cube = {5, 3, 5};
  cfg.hypercube_method = "maxent";
  cfg.point_method = "maxent";
  cfg.num_hypercubes = 4;
  cfg.num_samples = 11;
  cfg.num_clusters = 3;
  cfg.input_vars = {"u", "v"};
  cfg.output_vars = {"u"};
  cfg.cluster_var = "c";
  const auto in_memory = run_pipeline(ds, cfg);

  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  opts.codec = "delta";
  SeriesWriter writer(path("p.skl3"), opts);
  for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
    writer.append(ds.snapshot(t));
  }
  (void)writer.close();
  const SeriesReader reader(path("p.skl3"), /*cache_bytes=*/16 << 10);

  std::vector<std::size_t> all{0, 1, 2, 3};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    cfg.threads = threads;
    const auto streamed = sampling::run_pipeline_streaming(
        reader, cfg, std::span<const std::size_t>(all));
    ASSERT_EQ(streamed.cubes.size(), in_memory.cubes.size());
    const auto a = in_memory.merged();
    const auto b = streamed.merged();
    EXPECT_EQ(a.indices, b.indices) << "threads=" << threads;
    EXPECT_EQ(a.features, b.features) << "threads=" << threads;
  }
  cfg.threads = 1;

  // A subset keeps each snapshot's original seed offset: sampling {1, 3}
  // returns exactly those snapshots' cubes of the full run.
  std::vector<std::size_t> subset{1, 3};
  const auto part = sampling::run_pipeline_streaming(
      reader, cfg, std::span<const std::size_t>(subset));
  std::size_t k = 0;
  for (const auto& cs : in_memory.cubes) {
    if (cs.snapshot != 1 && cs.snapshot != 3) continue;
    ASSERT_LT(k, part.cubes.size());
    EXPECT_EQ(part.cubes[k].cube_id, cs.cube_id);
    EXPECT_EQ(part.cubes[k].samples.indices, cs.samples.indices);
    EXPECT_EQ(part.cubes[k].samples.features, cs.samples.features);
    ++k;
  }
  EXPECT_EQ(k, part.cubes.size());
}

/// Concurrent gathers from many threads across different snapshots of one
/// shared SeriesReader under heavy eviction churn (runs under TSan in
/// CI). Every value must match the source dataset.
TEST_F(SeriesStoreTest, ConcurrentCrossSnapshotGathersMatchSource) {
  const auto ds = make_series(4);
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  opts.codec = "delta";
  SeriesWriter writer(path("mt.skl3"), opts);
  for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
    writer.append(ds.snapshot(t));
  }
  (void)writer.close();
  // ~3 chunks of budget: nearly every gather evicts.
  const SeriesReader reader(path("mt.skl3"),
                            /*cache_bytes=*/3 * 64 * sizeof(double),
                            /*shards=*/4);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 48;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(500 + w);
      std::vector<std::size_t> idx(64);
      for (std::size_t round = 0; round < kRounds; ++round) {
        const std::size_t t = (round + w) % ds.num_snapshots();
        const char* var = (round + w) % 2 == 0 ? "u" : "v";
        for (auto& i : idx) i = rng.uniform_int(ds.shape().size());
        const auto got = reader.source(t).gather(
            var, std::span<const std::size_t>(idx));
        const auto& data = ds.snapshot(t).get(var).data();
        for (std::size_t i = 0; i < idx.size(); ++i) {
          if (got[i] != data[idx[i]]) {
            failures[w] = "thread " + std::to_string(w) + " snapshot " +
                          std::to_string(t) + ": mismatch at " +
                          std::to_string(idx[i]);
            return;
          }
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (const auto& f : failures) EXPECT_EQ(f, "");
  EXPECT_GT(reader.cache_stats().evictions, 0u);
}

/// The SeriesSnapshotView twin of StoreTest's ScatteredGather table: every
/// request shape on every snapshot returns the source snapshot's values
/// in request order, and with a cache a quarter of one field's chunks deep
/// each call misses exactly once per distinct chunk it touches.
TEST_F(SeriesStoreTest, ScatteredGatherMatchesSourceAndFetchesEachChunkOnce) {
  for (const auto& g : testing::gather_grids()) {
    field::Dataset ds("scattered");
    Rng fill(19);
    for (std::size_t t = 0; t < 3; ++t) {
      field::Snapshot snap(g.grid, 0.1 * static_cast<double>(t));
      for (const char* name : {"u", "v"}) {
        for (auto& x : snap.add(name).data()) x = fill.normal();
      }
      ds.push(snap);
    }
    StoreOptions opts;
    opts.chunk = g.chunk;
    SeriesWriter writer(path("sg.skl3"), opts);
    for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
      writer.append(ds.snapshot(t));
    }
    (void)writer.close();
    const std::size_t cache_bytes =
        testing::chunk_count(g) / 4 * g.chunk.size() * sizeof(double);

    for (const auto& p : testing::gather_patterns(g.grid, 29)) {
      SCOPED_TRACE(p.name + " on " + std::to_string(g.grid.size()) +
                   " points");
      const SeriesReader reader(path("sg.skl3"), cache_bytes);
      const std::span<const std::size_t> idx(p.idx);
      for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
        const field::SnapshotSource want(ds.snapshot(t));
        const std::size_t before = reader.cache_stats().misses;
        const auto got = reader.source(t).gather("v", idx);
        const auto expected = want.gather("v", idx);
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], expected[i]) << "t " << t << " slot " << i;
        }
        EXPECT_EQ(reader.cache_stats().misses - before,
                  testing::distinct_chunks(g, p.idx))
            << "t " << t;
      }
    }
  }
}

TEST_F(SeriesStoreTest, ScatteredGatherRejectsOutOfRangeIndex) {
  const auto ds = make_series(2);
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  SeriesWriter writer(path("oor.skl3"), opts);
  writer.append(ds.snapshot(0));
  writer.append(ds.snapshot(1));
  (void)writer.close();
  const SeriesReader reader(path("oor.skl3"));
  const std::size_t n = ds.shape().size();
  for (const auto& idx :
       {std::vector<std::size_t>{n}, std::vector<std::size_t>{0, 1, n},
        std::vector<std::size_t>{n + 1000, 3}}) {
    EXPECT_THROW((void)reader.source(1).gather(
                     "u", std::span<const std::size_t>(idx)),
                 CheckError);
  }
  const std::vector<std::size_t> ok = {0};
  EXPECT_THROW((void)reader.source(0).gather(
                   "nope", std::span<const std::size_t>(ok)),
               CheckError);
}

/// Random-order requests from 4 threads on one shared SeriesReader with
/// readahead on and a two-chunk cache, so demand gathers race prefetch
/// decodes and eviction (runs under TSan in CI). Every result must match
/// the source snapshot.
TEST_F(SeriesStoreTest, ConcurrentScatteredGather) {
  const auto ds = make_series(4);
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  SeriesWriter writer(path("csg.skl3"), opts);
  for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
    writer.append(ds.snapshot(t));
  }
  (void)writer.close();
  ThreadPool pool(2);
  ReaderOptions ropts;
  ropts.cache_bytes = 2 * 64 * sizeof(double);
  ropts.prefetch_depth = 2;
  ropts.pool = &pool;
  const SeriesReader reader(path("csg.skl3"), ropts);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 48;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(900 + w);
      for (std::size_t round = 0; round < kRounds; ++round) {
        const std::size_t t = (round + w) % ds.num_snapshots();
        const char* var = (round + w) % 2 == 0 ? "u" : "c";
        std::vector<std::size_t> idx(1 + rng.uniform_int(96));
        for (auto& i : idx) i = rng.uniform_int(ds.shape().size());
        const std::span<const std::size_t> span(idx);
        const field::SnapshotSource want(ds.snapshot(t));
        if (reader.source(t).gather(var, span) != want.gather(var, span)) {
          failures[w] = "thread " + std::to_string(w) + " snapshot " +
                        std::to_string(t) + " differs";
          return;
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  reader.drain_prefetch();
  for (const auto& f : failures) EXPECT_EQ(f, "");
}

// ------------------------------------------------- staged case orchestrator

[[nodiscard]] CaseConfig tiny_case() {
  CaseConfig cc;
  cc.pipeline.cube = {8, 8, 8};
  cc.pipeline.hypercube_method = "random";
  cc.pipeline.point_method = "maxent";
  cc.pipeline.num_hypercubes = 3;
  cc.pipeline.num_samples = 51;
  cc.pipeline.num_clusters = 5;
  cc.pipeline.seed = 3;
  cc.arch = "MLP_Transformer";
  cc.model_dim = 16;
  cc.model_heads = 2;
  cc.train.epochs = 2;
  cc.train.batch = 4;
  return cc;
}

/// The series backend must sample exactly what the memory backend does
/// and leave no spill behind on success.
TEST_F(SeriesStoreTest, CaseRunnerSeriesBackendMatchesMemoryBackend) {
  const DatasetBundle bundle = make_dataset("SST-P1F4", 3, 0.5);
  CaseConfig cc = tiny_case();
  const auto memory_report = run_case(bundle, cc);

  cc.backend = "series";
  cc.store.chunk = {16, 16, 16};
  cc.store.codec = "delta";
  cc.spill_dir = (dir_ / "spill").string();
  const auto series_report = run_case(bundle, cc);

  EXPECT_EQ(series_report.sampled_points, memory_report.sampled_points);
  EXPECT_GT(series_report.store_bytes, 0u);
  EXPECT_TRUE(std::isfinite(series_report.train.test_loss));
  // Bit-identical training data + same seed -> identical training run.
  EXPECT_EQ(series_report.train.test_loss, memory_report.train.test_loss);
  // Spill lifecycle: removed on success.
  EXPECT_TRUE(std::filesystem::is_empty(dir_ / "spill"));
}

/// Temporal selection changes *which* snapshots are sampled, identically
/// across backends, and the report says which.
TEST_F(SeriesStoreTest, CaseRunnerTemporalStageIsBackendInvariant) {
  DatasetBundle bundle = make_dataset("SST-P1F4", 5, 0.5);
  // SST bundles carry few snapshots; extend with phase-copies so the
  // temporal stage has something to discard.
  while (bundle.data.num_snapshots() < 6) {
    bundle.data.push(bundle.data.snapshot(
        bundle.data.num_snapshots() % 2));
  }
  CaseConfig cc = tiny_case();
  cc.temporal.num_snapshots = 3;
  cc.temporal.bins = 32;
  const auto memory_report = run_case(bundle, cc);
  ASSERT_EQ(memory_report.selected_snapshots.size(), 3u);

  cc.backend = "series";
  cc.store.codec = "delta";
  cc.spill_dir = (dir_ / "spill_t").string();
  const auto series_report = run_case(bundle, cc);
  EXPECT_EQ(series_report.selected_snapshots,
            memory_report.selected_snapshots);
  EXPECT_EQ(series_report.sampled_points, memory_report.sampled_points);

  cc.backend = "skl2";
  const auto skl2_report = run_case(bundle, cc);
  EXPECT_EQ(skl2_report.selected_snapshots,
            memory_report.selected_snapshots);
  EXPECT_EQ(skl2_report.sampled_points, memory_report.sampled_points);
}

/// Spill lifecycle on failure: the spilled store is kept (for inspection)
/// in the configured directory instead of vanishing.
TEST_F(SeriesStoreTest, FailedCaseKeepsSpillInConfiguredDir) {
  const DatasetBundle bundle = make_dataset("SST-P1F4", 3, 0.5);
  CaseConfig cc = tiny_case();
  cc.backend = "series";
  cc.spill_dir = (dir_ / "spill_fail").string();
  cc.pipeline.hypercube_method = "maxent";
  cc.pipeline.cluster_var = "no_such_variable";  // fails in stage C
  EXPECT_THROW(run_case(bundle, cc), CheckError);
  // The spill directory still holds the series container.
  bool found = false;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir_ / "spill_fail")) {
    if (entry.path().extension() == ".skl3") found = true;
  }
  EXPECT_TRUE(found);
}

// ------------------------------------ index summaries + version checks

TEST_F(SeriesStoreTest, SummaryBlocksCarryExactRanges) {
  const auto ds = make_series(4);
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  SeriesWriter writer(path("sum.skl3"), opts);
  for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
    writer.append(ds.snapshot(t));
  }
  (void)writer.close();

  const SeriesReader reader(path("sum.skl3"));
  for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
    for (const auto& name : ds.snapshot(t).names()) {
      const auto r = reader.value_range(t, name);
      ASSERT_TRUE(r.has_value());
      const auto data = ds.snapshot(t).get(name).data();
      EXPECT_EQ(r->min, *std::min_element(data.begin(), data.end()));
      EXPECT_EQ(r->max, *std::max_element(data.begin(), data.end()));
    }
  }
  EXPECT_THROW((void)reader.value_range(0, "nope"), CheckError);
}

/// SKL3 has one layout: a reader handed any other version number fails
/// with a typed error naming the version, whatever the rest of the file
/// holds.
TEST_F(SeriesStoreTest, OnlyCurrentVersionOpens) {
  const auto ds = make_series(2);
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  SeriesWriter writer(path("cur.skl3"), opts);
  writer.append(ds.snapshot(0));
  writer.append(ds.snapshot(1));
  (void)writer.close();
  const auto clean = testing::read_bytes(path("cur.skl3"));
  for (const std::uint32_t version : {0u, 1u, 2u, 3u, 5u}) {
    auto bytes = clean;
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    testing::write_bytes(path("other.skl3"), bytes);
    try {
      const SeriesReader reader(path("other.skl3"));
      FAIL() << "SKL3 version " << version << " must be rejected";
    } catch (const RuntimeError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported SKL3 version"),
                std::string::npos)
          << e.what();
    }
  }
}

/// The SKL3 twin of StoreTest.OversizedHeaderFailsBeforeAllocating: a
/// crafted header naming a huge grid in 1-point chunks, with a matching
/// chunk count, fails the index-fits-the-file check with a typed error.
TEST_F(SeriesStoreTest, OversizedHeaderFailsBeforeAllocating) {
  for (const std::uint64_t side : {1ull << 16, 1ull << 20}) {
    // Magic, version, grid, 1-point chunks, the raw codec and its
    // tolerance, one field "u", the matching chunk count, an index_offset
    // just past the header, one snapshot, an index checksum, then a token
    // payload.
    std::vector<std::uint8_t> bytes{'S', 'K', 'L', '3'};
    append_pod<std::uint32_t>(bytes, 4);
    for (int i = 0; i < 3; ++i) append_pod<std::uint64_t>(bytes, side);
    for (int i = 0; i < 3; ++i) append_pod<std::uint64_t>(bytes, 1);
    append_pod<std::uint8_t>(bytes, 0);
    append_pod<double>(bytes, 0.0);
    append_pod<std::uint64_t>(bytes, 1);
    append_pod<std::uint32_t>(bytes, 1);
    bytes.push_back('u');
    append_pod<std::uint64_t>(bytes, side * side * side);
    append_pod<std::uint64_t>(bytes, bytes.size() + 24);
    append_pod<std::uint64_t>(bytes, 1);
    append_pod<std::uint64_t>(bytes, 0);
    bytes.resize(bytes.size() + 64);
    testing::write_bytes(path("huge.skl3"), bytes);
    try {
      const SeriesReader reader(path("huge.skl3"));
      FAIL() << "a " << side << "^3 grid in a tiny file must be rejected";
    } catch (const RuntimeError& e) {
      EXPECT_NE(std::string(e.what()).find("does not fit"),
                std::string::npos)
          << e.what();
    }
  }
}

/// The acceptance criterion: with summaries present, cold-store temporal
/// selection touches each payload block ONCE (the range pass reads index
/// metadata); with them hidden it decodes everything twice. The cache is
/// sized below the working set so a second pass cannot hide in it.
TEST_F(SeriesStoreTest, SummariesHalveColdSelectionIo) {
  const auto ds = make_series(6);
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  SeriesWriter writer(path("sel.skl3"), opts);
  for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
    writer.append(ds.snapshot(t));
  }
  (void)writer.close();

  sampling::TemporalConfig tc;
  tc.variable = "u";
  tc.num_snapshots = 3;
  tc.bins = 16;
  const auto expected =
      sampling::select_snapshots(field::DatasetSeriesSource(ds), tc);

  // 12 chunks per field per snapshot (10x6x5 grid in 4^3 chunks).
  const std::size_t blocks_per_var = 6 * 12;
  const std::size_t tiny_cache = 2 * 4 * 4 * 4 * sizeof(double);

  const SeriesReader two_pass(path("sel.skl3"), tiny_cache);
  const auto two_open = two_pass.io_bytes_read();  // header + index
  EXPECT_EQ(sampling::select_snapshots(
                HiddenSummaries(two_pass, /*hide_ranges=*/true), tc),
            expected);
  EXPECT_GE(two_pass.cache_stats().misses, 2 * blocks_per_var);
  const auto two_delta = two_pass.io_bytes_read() - two_open;

  const SeriesReader one_pass(path("sel.skl3"), tiny_cache);
  const auto one_open = one_pass.io_bytes_read();  // header + index
  EXPECT_EQ(sampling::select_snapshots(one_pass, tc), expected);
  // Bit-identical result, but every payload block decoded exactly once.
  EXPECT_EQ(one_pass.cache_stats().misses, blocks_per_var);
  const auto one_delta = one_pass.io_bytes_read() - one_open;
  // Byte accounting agrees: the summary path reads u's payload once where
  // the two-pass scan reads it twice (both readers decode the same file,
  // so the halving is exact).
  EXPECT_GT(one_delta, 0u);
  EXPECT_EQ(2 * one_delta, two_delta);
}

/// SKL3 round-trip: index-resident coarse histograms equal what the
/// canonical kernel (stats::Histogram over the snapshot's own exact
/// range) computes from the raw data — the contract that lets selection
/// seed from the index with zero payload decodes.
TEST_F(SeriesStoreTest, IndexHistogramsMatchScannedCoarseCounts) {
  const auto ds = make_series(4);
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  SeriesWriter writer(path("hist.skl3"), opts);
  for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
    writer.append(ds.snapshot(t));
  }
  (void)writer.close();

  const SeriesReader reader(path("hist.skl3"));
  for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
    for (const auto& name : ds.snapshot(t).names()) {
      const auto got = reader.coarse_histogram(t, name);
      ASSERT_TRUE(got.has_value());
      ASSERT_EQ(got->size(), field::kCoarseHistogramBins);
      const auto data = ds.snapshot(t).get(name).data();
      double lo = *std::min_element(data.begin(), data.end());
      double hi = *std::max_element(data.begin(), data.end());
      if (!(hi > lo)) {
        lo -= 0.5;
        hi += 0.5;
      }
      stats::Histogram want(lo, hi, field::kCoarseHistogramBins);
      want.add(std::span<const double>(data));
      std::uint64_t total = 0;
      for (std::size_t b = 0; b < field::kCoarseHistogramBins; ++b) {
        ASSERT_EQ((*got)[b], want.counts()[b])
            << "t=" << t << " var=" << name << " bin=" << b;
        total += (*got)[b];
      }
      EXPECT_EQ(total, data.size());
    }
  }
}

/// Without index histograms (and without ranges too) the seeded selection
/// falls back to scanning — with indices identical to both the in-memory
/// source and the sealed series' own index summaries (k chosen so the
/// candidate set is a strict subset and the seeding stage actually runs).
TEST_F(SeriesStoreTest, SeededSelectionIsIdenticalWithoutIndexSummaries) {
  const auto ds = make_series(12);
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  SeriesWriter writer(path("sel.skl3"), opts);
  for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
    writer.append(ds.snapshot(t));
  }
  (void)writer.close();

  sampling::TemporalConfig tc;
  tc.variable = "u";
  tc.num_snapshots = 2;
  tc.bins = 16;  // 2k = 4 candidates out of 12
  const auto expected =
      sampling::select_snapshots(field::DatasetSeriesSource(ds), tc);
  ASSERT_EQ(expected.size(), 2u);

  const SeriesReader reader(path("sel.skl3"));
  const HiddenSummaries no_summaries(reader, /*hide_ranges=*/true);
  const HiddenSummaries ranges_only(reader, /*hide_ranges=*/false);
  ASSERT_TRUE(reader.coarse_histogram(0, "u").has_value());
  EXPECT_EQ(ranges_only.coarse_histogram(0, "u"), std::nullopt);
  EXPECT_EQ(sampling::select_snapshots(no_summaries, tc), expected);
  EXPECT_EQ(sampling::select_snapshots(ranges_only, tc), expected);
  EXPECT_EQ(sampling::select_snapshots(reader, tc), expected);
}

/// The plain max-min JS greedy over every snapshot's PMF, written out as
/// the reference for selection whose candidates cover the series: start at
/// snapshot 0, then repeatedly add the snapshot whose minimum JS
/// divergence to the picks so far is largest (lowest index on ties).
std::vector<std::size_t> exhaustive_greedy(
    const std::vector<std::vector<double>>& pmfs, std::size_t k) {
  std::vector<std::size_t> picks{0};
  while (picks.size() < k) {
    std::size_t best = 0;
    double best_d = -1.0;
    for (std::size_t t = 0; t < pmfs.size(); ++t) {
      if (std::find(picks.begin(), picks.end(), t) != picks.end()) continue;
      double d = std::numeric_limits<double>::infinity();
      for (const std::size_t p : picks) {
        d = std::min(d, stats::js_divergence(std::span<const double>(pmfs[t]),
                                             std::span<const double>(pmfs[p])));
      }
      if (d > best_d) {
        best_d = d;
        best = t;
      }
    }
    picks.push_back(best);
  }
  return picks;
}

/// With 2k >= n the seeding stage is skipped and every snapshot is a
/// candidate, so selection over the in-memory source and over a sealed
/// series must both be exactly the exhaustive greedy.
TEST_F(SeriesStoreTest, CoveringCandidatesMatchExhaustiveGreedy) {
  const auto ds = make_series(8, /*period=*/8);
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  SeriesWriter writer(path("cover.skl3"), opts);
  for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
    writer.append(ds.snapshot(t));
  }
  (void)writer.close();
  const SeriesReader reader(path("cover.skl3"));
  const field::DatasetSeriesSource memory(ds);

  sampling::TemporalConfig tc;
  tc.variable = "u";
  tc.bins = 24;
  for (const std::size_t k : {std::size_t{4}, std::size_t{6}}) {
    tc.num_snapshots = k;  // 2k >= 8 snapshots
    const auto expected =
        exhaustive_greedy(sampling::snapshot_pmfs(memory, tc), k);
    ASSERT_EQ(expected.size(), k);
    EXPECT_EQ(sampling::select_snapshots(memory, tc), expected) << "k=" << k;
    EXPECT_EQ(sampling::select_snapshots(reader, tc), expected) << "k=" << k;
  }
}

/// The tentpole acceptance criterion: on a sealed series the seeding
/// stage decodes ZERO payload blocks — the first (and only) decodes are
/// the exact refinement pass over the candidate snapshots. Hiding the
/// index summaries quantifies the win: without histograms selection pays
/// one extra full histogram pass, without ranges too it pays two (range +
/// histogram). The cache is sized below the working set so no pass can
/// hide in it.
TEST_F(SeriesStoreTest, SeededSelectionDecodesOnlyCandidateBlocks) {
  const auto ds = make_series(12);
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  SeriesWriter writer(path("io.skl3"), opts);
  for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
    writer.append(ds.snapshot(t));
  }
  (void)writer.close();

  sampling::TemporalConfig tc;
  tc.variable = "u";
  tc.num_snapshots = 2;
  tc.bins = 16;
  const std::size_t n = 12;
  const std::size_t m = 2 * tc.num_snapshots;  // 4 candidates
  // 12 chunks per field per snapshot (10x6x5 grid in 4^3 chunks).
  const std::size_t chunks_per_snap = 12;
  const std::size_t tiny_cache = 2 * 4 * 4 * 4 * sizeof(double);
  const auto expected =
      sampling::select_snapshots(field::DatasetSeriesSource(ds), tc);

  const SeriesReader indexed(path("io.skl3"), tiny_cache);
  EXPECT_EQ(indexed.cache_stats().misses, 0u);  // opening decodes nothing
  EXPECT_EQ(sampling::select_snapshots(indexed, tc), expected);
  // Zero decodes before refinement: only the m candidates' blocks of the
  // selection variable were ever decoded.
  EXPECT_EQ(indexed.cache_stats().misses, m * chunks_per_snap);

  const SeriesReader ranges_only(path("io.skl3"), tiny_cache);
  EXPECT_EQ(sampling::select_snapshots(
                HiddenSummaries(ranges_only, /*hide_ranges=*/false), tc),
            expected);
  // Seeding from index ranges but scanning the coarse histograms: one
  // full pass plus the refinement (3x the indexed block decodes here).
  EXPECT_EQ(ranges_only.cache_stats().misses, (n + m) * chunks_per_snap);

  const SeriesReader no_summaries(path("io.skl3"), tiny_cache);
  EXPECT_EQ(sampling::select_snapshots(
                HiddenSummaries(no_summaries, /*hide_ranges=*/true), tc),
            expected);
  // Without ranges too, selection also pays the range pass: two full
  // passes plus refinement.
  EXPECT_EQ(no_summaries.cache_stats().misses,
            (2 * n + m) * chunks_per_snap);
}

/// A flipped byte inside the histogram region of the index must fail
/// the index checksum at open, exactly like any other index corruption.
TEST_F(SeriesStoreTest, CorruptedHistogramCountsFailChecksum) {
  const auto ds = make_series(2);
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  SeriesWriter writer(path("hflip.skl3"), opts);
  writer.append(ds.snapshot(0));
  writer.append(ds.snapshot(1));
  (void)writer.close();

  // Per-snapshot index record (3 fields, 12 chunks): 8 (time) +
  // 3*16 (summaries) + 3*64*8 (histogram counts) + 3*12*24 (block refs).
  const std::size_t per_snap = 8 + 3 * 16 + 3 * 64 * 8 + 3 * 12 * 24;
  const auto size = std::filesystem::file_size(path("hflip.skl3"));
  // Flip a byte inside the LAST snapshot's histogram block.
  testing::flip_byte(path("hflip.skl3"), size - per_snap + 8 + 3 * 16 + 100,
                     0x08);
  try {
    SeriesReader reader(path("hflip.skl3"));
    FAIL() << "flipped histogram byte must be rejected";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

/// Async readahead is advisory: identical decoded values, identical
/// selection, only the decode timing moves. Whatever the race outcomes
/// between demand loads and prefetch tasks, every block's first touch is
/// either a demand miss or a prefetch hit — their sum is exactly the
/// distinct-block count when nothing is evicted.
TEST_F(SeriesStoreTest, PrefetchedReadsAreBitIdenticalWithAccountedHits) {
  const auto ds = make_series(6);
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  SeriesWriter writer(path("pf.skl3"), opts);
  for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
    writer.append(ds.snapshot(t));
  }
  (void)writer.close();

  ThreadPool pool(2);
  ReaderOptions ropts;
  ropts.prefetch_depth = 4;
  ropts.pool = &pool;
  const SeriesReader plain(path("pf.skl3"));
  const SeriesReader ahead(path("pf.skl3"), ropts);
  for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
    const auto a = plain.load_snapshot(t);
    const auto b = ahead.load_snapshot(t);
    for (const auto& name : a.names()) {
      const auto av = a.get(name).data();
      const auto bv = b.get(name).data();
      EXPECT_TRUE(std::equal(av.begin(), av.end(), bv.begin(), bv.end()))
          << "t=" << t << " var=" << name;
    }
  }
  ahead.drain_prefetch();
  const auto st = ahead.cache_stats();
  const std::size_t blocks = 6 * 3 * 12;  // snapshots * fields * chunks
  EXPECT_GT(st.prefetch_issued, 0u);
  EXPECT_EQ(st.misses + st.prefetch_hits, blocks);
  EXPECT_EQ(st.prefetch_wasted, 0u);  // default cache: nothing evicted
  EXPECT_GE(st.prefetch_issued, st.prefetch_hits);

  sampling::TemporalConfig tc;
  tc.variable = "u";
  tc.num_snapshots = 2;
  tc.bins = 16;
  const SeriesReader sel_plain(path("pf.skl3"));
  const SeriesReader sel_ahead(path("pf.skl3"), ropts);
  EXPECT_EQ(sampling::select_snapshots(sel_ahead, tc),
            sampling::select_snapshots(sel_plain, tc));
}

/// A reader on a shared cache erases its container's blocks when it is
/// destroyed, readahead included: its keys are salted per file, so no
/// other reader would hit them. An erase is not an eviction, and another
/// container's blocks stay.
TEST_F(SeriesStoreTest, SharedCacheReaderErasesItsPrefetchedBlocksOnClose) {
  const auto ds = make_series(3);
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  for (const char* name : {"a.skl3", "b.skl3"}) {
    SeriesWriter writer(path(name), opts);
    for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
      writer.append(ds.snapshot(t));
    }
    (void)writer.close();
  }
  BlockCache shared(64ull << 20, 4 * 4 * 4 * sizeof(double));
  ThreadPool pool(2);
  ReaderOptions ropts;
  ropts.prefetch_depth = 4;
  ropts.pool = &pool;
  ropts.shared_cache = &shared;
  const SeriesReader open(path("b.skl3"), ropts);
  (void)open.load_snapshot(0);
  open.drain_prefetch();
  const std::size_t kept = shared.stats().resident_bytes;
  EXPECT_GT(kept, 0u);
  {
    const SeriesReader closing(path("a.skl3"), ropts);
    for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
      (void)closing.load_snapshot(t);
    }
    EXPECT_GT(shared.stats().resident_bytes, kept);
  }
  const CacheStats st = shared.stats();
  EXPECT_EQ(st.resident_bytes, kept);
  EXPECT_EQ(st.evictions, 0u);
}

TEST_F(SeriesStoreTest, IndexByteFlipFailsChecksum) {
  const auto ds = make_series(2);
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  SeriesWriter writer(path("flip.skl3"), opts);
  writer.append(ds.snapshot(0));
  writer.append(ds.snapshot(1));
  (void)writer.close();

  // The index is the trailing section; flip one byte near the tail.
  const auto size = std::filesystem::file_size(path("flip.skl3"));
  testing::flip_byte(path("flip.skl3"), size - 5, 0x40);
  try {
    SeriesReader reader(path("flip.skl3"));
    FAIL() << "flipped index byte must be rejected";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

/// The encode pool only decides which worker encodes and checksums each
/// block, never the bytes: series written through 1- and 4-wide pools are
/// identical, and the wide-pool file still fails loudly on a flipped
/// payload byte.
TEST_F(SeriesStoreTest, WriterBytesDoNotDependOnPoolWidth) {
  const auto ds = make_series(3);
  ThreadPool narrow(1);
  ThreadPool wide(4);
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  opts.write_budget_bytes = 3 * 4 * 4 * 4 * sizeof(double);  // 3-block waves
  SeriesWriteReport report;
  for (ThreadPool* pool : {&narrow, &wide}) {
    opts.pool = pool;
    SeriesWriter writer(path(pool == &wide ? "wide.skl3" : "narrow.skl3"),
                        opts);
    for (std::size_t t = 0; t < ds.num_snapshots(); ++t) {
      writer.append(ds.snapshot(t));
    }
    report = writer.close();
  }
  ASSERT_EQ(testing::read_bytes(path("narrow.skl3")),
            testing::read_bytes(path("wide.skl3")));

  // The payload is most of the file, so the middle byte is a payload byte.
  ASSERT_GT(2 * report.payload_bytes, report.file_bytes);
  testing::flip_byte(path("wide.skl3"), report.file_bytes / 2, 0x01);
  try {
    const SeriesReader reader(path("wide.skl3"));
    for (std::size_t t = 0; t < reader.num_snapshots(); ++t) {
      (void)reader.load_snapshot(t);
    }
    FAIL() << "a flipped payload byte must fail its block checksum";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST_F(SeriesStoreTest, TruncationIntoIndexIsRejected) {
  const auto ds = make_series(2);
  SeriesWriter writer(path("midx.skl3"), {});
  writer.append(ds.snapshot(0));
  writer.append(ds.snapshot(1));
  (void)writer.close();
  // Chop a few bytes off the tail: the header still points at a sealed
  // index, but the section no longer fits the file.
  const auto full = std::filesystem::file_size(path("midx.skl3"));
  std::filesystem::resize_file(path("midx.skl3"), full - 3);
  EXPECT_THROW(SeriesReader(path("midx.skl3")), RuntimeError);
}

// ------------------------------------------------ generator-driven ingest

/// The tentpole acceptance test: with ingest: streaming the case runner
/// never materializes a Dataset — peak ingest memory is one snapshot plus
/// the write budget (plus codec wave slack) — while sample sets and
/// training losses stay bit-identical to the fully materialized memory
/// backend.
TEST_F(SeriesStoreTest, StreamingIngestBoundsMemoryAndMatchesMemoryBackend) {
  CaseConfig cc = tiny_case();
  const auto memory_report =
      run_case(make_dataset("SST-P1F4", 3, 0.5), cc);
  ASSERT_NE(memory_report.sample_hash, 0u);
  EXPECT_EQ(memory_report.ingest_peak_bytes, 0u);  // materialized

  cc.backend = "series";
  cc.ingest = "streaming";
  cc.store.chunk = {16, 16, 16};
  cc.store.codec = "delta";
  cc.store.write_budget_bytes = 1u << 20;
  cc.spill_dir = (dir_ / "stream_spill").string();
  ProducerBundle bundle = make_dataset_producer("SST-P1F4", 3, 0.5);
  const std::size_t snapshot_bytes =
      make_dataset("SST-P1F4", 3, 0.5).data.snapshot(0).bytes();
  const auto streamed_report = run_case(bundle, cc);

  EXPECT_EQ(streamed_report.sample_hash, memory_report.sample_hash);
  EXPECT_EQ(streamed_report.sampled_points, memory_report.sampled_points);
  EXPECT_EQ(streamed_report.train.test_loss, memory_report.train.test_loss);
  EXPECT_EQ(streamed_report.selected_snapshots,
            memory_report.selected_snapshots);

  // Peak ingest memory: one live snapshot + one flush wave. The wave's
  // encoded bytes may exceed the raw budget by the codec's worst-case
  // expansion; 2x budget is far beyond any real codec overhead.
  EXPECT_GT(streamed_report.ingest_peak_bytes, 0u);
  EXPECT_LE(streamed_report.ingest_peak_bytes,
            snapshot_bytes + 2 * cc.store.write_budget_bytes);
  EXPECT_GT(streamed_report.store_bytes, 0u);
  EXPECT_TRUE(std::filesystem::is_empty(dir_ / "stream_spill"));
}

/// Streaming ingest through per-snapshot SKL2 files: same contract, one
/// container per snapshot instead of one series.
TEST_F(SeriesStoreTest, StreamingSkl2IngestMatchesMemoryBackend) {
  CaseConfig cc = tiny_case();
  const auto memory_report =
      run_case(make_dataset("SST-P1F4", 4, 0.5), cc);

  cc.backend = "skl2";
  cc.ingest = "streaming";
  cc.store.codec = "raw";
  cc.store.write_budget_bytes = 1u << 20;
  cc.spill_dir = (dir_ / "skl2_spill").string();
  ProducerBundle bundle = make_dataset_producer("SST-P1F4", 4, 0.5);
  const auto streamed_report = run_case(bundle, cc);

  EXPECT_EQ(streamed_report.sample_hash, memory_report.sample_hash);
  EXPECT_EQ(streamed_report.train.test_loss, memory_report.train.test_loss);
  EXPECT_GT(streamed_report.ingest_peak_bytes, 0u);
  EXPECT_TRUE(std::filesystem::is_empty(dir_ / "skl2_spill"));
}

/// Fused rolling-window skl2 (streaming ingest, temporal stage off): each
/// spill file is written, sampled, and deleted before the next snapshot
/// is produced, so the disk high-water mark is ONE snapshot file — not
/// the whole spilled series — while samples and training stay
/// bit-identical to the fully materialized memory backend.
TEST_F(SeriesStoreTest, FusedStreamingSkl2BoundsDiskToOneSnapshotFile) {
  CaseConfig cc = tiny_case();
  const auto memory_report = run_case(make_dataset("SST-P1F4", 4, 0.5), cc);
  ASSERT_NE(memory_report.sample_hash, 0u);
  EXPECT_EQ(memory_report.ingest_peak_disk_bytes, 0u);  // never spills

  cc.backend = "skl2";
  cc.ingest = "streaming";
  cc.store.codec = "delta";
  cc.spill_dir = (dir_ / "fused_spill").string();
  ProducerBundle bundle = make_dataset_producer("SST-P1F4", 4, 0.5);
  const auto fused = run_case(bundle, cc);

  EXPECT_EQ(fused.sample_hash, memory_report.sample_hash);
  EXPECT_EQ(fused.sampled_points, memory_report.sampled_points);
  EXPECT_EQ(fused.train.test_loss, memory_report.train.test_loss);
  // store_bytes sums every spill ever written; the disk peak is the
  // largest single file — strictly less with >= 2 snapshots.
  EXPECT_GT(fused.ingest_peak_disk_bytes, 0u);
  EXPECT_LT(fused.ingest_peak_disk_bytes, fused.store_bytes);
  EXPECT_EQ(fused.metrics.at("case.ingest_peak_disk_bytes"),
            static_cast<double>(fused.ingest_peak_disk_bytes));
  EXPECT_TRUE(std::filesystem::is_empty(dir_ / "fused_spill"));

  // Temporal selection revisits snapshots, so the same config with the
  // stage on cannot fuse: every spill file coexists and the disk peak is
  // the whole spilled store.
  cc.temporal.num_snapshots = 2;
  cc.temporal.bins = 32;
  ProducerBundle revisit = make_dataset_producer("SST-P1F4", 4, 0.5);
  const auto unfused = run_case(revisit, cc);
  EXPECT_EQ(unfused.ingest_peak_disk_bytes, unfused.store_bytes);
  EXPECT_GT(unfused.store_bytes, fused.ingest_peak_disk_bytes);
}

/// Codec matrix over the streaming series backend: every lossless codec
/// must reproduce the memory backend's sample hash and training losses
/// bit-for-bit — the out-of-core path may change how bytes hit disk, never
/// which samples come back.
TEST_F(SeriesStoreTest, LosslessCodecsKeepSampleHashAndLossesIdentical) {
  CaseConfig cc = tiny_case();
  const auto memory_report =
      run_case(make_dataset("SST-P1F4", 3, 0.5), cc);
  ASSERT_NE(memory_report.sample_hash, 0u);

  std::vector<std::string> codecs = {"raw", "delta", "gorilla"};
#ifdef SICKLE_HAS_ZSTD
  codecs.emplace_back("zstd");
#endif
  for (const auto& codec : codecs) {
    CaseConfig sc = tiny_case();
    sc.backend = "series";
    sc.ingest = "streaming";
    sc.store.chunk = {16, 16, 16};
    sc.store.codec = codec;
    sc.store.write_budget_bytes = 1u << 20;
    sc.spill_dir = (dir_ / ("codec_spill_" + codec)).string();
    ProducerBundle bundle = make_dataset_producer("SST-P1F4", 3, 0.5);
    const auto report = run_case(bundle, sc);
    EXPECT_EQ(report.sample_hash, memory_report.sample_hash) << codec;
    EXPECT_EQ(report.sampled_points, memory_report.sampled_points) << codec;
    EXPECT_EQ(report.train.test_loss, memory_report.train.test_loss)
        << codec;
    EXPECT_EQ(report.selected_snapshots, memory_report.selected_snapshots)
        << codec;
  }
}

}  // namespace
}  // namespace sickle::store
