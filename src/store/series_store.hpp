/// @file series_store.hpp
/// @brief SKL3 multi-snapshot series container: streaming writer and a
/// SeriesSource reader with per-snapshot FieldSource views.
///
/// SKL2 (snapshot_store.hpp) stores one snapshot per file, so a T-step
/// time series pays T headers and T chunk indexes and every consumer must
/// juggle T paths. SKL3 puts the time axis into the chunk key: one
/// header, one index, blocks addressed by (snapshot, field, chunk). The
/// writer is *streaming* — encoded blocks are flushed to disk in waves
/// bounded by StoreOptions::write_budget_bytes as snapshots are appended,
/// and the index is written and patched into the header only on close(),
/// so writer memory stays O(budget + codec scratch + index) no matter how
/// long the series grows. A file whose writer crashed before close() has
/// no index and is rejected by SeriesReader with a clear error.
///
/// SKL3 has one layout, version 4: the writer emits it and the reader
/// rejects every other version. Each snapshot's index record carries
/// *index-resident summaries* computed while the writer already sees every
/// value — per-variable exact [min, max] (value_range) and *coarse
/// histogram* counts (field::kCoarseHistogramBins bins over that range,
/// coarse_histogram) — so temporal selection on a sealed series seeds its
/// novelty ranking with zero payload decodes. An FNV-1a checksum covers
/// the whole index section, and each block ref carries a checksum of its
/// encoded bytes, so a corrupted index or block fails with a clear error
/// instead of decoding garbage. Layout spec: docs/STORE.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "field/field.hpp"
#include "field/field_source.hpp"
#include "parallel/thread_pool.hpp"
#include "store/block_cache.hpp"
#include "store/chunk_layout.hpp"
#include "store/codec.hpp"
#include "store/snapshot_store.hpp"

namespace sickle::store {

/// How a SeriesReader caches and prefetches decoded blocks.
struct ReaderOptions {
  std::size_t cache_bytes = 64ull << 20;  ///< decoded-block LRU budget
  std::size_t shards = 0;                 ///< 0 = auto (see BlockCache)
  /// Async readahead depth: when a demand access advances into a new
  /// block, the next `prefetch_depth` blocks of the same snapshot+field
  /// are read and decoded on the pool while the caller consumes the
  /// current one. 0 disables readahead entirely (no pool touched, no
  /// extra threads) — and prefetch NEVER changes decoded values, only
  /// when they are decoded, so results are bit-identical either way.
  std::size_t prefetch_depth = 0;
  /// Pool running prefetch decodes; nullptr = ThreadPool::global().
  /// Ignored when prefetch_depth == 0.
  ThreadPool* pool = nullptr;
  /// Decode into this externally owned cache instead of a private one.
  /// Keys are salted with an FNV-1a hash of the container path, so any
  /// number of readers over different files share one byte budget without
  /// key collisions (same-file readers share decoded blocks). The cache
  /// must outlive the reader, which erases its blocks when destroyed;
  /// `cache_bytes`/`shards` are ignored when set. cache_stats() then
  /// reports the shared cache's lifetime tallies.
  BlockCache* shared_cache = nullptr;
};

/// What a SeriesWriter did, returned by close().
struct SeriesWriteReport {
  std::size_t file_bytes = 0;     ///< total container size on disk
  std::size_t payload_bytes = 0;  ///< encoded chunk payload only
  std::size_t raw_bytes = 0;      ///< snapshots * nfields * points * 8
  std::size_t chunks = 0;         ///< blocks written
  std::size_t snapshots = 0;      ///< appended snapshot count
  /// Header + per-series chunk index bytes — the fixed cost one SKL3
  /// container amortizes over the whole series (vs one per SKL2 file).
  std::size_t meta_bytes = 0;
  /// High-water mark of encoded blocks buffered in memory at any point —
  /// the streaming guarantee: bounded by write_budget_bytes (plus one
  /// wave's codec expansion), never by the series size.
  std::size_t peak_buffered_bytes = 0;
  /// Wall time in chunk extraction + encode + block checksum.
  double encode_seconds = 0.0;

  [[nodiscard]] double compression_ratio() const noexcept {
    return file_bytes == 0 ? 0.0
                           : static_cast<double>(raw_bytes) /
                                 static_cast<double>(file_bytes);
  }
};

/// Streaming SKL3 writer: append snapshots one at a time, close() to seal.
///
/// The grid shape, variable set, and codec are locked in by the first
/// append(); later snapshots must match. Encoded blocks are written as
/// they encode (in raw-size-bounded waves, parallel on opts.pool), so
/// appending a series much larger than the write budget never grows the
/// writer's memory. close() writes the per-snapshot time + chunk index
/// section and patches its offset into the header; a writer destroyed
/// without close() leaves a file with no index, which SeriesReader
/// detects and rejects.
class SeriesWriter {
 public:
  SeriesWriter(const std::string& path, const StoreOptions& opts = {});
  ~SeriesWriter() = default;

  SeriesWriter(const SeriesWriter&) = delete;
  SeriesWriter& operator=(const SeriesWriter&) = delete;

  /// Encode and stream one snapshot's blocks to disk. Throws RuntimeError
  /// on I/O failure and CheckError on shape/variable mismatch or append
  /// after close.
  void append(const field::Snapshot& snap);

  /// Write the index, patch the header, flush, and return the report.
  /// Requires at least one appended snapshot.
  SeriesWriteReport close();

  [[nodiscard]] bool closed() const noexcept { return closed_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  StoreOptions opts_;
  std::ofstream out_;
  std::unique_ptr<Codec> codec_;
  std::unique_ptr<ChunkLayout> layout_;  ///< set by the first append
  std::vector<std::string> names_;
  std::uint64_t patch_pos_ = 0;  ///< header position of index_offset
  std::vector<double> times_;    ///< one per appended snapshot
  std::vector<BlockRef> index_;  ///< [(t * nfields + f) * nchunks + c]
  std::vector<field::VarRange> summaries_;  ///< [t * nfields + f]
  /// Coarse histogram counts:
  /// [(t * nfields + f) * field::kCoarseHistogramBins + bin].
  std::vector<std::uint64_t> hists_;
  SeriesWriteReport report_;
  bool closed_ = false;
};

class SeriesReader;

/// Lightweight FieldSource view of one snapshot inside an SKL3 container.
/// Borrowed from SeriesReader; shares its block cache and file handle.
class SeriesSnapshotView final : public field::FieldSource {
 public:
  [[nodiscard]] const field::GridShape& shape() const noexcept override;
  [[nodiscard]] std::vector<std::string> variables() const override;
  [[nodiscard]] bool has(const std::string& var) const override;
  /// Values of `var` at `idx` in snapshot t, in request order — the same
  /// store::gather_runs as ChunkReader::gather: each distinct chunk is
  /// fetched from the shared cache once per call whatever the index
  /// order, with O(runs) scratch. Throws CheckError for an unknown field
  /// or an index outside the grid.
  void gather(const std::string& var, std::span<const std::size_t> idx,
              std::span<double> out) const override;
  using field::FieldSource::gather;
  [[nodiscard]] double time() const noexcept override;

  [[nodiscard]] std::size_t snapshot_index() const noexcept { return t_; }

 private:
  friend class SeriesReader;
  SeriesSnapshotView(const SeriesReader* reader, std::size_t t) noexcept
      : reader_(reader), t_(t) {}

  const SeriesReader* reader_;
  std::size_t t_;
};

/// Streaming reader over an SKL3 series container.
///
/// Implements field::SeriesSource: source(t) exposes snapshot t as a
/// FieldSource view, so the sampling pipeline, temporal selection, and
/// the case orchestrator run over a series on disk exactly as over an
/// in-memory Dataset. All views share one sharded byte-bounded LRU block
/// cache (store::BlockCache) and one pread(2) descriptor, so the whole
/// series streams in O(cache) memory and any number of threads may
/// gather from any mix of snapshots concurrently — the same contract as
/// ChunkReader, now with a time axis.
class SeriesReader final : public field::SeriesSource {
 public:
  explicit SeriesReader(const std::string& path,
                        std::size_t cache_bytes = 64ull << 20,
                        std::size_t shards = 0);
  /// Full-options form; the (path, cache_bytes, shards) overload is
  /// shorthand for ReaderOptions with readahead off.
  SeriesReader(const std::string& path, const ReaderOptions& opts);
  /// Drains in-flight prefetch tasks before any member is torn down; on a
  /// shared cache it then erases this container's blocks (a live reader
  /// of the same path reloads them on demand).
  ~SeriesReader() override;

  SeriesReader(const SeriesReader&) = delete;
  SeriesReader& operator=(const SeriesReader&) = delete;

  // SeriesSource interface.
  [[nodiscard]] std::size_t num_snapshots() const override {
    return times_.size();
  }
  [[nodiscard]] const field::FieldSource& source(
      std::size_t t) const override {
    SICKLE_CHECK(t < views_.size());
    return views_[t];
  }
  [[nodiscard]] double time(std::size_t t) const override {
    SICKLE_CHECK(t < times_.size());
    return times_[t];
  }
  /// Index-resident summary: exact per-snapshot [min, max] of one
  /// variable, read from the index without touching the payload. Always
  /// present; throws CheckError for an unknown variable. For the lossy
  /// quant codec the summary reflects the pre-encode values (within codec
  /// tolerance of the decoded ones).
  [[nodiscard]] std::optional<field::VarRange> value_range(
      std::size_t t, const std::string& var) const override;
  /// Index-resident coarse histogram: counts of the canonical
  /// field::kCoarseHistogramBins-bin histogram of one variable over its
  /// stored per-snapshot [min, max], read from the index without touching
  /// the payload. Always present; same quant-codec caveat as
  /// value_range: counts describe the pre-encode values.
  [[nodiscard]] std::optional<std::vector<std::uint64_t>> coarse_histogram(
      std::size_t t, const std::string& var) const override;

  [[nodiscard]] const field::GridShape& shape() const noexcept {
    return layout_.grid();
  }
  [[nodiscard]] const ChunkLayout& layout() const noexcept { return layout_; }
  [[nodiscard]] std::vector<std::string> variables() const {
    return names_;
  }
  [[nodiscard]] const std::string& codec_name() const noexcept {
    return codec_name_;
  }
  [[nodiscard]] std::size_t num_fields() const noexcept {
    return names_.size();
  }

  /// Decoded values of one chunk of one field of one snapshot, z-fastest
  /// within the chunk. Valid after eviction (shared ownership). When
  /// readahead is on (ReaderOptions::prefetch_depth > 0) a demand access
  /// that advances into a new block also schedules async decodes of the
  /// following blocks of the same snapshot+field — identical values,
  /// earlier decode.
  [[nodiscard]] std::shared_ptr<const std::vector<double>> chunk(
      std::size_t t, std::size_t field_index, std::size_t chunk_id) const;

  /// Materialize one snapshot — for tests and small grids.
  [[nodiscard]] field::Snapshot load_snapshot(std::size_t t) const;

  using CacheStats = store::CacheStats;
  [[nodiscard]] CacheStats cache_stats() const { return cache_->stats(); }
  /// Block until every queued readahead decode has landed in the cache —
  /// deterministic prefetch counters for tests/benches; demand reads
  /// never need it (they load any block not yet resident themselves).
  void drain_prefetch() const {
    if (prefetch_group_) prefetch_group_->wait();
  }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return cache_->shard_count();
  }
  /// Total bytes fetched from the file since open (header + index +
  /// payload) — I/O accounting for single-pass assertions.
  [[nodiscard]] std::uint64_t io_bytes_read() const noexcept {
    return file_->bytes_read();
  }

 private:
  friend class SeriesSnapshotView;

  /// Read + decode one block by its unsalted flat index key, through
  /// store::read_block (no cache interaction).
  [[nodiscard]] BlockCache::Block load_block(std::uint64_t key) const;
  /// Queue async decodes of the blocks after `chunk_id` in (t, f) — up to
  /// prefetch_depth_, clipped to the snapshot+field, skipping resident
  /// blocks and keys behind the monotone issue frontier (so overlapping
  /// demand accesses never double-issue). Advisory: task failures are
  /// swallowed; the demand path rediscovers and reports them.
  void schedule_prefetch(std::size_t t, std::size_t f,
                         std::size_t chunk_id) const;

  std::unique_ptr<ReadOnlyFile> file_;
  ChunkLayout layout_{{1, 1, 1}, {1, 1, 1}};
  std::vector<std::string> names_;
  std::map<std::string, std::size_t> field_index_;
  std::unique_ptr<Codec> codec_;
  std::string codec_name_;
  std::vector<double> times_;
  std::vector<BlockRef> index_;  ///< [(t * nfields + f) * nchunks + c]
  std::vector<field::VarRange> summaries_;  ///< [t * nfields + f]
  /// Coarse histogram counts:
  /// [(t * nfields + f) * field::kCoarseHistogramBins + bin].
  std::vector<std::uint64_t> histograms_;
  std::vector<SeriesSnapshotView> views_;  ///< one borrowable view per t
  std::unique_ptr<BlockCache> owned_cache_;  ///< null when sharing
  BlockCache* cache_ = nullptr;  ///< owned_cache_.get() or the shared one
  /// XORed into every cache key (0 for a private cache; fnv1a64 of the
  /// container path when sharing) so distinct files never collide in a
  /// shared cache. load_block() always takes the UNsalted flat key.
  std::uint64_t key_salt_ = 0;
  std::size_t prefetch_depth_ = 0;
  ThreadPool* prefetch_pool_ = nullptr;
  /// Highest block key ever queued for readahead, plus one — a monotone
  /// frontier so interleaved demand accesses on one stream issue each
  /// block at most once.
  mutable std::atomic<std::uint64_t> prefetch_next_{0};
  /// MUST stay the last member: its destruction (first, in reverse
  /// declaration order) waits for in-flight prefetch tasks, which touch
  /// file_/cache_/index_ — all still alive at that point.
  mutable std::unique_ptr<TaskGroup> prefetch_group_;
};

}  // namespace sickle::store
