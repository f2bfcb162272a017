/// @file snapshot_store.hpp
/// @brief SKL2 chunked compressed snapshot container: parallel writer and
/// LRU-cached streaming reader.
///
/// SKL2 splits every field of a snapshot into fixed-size 3D chunks,
/// encodes each chunk independently with a pluggable codec (see
/// codec.hpp), and keeps a chunk index so readers fetch only the blocks
/// a query touches, never loading the whole snapshot into RAM. ChunkReader
/// implements field::FieldSource, so the sampling pipeline streams samples
/// out-of-core via sampling::run_pipeline_streaming with memory bounded by
/// the reader's block cache, never the grid. For multi-snapshot time
/// series, the SKL3 container (series_store.hpp) amortizes one header and
/// index over the whole series. SKL2 has one layout, version 3: the writer
/// emits it and the reader rejects every other version. Layout spec:
/// docs/STORE.md.
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

namespace sickle::store {

/// Writer-side knobs; also carried by sickle::CaseConfig for the config
/// driven "skl2"/"series" backends.
struct StoreOptions {
  field::GridShape chunk{32, 32, 32};  ///< nominal chunk edge lengths
  /// "raw" | "delta" | "quant" | "gorilla" | "zstd" (zstd only in builds
  /// with -DSICKLE_WITH_ZSTD=ON); see codec.hpp.
  std::string codec = "delta";
  double tolerance = 1e-6;             ///< quant max abs error
  std::size_t cache_bytes = 64ull << 20;  ///< reader block-cache capacity
  /// Reader-side async readahead depth (SKL3 SeriesReader): decode the
  /// next N blocks of a stream on the pool while the current one is
  /// consumed. 0 = off. Values are bit-identical either way; only decode
  /// timing changes.
  std::size_t prefetch_depth = 0;
  ThreadPool* pool = nullptr;          ///< encode pool; nullptr = global()
  /// Streaming-writer budget (SKL2 write_store and SKL3 SeriesWriter):
  /// encoded blocks are flushed to disk in waves whose raw input stays
  /// under this bound, so writer memory is O(budget + codec scratch)
  /// instead of O(snapshot).
  std::size_t write_budget_bytes = 8ull << 20;
  /// Reader-side: decode into this externally owned BlockCache instead of
  /// a per-reader one (SKL3 SeriesReader only; keys are salted with a
  /// per-file hash so readers of different containers can share it).
  /// nullptr = each reader owns a private cache of `cache_bytes`. The
  /// cache must outlive every reader using it — CaseSession points this
  /// at its process-global session cache.
  BlockCache* shared_cache = nullptr;
};

/// What write_store did, for benches and storage accounting.
struct StoreWriteReport {
  std::size_t file_bytes = 0;     ///< total container size on disk
  std::size_t payload_bytes = 0;  ///< encoded chunk payload only
  std::size_t raw_bytes = 0;      ///< nfields * grid points * sizeof(double)
  std::size_t chunks = 0;         ///< blocks written (nfields * layout count)
  /// Wall time in chunk extraction + encode + block checksums.
  double encode_seconds = 0.0;
  /// High-water mark of encoded blocks buffered in memory: one
  /// write-budget-bounded wave, never the whole payload.
  std::size_t peak_buffered_bytes = 0;

  [[nodiscard]] double compression_ratio() const noexcept {
    return file_bytes == 0 ? 0.0
                           : static_cast<double>(raw_bytes) /
                                 static_cast<double>(file_bytes);
  }
};

/// Write `snap` as an SKL2 container. Chunks are encoded in parallel on
/// `opts.pool` (ThreadPool::global() by default). Throws RuntimeError on
/// I/O failure.
StoreWriteReport write_store(const field::Snapshot& snap,
                             const std::string& path,
                             const StoreOptions& opts = {});

/// One encoded block's location inside a container file — the index entry
/// shared by the SKL2 and SKL3 trailing indexes. `checksum` (FNV-1a of the
/// encoded payload bytes) is serialized with every entry and verified
/// before every decode, so a flipped payload bit fails loudly instead of
/// decoding to silently wrong values.
struct BlockRef {
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;
};

/// What one wave-streamed snapshot write did (summed into the writers'
/// reports).
struct WaveWriteStats {
  std::size_t payload_bytes = 0;
  std::size_t peak_buffered_bytes = 0;
  /// Chunk extraction + encode + block checksum only, no I/O.
  double encode_seconds = 0.0;
};

/// The shared streaming scheme behind write_store and
/// SeriesWriter::append: encode one snapshot's (field, chunk) blocks in
/// parallel waves whose raw input stays under `budget_bytes` (floored at
/// one chunk), flush each wave to `out`, and append a BlockRef per block
/// to `index`. Each pool task encodes a contiguous run of blocks and then
/// checksums the run four blocks at a time (fnv1a64_many); the bytes
/// written do not depend on the pool width. Peak writer memory is one
/// wave of encoded blocks — never the snapshot. Throws RuntimeError on
/// I/O failure.
WaveWriteStats write_blocks_in_waves(const field::Snapshot& snap,
                                     const ChunkLayout& layout,
                                     const std::vector<std::string>& names,
                                     const Codec& codec, ThreadPool* pool,
                                     std::size_t budget_bytes,
                                     std::ofstream& out,
                                     const std::string& path,
                                     std::vector<BlockRef>& index);

/// The reader-side twin of write_blocks_in_waves, shared by
/// ChunkReader::chunk and the SeriesReader block loads: read the block at
/// `ref`, verify its payload checksum, and decode its `points` values.
/// `container` ("SKL2" or "SKL3") names the format in the checksum error.
/// Throws RuntimeError on a short read or a checksum mismatch, and the
/// codec's typed errors on a malformed block.
[[nodiscard]] BlockCache::Block read_block(const ReadOnlyFile& file,
                                           const BlockRef& ref,
                                           const Codec& codec,
                                           std::size_t points,
                                           const char* container);

/// Streaming reader over an SKL2 container.
///
/// Chunks decode on demand and live in a byte-bounded LRU cache, so any
/// access pattern — full-field scans, per-cube gathers, random point
/// lookups — runs in O(request + cache) memory, and one gather decodes
/// each chunk it touches at most once, however small the cache.
/// Implements field::FieldSource, which is all the sampling pipeline
/// needs.
///
/// Thread-safety contract: one ChunkReader may be shared by any number of
/// threads calling gather()/chunk()/load_field() concurrently. The block
/// cache is a store::BlockCache — power-of-two shards, each with its own
/// mutex, LRU list, and slice of the byte budget, keyed by chunk id — and
/// file reads use pread(2), which carries no shared seek state. The
/// parallel streaming pipeline (PipelineConfig::threads != 1) drives
/// exactly this: many workers gathering cubes from one shared reader.
/// Construction and destruction are not concurrent-safe with use, as
/// usual.
class ChunkReader final : public field::FieldSource {
 public:
  /// `shards` = 0 picks a shard count automatically: 1 for caches only a
  /// few chunks deep (preserving strict global LRU behavior), up to 16 as
  /// the cache-to-chunk ratio grows. Explicit values round up to the next
  /// power of two. Throws RuntimeError for another SKL2 version, an
  /// incomplete write, or an index that cannot fit the file — checked
  /// before the index is sized — and CheckError for implausible header
  /// fields.
  explicit ChunkReader(const std::string& path,
                       std::size_t cache_bytes = 64ull << 20,
                       std::size_t shards = 0);

  ChunkReader(const ChunkReader&) = delete;
  ChunkReader& operator=(const ChunkReader&) = delete;

  // FieldSource interface.
  [[nodiscard]] const field::GridShape& shape() const noexcept override {
    return layout_.grid();
  }
  [[nodiscard]] std::vector<std::string> variables() const override {
    return names_;
  }
  [[nodiscard]] bool has(const std::string& var) const override {
    return field_index_.count(var) > 0;
  }
  /// Values of `var` at `idx`, in request order, through
  /// store::gather_runs: each distinct chunk is fetched from the cache once
  /// per call whatever the index order, with O(runs) scratch. Throws
  /// CheckError for an unknown field or an index outside the grid.
  void gather(const std::string& var, std::span<const std::size_t> idx,
              std::span<double> out) const override;
  using field::FieldSource::gather;
  [[nodiscard]] double time() const noexcept override { return time_; }

  [[nodiscard]] const ChunkLayout& layout() const noexcept { return layout_; }
  [[nodiscard]] const std::string& codec_name() const noexcept {
    return codec_name_;
  }
  [[nodiscard]] std::size_t num_fields() const noexcept {
    return names_.size();
  }
  /// Decoded values of one chunk of one field, in the chunk's z-fastest
  /// order. The pointer stays valid after eviction (shared ownership).
  [[nodiscard]] std::shared_ptr<const std::vector<double>> chunk(
      std::size_t field_index, std::size_t chunk_id) const;

  /// Materialize one full field (streams every chunk once, through
  /// store::assemble_field).
  [[nodiscard]] std::vector<double> load_field(const std::string& var) const;

  /// Materialize the whole snapshot — for tests and small grids; defeats
  /// the purpose on larger-than-RAM stores.
  [[nodiscard]] field::Snapshot load_snapshot() const;

  using CacheStats = store::CacheStats;
  /// Aggregated over all shards (locks each shard briefly).
  [[nodiscard]] CacheStats cache_stats() const { return cache_->stats(); }

  /// Lifetime pread(2) bytes (payload + checksummed blocks) — mirrors
  /// SeriesReader::io_bytes_read() so cache-pressure re-reads are
  /// observable on the SKL2 path too.
  [[nodiscard]] std::uint64_t io_bytes_read() const noexcept {
    return file_->bytes_read();
  }

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return cache_->shard_count();
  }

 private:
  std::unique_ptr<ReadOnlyFile> file_;
  ChunkLayout layout_{{1, 1, 1}, {1, 1, 1}};
  double time_ = 0.0;
  std::vector<std::string> names_;
  std::map<std::string, std::size_t> field_index_;
  std::unique_ptr<Codec> codec_;
  std::string codec_name_;
  std::vector<BlockRef> index_;  ///< [field * layout.count() + chunk]
  std::unique_ptr<BlockCache> cache_;
};

}  // namespace sickle::store
