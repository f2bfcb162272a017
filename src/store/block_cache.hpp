/// @file block_cache.hpp
/// @brief Sharded byte-bounded LRU block cache + pread(2) file access,
/// shared by the SKL2 ChunkReader and the SKL3 SeriesReader.
///
/// The cache maps a 64-bit block key to the decoded values of one chunk.
/// It is split into power-of-two shards (each with its own mutex, LRU
/// list, and an equal slice of the byte budget), so any number of threads
/// may call get() concurrently and workers streaming different chunks
/// rarely contend. Loads (I/O + decode) run outside the shard lock; a
/// rare concurrent same-key miss loads twice and the first insert wins.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace sickle::store {

/// Aggregated cache counters (see BlockCache::stats).
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t resident_bytes = 0;
  /// Async readahead accounting (SeriesReader prefetch): blocks decoded
  /// ahead of demand and offered via insert_prefetched, demand hits
  /// served by such a block, and prefetched blocks evicted before any
  /// demand hit (decode work thrown away). issued - hits - wasted =
  /// prefetched blocks still resident (or raced by a demand load).
  std::size_t prefetch_issued = 0;
  std::size_t prefetch_hits = 0;
  std::size_t prefetch_wasted = 0;
};

/// Thread-safe sharded LRU cache of decoded chunk blocks.
class BlockCache {
 public:
  /// `shards` = 0 picks a shard count automatically from the
  /// cache-to-chunk ratio: 1 for caches only a few chunks deep
  /// (preserving strict global LRU behavior), up to 16 as the budget
  /// grows. Explicit values round up to the next power of two (capped at
  /// 256). `chunk_bytes_hint` is the decoded size of a typical block.
  BlockCache(std::size_t cache_bytes, std::size_t chunk_bytes_hint,
             std::size_t shards = 0);

  /// Publishes the final hit/miss/eviction tallies onto the global
  /// metrics registry (`store.cache.*`) when observability is enabled.
  ~BlockCache();

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  using Block = std::shared_ptr<const std::vector<double>>;

  /// Return the cached block for `key`, or call `load` (unlocked) and
  /// insert the result. Eviction is strict per shard: resident bytes
  /// never exceed the budget, all the way down to retaining nothing when
  /// a single block exceeds a shard's slice (callers hold the returned
  /// shared_ptr, so nothing dangles). Templated over the loader so the
  /// cache-hit path stays allocation-free — chunk() sits on the gather
  /// hot path, and a std::function would heap-allocate per call.
  ///
  /// The optional `frontier` out-param is set true when this get advanced
  /// the demand frontier — a miss, or the first demand hit on a block that
  /// arrived via insert_prefetched — the signal readers use to schedule
  /// further readahead (hits on already-demanded blocks set it false, so
  /// revisits never re-issue prefetch).
  template <typename Load>
  [[nodiscard]] Block get(std::uint64_t key, Load&& load,
                          bool* frontier = nullptr) const {
    Shard& shard = shards_[key & (shard_count_ - 1)];
    {
      std::lock_guard lock(shard.mu);
      if (const auto it = shard.map.find(key); it != shard.map.end()) {
        ++shard.stats.hits;
        if (it->second.prefetched) {
          it->second.prefetched = false;
          ++shard.stats.prefetch_hits;
          if (frontier) *frontier = true;
        } else if (frontier) {
          *frontier = false;
        }
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
        return it->second.values;
      }
      ++shard.stats.misses;
    }
    if (frontier) *frontier = true;
    // I/O and decode run unlocked so same-shard workers stay parallel on
    // misses; two threads may load the same block concurrently, and
    // insert() keeps the first one.
    return insert(shard, key, load());
  }

  /// Offer a block decoded ahead of demand (async readahead). Tagged so
  /// the first demand get() counts a prefetch hit and eviction before any
  /// hit counts it wasted. A block already resident is left untouched
  /// (the demand load won the race; its LRU position is not refreshed).
  void insert_prefetched(std::uint64_t key, Block values) const;

  /// Drop `key` if resident: for blocks of a container no reader will
  /// open again. Not counted as an eviction; a prefetched block never
  /// demanded counts as wasted, as it would at eviction.
  void erase(std::uint64_t key) const;

  /// True when `key` is resident right now — an advisory check prefetch
  /// schedulers use to skip already-cached blocks (racy by nature: the
  /// answer can be stale by the time the caller acts on it).
  [[nodiscard]] bool contains(std::uint64_t key) const;

  /// Aggregated over all shards (locks each shard briefly).
  [[nodiscard]] CacheStats stats() const;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shard_count_;
  }

 private:
  struct Entry {
    Block values;
    std::list<std::uint64_t>::iterator lru_it;
    /// Arrived via insert_prefetched and not yet demanded — cleared by the
    /// first demand get() (prefetch hit); still set at eviction = wasted.
    bool prefetched = false;
  };
  /// One cache shard: independent mutex, LRU list, map, stats, and an
  /// equal slice of the byte budget. Shard choice is a mask over the
  /// block key, so consecutive chunk ids land on different shards.
  struct Shard {
    mutable std::mutex mu;
    std::list<std::uint64_t> lru;  ///< front = most recently used
    std::unordered_map<std::uint64_t, Entry> map;
    CacheStats stats;
  };

  /// Insert a freshly loaded block (first insert wins on a concurrent
  /// same-key miss) and evict down to the shard budget.
  [[nodiscard]] Block insert(Shard& shard, std::uint64_t key,
                             Block values) const;
  /// Evict LRU entries until the shard fits its byte budget (caller holds
  /// the shard lock); prefetched-and-never-hit victims count as wasted.
  void evict_to_budget(Shard& shard) const;

  std::size_t shard_count_ = 1;
  std::size_t shard_capacity_ = 0;  ///< byte budget per shard
  std::unique_ptr<Shard[]> shards_;
};

/// Read-only file with positional reads: pread(2) carries no shared seek
/// state, so concurrent readers never serialize on the descriptor.
class ReadOnlyFile {
 public:
  /// Opens O_RDONLY; throws RuntimeError when the file cannot be opened.
  explicit ReadOnlyFile(const std::string& path);

  /// Publishes the lifetime bytes_read() tally onto the global metrics
  /// registry (`store.io.bytes_read`) when observability is enabled.
  ~ReadOnlyFile();

  ReadOnlyFile(const ReadOnlyFile&) = delete;
  ReadOnlyFile& operator=(const ReadOnlyFile&) = delete;

  /// Read exactly `bytes` at `offset`; throws RuntimeError on short reads
  /// (a truncated container) or I/O errors.
  [[nodiscard]] std::vector<std::uint8_t> read(std::uint64_t offset,
                                               std::uint64_t bytes) const;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Total bytes fetched through read() over the file's lifetime — the
  /// I/O accounting behind "selection scans the payload once" assertions.
  [[nodiscard]] std::uint64_t bytes_read() const noexcept {
    return bytes_read_.load(std::memory_order_relaxed);
  }

 private:
  std::string path_;
  int fd_ = -1;
  mutable std::atomic<std::uint64_t> bytes_read_{0};
};

}  // namespace sickle::store
