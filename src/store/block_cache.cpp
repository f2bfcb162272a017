#include "store/block_cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sickle::store {

namespace {

/// Shard count for a cache: single shard while the budget holds only a
/// few chunks (strict global LRU, the pre-sharding behavior), doubling up
/// to 16 once every shard can still hold several chunks of its own.
std::size_t auto_shard_count(std::size_t cache_bytes,
                             std::size_t chunk_bytes) {
  std::size_t s = 1;
  while (s < 16 && cache_bytes / (2 * s) >= 4 * chunk_bytes) s *= 2;
  return s;
}

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p *= 2;
  return p;
}

}  // namespace

BlockCache::BlockCache(std::size_t cache_bytes, std::size_t chunk_bytes_hint,
                       std::size_t shards) {
  // Clamp before rounding: round_up_pow2 would loop forever past 2^63.
  shard_count_ =
      shards == 0
          ? auto_shard_count(cache_bytes,
                             std::max<std::size_t>(chunk_bytes_hint, 1))
          : round_up_pow2(std::min<std::size_t>(shards, 256));
  shard_capacity_ = std::max<std::size_t>(cache_bytes / shard_count_, 1);
  shards_ = std::make_unique<Shard[]>(shard_count_);
}

BlockCache::~BlockCache() {
  // Readers come and go per stage; the registry accumulates their cache
  // behavior across the whole run (ROADMAP D2's exported hit rates).
  if (!obs::enabled()) return;
  const CacheStats total = stats();
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("store.cache.hits").add(total.hits);
  reg.counter("store.cache.misses").add(total.misses);
  reg.counter("store.cache.evictions").add(total.evictions);
  if (total.prefetch_issued > 0) {
    reg.counter("store.prefetch.issued").add(total.prefetch_issued);
    reg.counter("store.prefetch.hits").add(total.prefetch_hits);
    reg.counter("store.prefetch.wasted").add(total.prefetch_wasted);
  }
}

void BlockCache::evict_to_budget(Shard& shard) const {
  // Evict strictly down to the shard budget — all the way to empty if a
  // single block exceeds it (callers hold the values shared_ptr, so
  // nothing dangles). Retaining a minimum entry instead would let
  // shard_count oversized blocks pin shard_count * chunk_bytes, breaking
  // the O(cache_bytes) memory contract for explicit shard counts.
  while (shard.stats.resident_bytes > shard_capacity_ &&
         !shard.map.empty()) {
    const std::uint64_t victim = shard.lru.back();
    shard.lru.pop_back();
    const auto vit = shard.map.find(victim);
    shard.stats.resident_bytes -= vit->second.values->size() * sizeof(double);
    if (vit->second.prefetched) ++shard.stats.prefetch_wasted;
    shard.map.erase(vit);
    ++shard.stats.evictions;
  }
}

BlockCache::Block BlockCache::insert(Shard& shard, std::uint64_t key,
                                     Block values) const {
  std::lock_guard lock(shard.mu);
  if (const auto it = shard.map.find(key); it != shard.map.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    return it->second.values;
  }
  shard.lru.push_front(key);
  shard.map[key] = Entry{values, shard.lru.begin(), false};
  shard.stats.resident_bytes += values->size() * sizeof(double);
  evict_to_budget(shard);
  return values;
}

void BlockCache::insert_prefetched(std::uint64_t key, Block values) const {
  Shard& shard = shards_[key & (shard_count_ - 1)];
  std::lock_guard lock(shard.mu);
  ++shard.stats.prefetch_issued;
  // A demand load (or an earlier prefetch) won the race: keep it, and do
  // not refresh its LRU position — only demand access is recency.
  if (shard.map.find(key) != shard.map.end()) return;
  const std::size_t bytes = values->size() * sizeof(double);
  shard.lru.push_front(key);
  shard.map[key] = Entry{std::move(values), shard.lru.begin(), true};
  shard.stats.resident_bytes += bytes;
  evict_to_budget(shard);
}

void BlockCache::erase(std::uint64_t key) const {
  Shard& shard = shards_[key & (shard_count_ - 1)];
  std::lock_guard lock(shard.mu);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) return;
  shard.stats.resident_bytes -= it->second.values->size() * sizeof(double);
  if (it->second.prefetched) ++shard.stats.prefetch_wasted;
  shard.lru.erase(it->second.lru_it);
  shard.map.erase(it);
}

bool BlockCache::contains(std::uint64_t key) const {
  Shard& shard = shards_[key & (shard_count_ - 1)];
  std::lock_guard lock(shard.mu);
  return shard.map.find(key) != shard.map.end();
}

CacheStats BlockCache::stats() const {
  CacheStats total;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    std::lock_guard lock(shards_[s].mu);
    total.hits += shards_[s].stats.hits;
    total.misses += shards_[s].stats.misses;
    total.evictions += shards_[s].stats.evictions;
    total.resident_bytes += shards_[s].stats.resident_bytes;
    total.prefetch_issued += shards_[s].stats.prefetch_issued;
    total.prefetch_hits += shards_[s].stats.prefetch_hits;
    total.prefetch_wasted += shards_[s].stats.prefetch_wasted;
  }
  return total;
}

ReadOnlyFile::ReadOnlyFile(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) throw RuntimeError("cannot open for read: " + path);
}

ReadOnlyFile::~ReadOnlyFile() {
  if (obs::enabled() && bytes_read() > 0) {
    obs::MetricsRegistry::global()
        .counter("store.io.bytes_read")
        .add(bytes_read());
  }
  if (fd_ >= 0) ::close(fd_);
}

std::vector<std::uint8_t> ReadOnlyFile::read(std::uint64_t offset,
                                             std::uint64_t bytes) const {
  std::vector<std::uint8_t> block(bytes);
  std::size_t got = 0;
  while (got < bytes) {
    const ssize_t r = ::pread(fd_, block.data() + got, bytes - got,
                              static_cast<off_t>(offset + got));
    if (r < 0 && errno == EINTR) continue;  // interrupted, not truncated
    if (r <= 0) throw RuntimeError("truncated store file: " + path_);
    got += static_cast<std::size_t>(r);
  }
  bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
  return block;
}

}  // namespace sickle::store
