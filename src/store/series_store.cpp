#include "store/series_store.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>

#include "common/error.hpp"
#include "stats/histogram.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace sickle::store {

namespace {

constexpr char kMagic[4] = {'S', 'K', 'L', '3'};
/// The one SKL3 layout: a trailing index of, per snapshot, its time, a
/// per-field [min, max] summary, per-field coarse histogram counts
/// (field::kCoarseHistogramBins u64s over that range), and its block
/// refs, each with an FNV-1a checksum of the block's encoded payload
/// verified before every decode. An FNV-1a checksum over the whole index
/// section sits in the header. Readers reject every other version.
constexpr std::uint32_t kVersion = 4;

/// One block ref: u64 offset | u64 bytes | u64 payload checksum.
constexpr std::uint64_t kEntryBytes = 3 * sizeof(std::uint64_t);

template <typename T>
void write_pod(std::ofstream& f, const T& v) {
  f.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_at(std::span<const std::uint8_t> buf, std::size_t& pos,
          const std::string& path) {
  if (pos + sizeof(T) > buf.size()) {
    throw RuntimeError("truncated SKL3 file: " + path);
  }
  T v{};
  std::memcpy(&v, buf.data() + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}

/// Cursor over the header region of an SKL3 file: reads a window up
/// front and grows it on demand, so a header with an arbitrarily large
/// names section (the writer puts no bound on name lengths) parses
/// without guessing its size — only a genuinely short file reports
/// truncation.
class HeaderCursor {
 public:
  HeaderCursor(const ReadOnlyFile& file, std::uint64_t file_size,
               const std::string& path)
      : file_(file), file_size_(file_size), path_(path) {
    buf_ = file_.read(0, std::min<std::uint64_t>(file_size_, 64u << 10));
  }

  template <typename T>
  T read() {
    ensure(sizeof(T));
    T v{};
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::string read_string(std::size_t len) {
    ensure(len);
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), len);
    pos_ += len;
    return s;
  }

 private:
  void ensure(std::size_t need) {
    if (pos_ + need <= buf_.size()) return;
    if (pos_ + need > file_size_) {
      throw RuntimeError("truncated SKL3 file: " + path_);
    }
    const std::uint64_t want = std::min<std::uint64_t>(
        file_size_, std::max<std::uint64_t>(2 * buf_.size(), pos_ + need));
    buf_ = file_.read(0, want);
  }

  const ReadOnlyFile& file_;
  std::uint64_t file_size_;
  const std::string& path_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace

// ---------------------------------------------------------------- writer

SeriesWriter::SeriesWriter(const std::string& path, const StoreOptions& opts)
    : path_(path),
      opts_(opts),
      codec_(make_codec(opts.codec, opts.tolerance)) {
  // Open eagerly: an unwritable path must fail at construction, not after
  // the caller simulated its first snapshot.
  out_.open(path, std::ios::binary);
  if (!out_) throw RuntimeError("cannot open for write: " + path);
}

void SeriesWriter::append(const field::Snapshot& snap) {
  obs::Span span("store.append", "store");
  SICKLE_CHECK_MSG(!closed_, "append() on a closed SeriesWriter");
  if (layout_ == nullptr) {
    // First snapshot locks grid, layout, and variable set, and writes the
    // header with placeholder index fields (patched by close()).
    layout_ = std::make_unique<ChunkLayout>(snap.shape(), opts_.chunk);
    names_ = snap.names();
    SICKLE_CHECK_MSG(!names_.empty(), "cannot store a snapshot with no fields");
    out_.write(kMagic, 4);
    write_pod<std::uint32_t>(out_, kVersion);
    write_pod<std::uint64_t>(out_, snap.shape().nx);
    write_pod<std::uint64_t>(out_, snap.shape().ny);
    write_pod<std::uint64_t>(out_, snap.shape().nz);
    write_pod<std::uint64_t>(out_, layout_->chunk_shape().nx);
    write_pod<std::uint64_t>(out_, layout_->chunk_shape().ny);
    write_pod<std::uint64_t>(out_, layout_->chunk_shape().nz);
    write_pod<std::uint8_t>(out_, static_cast<std::uint8_t>(codec_->id()));
    write_pod<double>(out_, opts_.tolerance);
    write_pod<std::uint64_t>(out_, names_.size());
    for (const auto& name : names_) {
      write_pod<std::uint32_t>(out_, static_cast<std::uint32_t>(name.size()));
      out_.write(name.data(), static_cast<std::streamsize>(name.size()));
    }
    write_pod<std::uint64_t>(out_, layout_->count());
    patch_pos_ = static_cast<std::uint64_t>(out_.tellp());
    write_pod<std::uint64_t>(out_, 0);  // index_offset: 0 = not sealed
    write_pod<std::uint64_t>(out_, 0);  // num_snapshots
    write_pod<std::uint64_t>(out_, 0);  // index checksum (patched)
    if (!out_) throw RuntimeError("error writing: " + path_);
    report_.meta_bytes = static_cast<std::size_t>(out_.tellp());
  } else {
    SICKLE_CHECK_MSG(snap.shape() == layout_->grid(),
                     "snapshot grid does not match the series");
    SICKLE_CHECK_MSG(snap.names() == names_,
                     "snapshot variables do not match the series");
  }

  const std::size_t nchunks = layout_->count();
  const std::size_t total = names_.size() * nchunks;
  times_.push_back(snap.time());
  report_.raw_bytes += snap.bytes();
  report_.chunks += total;

  // Index-resident summaries: the writer sees every value anyway, so
  // per-variable [min, max] and the coarse histogram are cheap extra scans
  // here and save the reader full passes over the series during temporal
  // selection. Fields scan in parallel on the writer's pool, each into its
  // own summary and histogram slots, so the index bytes do not depend on
  // the pool width.
  const std::size_t nfields = names_.size();
  const std::size_t first = summaries_.size();
  summaries_.resize(first + nfields);
  hists_.resize((first + nfields) * field::kCoarseHistogramBins);
  {
    obs::Span summarize("store.summarize", "store");
    parallel_for(
        nfields,
        [&](std::size_t f) {
          const auto data = snap.get(names_[f]).data();
          // Seed from +/-inf exactly like the reader-side fallback scan
          // (sampling::snapshot_pmfs), so both paths skip NaNs identically
          // — a NaN-seeded summary would silently poison the selection
          // range.
          field::VarRange r{std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
          for (const double x : data) {
            r.min = std::min(r.min, x);
            r.max = std::max(r.max, x);
          }
          summaries_[first + f] = r;
          // Coarse histogram over the snapshot's OWN range, through the
          // same stats::Histogram kernel the reader-side scan fallback
          // (sampling) uses — the kCoarseHistogramBins contract in
          // field_source.hpp — so index-resident and scanned counts are
          // bit-identical for lossless codecs. An all-NaN field has no
          // finite range and keeps zero counts (the scan fallback produces
          // the same).
          double lo = r.min;
          double hi = r.max;
          if (!(hi > lo)) {
            lo -= 0.5;
            hi += 0.5;
          }
          if (std::isfinite(lo) && std::isfinite(hi) && hi > lo) {
            stats::Histogram h(lo, hi, field::kCoarseHistogramBins);
            h.add(data);
            std::copy(h.counts().begin(), h.counts().end(),
                      hists_.begin() + static_cast<std::ptrdiff_t>(
                                           (first + f) *
                                           field::kCoarseHistogramBins));
          }
        },
        opts_.pool, /*grain=*/1);
  }

  // Stream in waves (write_blocks_in_waves, shared with the SKL2
  // writer): encode a raw-size-bounded run of blocks in parallel, flush
  // it, drop it. Peak writer memory is one wave of encoded blocks
  // (<= budget + the codec's worst-case expansion) plus codec scratch —
  // never the snapshot, never the series.
  const WaveWriteStats stats =
      write_blocks_in_waves(snap, *layout_, names_, *codec_, opts_.pool,
                            opts_.write_budget_bytes, out_, path_, index_);
  report_.payload_bytes += stats.payload_bytes;
  report_.peak_buffered_bytes =
      std::max(report_.peak_buffered_bytes, stats.peak_buffered_bytes);
  report_.encode_seconds += stats.encode_seconds;
}

SeriesWriteReport SeriesWriter::close() {
  SICKLE_CHECK_MSG(!closed_, "close() on a closed SeriesWriter");
  SICKLE_CHECK_MSG(!times_.empty(),
                   "cannot close an SKL3 series with no snapshots");
  closed_ = true;
  const std::uint64_t index_offset = static_cast<std::uint64_t>(out_.tellp());
  const std::size_t nfields = names_.size();
  const std::size_t nchunks = layout_->count();
  // Build the index section in memory (it is O(series meta), tiny next to
  // the payload) so the checksum covers exactly the bytes on disk.
  std::vector<std::uint8_t> section;
  section.reserve(times_.size() *
                  (sizeof(double) + nfields * 2 * sizeof(double) +
                   nfields * field::kCoarseHistogramBins *
                       sizeof(std::uint64_t) +
                   nfields * nchunks * kEntryBytes));
  for (std::size_t t = 0; t < times_.size(); ++t) {
    append_pod<double>(section, times_[t]);
    for (std::size_t f = 0; f < nfields; ++f) {
      const field::VarRange& r = summaries_[t * nfields + f];
      append_pod<double>(section, r.min);
      append_pod<double>(section, r.max);
    }
    const std::size_t base = t * nfields * field::kCoarseHistogramBins;
    for (std::size_t i = 0; i < nfields * field::kCoarseHistogramBins; ++i) {
      append_pod<std::uint64_t>(section, hists_[base + i]);
    }
    for (std::size_t b = 0; b < nfields * nchunks; ++b) {
      const BlockRef& ref = index_[t * nfields * nchunks + b];
      append_pod<std::uint64_t>(section, ref.offset);
      append_pod<std::uint64_t>(section, ref.bytes);
      append_pod<std::uint64_t>(section, ref.checksum);
    }
  }
  out_.write(reinterpret_cast<const char*>(section.data()),
             static_cast<std::streamsize>(section.size()));
  const std::uint64_t end = static_cast<std::uint64_t>(out_.tellp());
  // Seal the container: only now does a reader accept it. A crash before
  // this point leaves index_offset = 0, which SeriesReader rejects with a
  // "no index" error instead of reading garbage.
  out_.seekp(static_cast<std::streamoff>(patch_pos_));
  write_pod<std::uint64_t>(out_, index_offset);
  write_pod<std::uint64_t>(out_, static_cast<std::uint64_t>(times_.size()));
  write_pod<std::uint64_t>(out_,
                           fnv1a64(std::span<const std::uint8_t>(section)));
  out_.flush();
  if (!out_) throw RuntimeError("error writing: " + path_);
  out_.close();
  report_.snapshots = times_.size();
  report_.meta_bytes += static_cast<std::size_t>(end - index_offset);
  report_.file_bytes =
      static_cast<std::size_t>(std::filesystem::file_size(path_));
  return report_;
}

// ---------------------------------------------------------------- reader

SeriesReader::SeriesReader(const std::string& path, std::size_t cache_bytes,
                           std::size_t shards)
    : SeriesReader(path, ReaderOptions{cache_bytes, shards, 0, nullptr}) {}

// Member-wise teardown does the draining for a private cache:
// prefetch_group_ is the last member, so it is destroyed first and its
// TaskGroup dtor waits for in-flight readahead tasks while
// file_/cache_/index_ are still alive. A shared cache outlives the reader,
// so its blocks of this container are erased here, after the readahead
// that could re-insert them has drained.
SeriesReader::~SeriesReader() {
  if (owned_cache_ != nullptr) return;
  drain_prefetch();
  for (std::uint64_t key = 0; key < index_.size(); ++key) {
    cache_->erase(key_salt_ ^ key);
  }
}

SeriesReader::SeriesReader(const std::string& path,
                           const ReaderOptions& ropts) {
  file_ = std::make_unique<ReadOnlyFile>(path);
  const auto file_size =
      static_cast<std::uint64_t>(std::filesystem::file_size(path));
  // The fixed-size header prefix: magic + version + grid + chunk + codec
  // + tolerance + nfields.
  constexpr std::size_t kPrefix = 4 + 4 + 6 * 8 + 1 + 8 + 8;
  if (file_size < kPrefix) throw RuntimeError("truncated SKL3 file: " + path);
  HeaderCursor head(*file_, file_size, path);
  char magic[4];
  magic[0] = static_cast<char>(head.read<std::uint8_t>());
  magic[1] = static_cast<char>(head.read<std::uint8_t>());
  magic[2] = static_cast<char>(head.read<std::uint8_t>());
  magic[3] = static_cast<char>(head.read<std::uint8_t>());
  if (std::memcmp(magic, kMagic, 4) != 0) {
    throw RuntimeError("not an SKL3 series file: " + path);
  }
  if (head.read<std::uint32_t>() != kVersion) {
    throw RuntimeError("unsupported SKL3 version in " + path);
  }
  field::GridShape grid;
  grid.nx = head.read<std::uint64_t>();
  grid.ny = head.read<std::uint64_t>();
  grid.nz = head.read<std::uint64_t>();
  // Bound the extents before any product is formed: corrupt dims must
  // not overflow grid.size()/layout counts into "plausible" values.
  SICKLE_CHECK_MSG(grid.nx > 0 && grid.ny > 0 && grid.nz > 0 &&
                       grid.nx < (1ull << 21) && grid.ny < (1ull << 21) &&
                       grid.nz < (1ull << 21),
                   "implausible grid extents in SKL3");
  field::GridShape chunk;
  chunk.nx = head.read<std::uint64_t>();
  chunk.ny = head.read<std::uint64_t>();
  chunk.nz = head.read<std::uint64_t>();
  layout_ = ChunkLayout(grid, chunk);
  const auto codec_id = head.read<std::uint8_t>();
  const auto tolerance = head.read<double>();
  codec_ = make_codec(static_cast<CodecId>(codec_id), tolerance);
  codec_name_ = codec_->name();
  const auto nfields = head.read<std::uint64_t>();
  SICKLE_CHECK_MSG(nfields > 0 && nfields < 1024,
                   "implausible field count in SKL3");
  names_.reserve(nfields);
  for (std::uint64_t i = 0; i < nfields; ++i) {
    const auto len = head.read<std::uint32_t>();
    // Same corruption guard as SKL2: a bogus length must not trigger a
    // huge allocation. (The cursor itself only grows to the file size.)
    SICKLE_CHECK_MSG(len < (1u << 20), "implausible name length in SKL3");
    std::string name = head.read_string(len);
    field_index_[name] = i;
    names_.push_back(std::move(name));
  }
  const auto nchunks = head.read<std::uint64_t>();
  SICKLE_CHECK_MSG(nchunks == layout_.count(),
                   "SKL3 chunk count does not match its grid/chunk shape");
  const auto index_offset = head.read<std::uint64_t>();
  const auto num_snapshots = head.read<std::uint64_t>();
  const auto index_checksum = head.read<std::uint64_t>();
  if (index_offset == 0 || num_snapshots == 0) {
    throw RuntimeError(
        "SKL3 series has no index — the writer was not closed "
        "(crashed or truncated write): " + path);
  }
  SICKLE_CHECK_MSG(num_snapshots < (1u << 24),
                   "implausible snapshot count in SKL3");
  // Every index entry occupies kEntryBytes in the file, so the entry count
  // is bounded by file_size/kEntryBytes. Checking with divisions (never
  // products) keeps a corrupt header from overflowing the arithmetic
  // below into a small index_bytes that would slip past the bounds check.
  const std::uint64_t entry_cap = file_size / kEntryBytes;
  if (nchunks == 0 || nfields > entry_cap / nchunks ||
      num_snapshots > entry_cap / (nfields * nchunks)) {
    throw RuntimeError("SKL3 index does not fit the file (corrupt?): " +
                       path);
  }
  const std::uint64_t blocks_per_snap = nfields * nchunks;
  // Each index record carries nfields [min, max] summary doubles after
  // the snapshot time, then nfields * kCoarseHistogramBins u64 histogram
  // counts. (nfields < 1024 and num_snapshots < 2^24, so neither term can
  // overflow.)
  const std::uint64_t summary_bytes = nfields * 2 * sizeof(double);
  const std::uint64_t hist_bytes =
      nfields * field::kCoarseHistogramBins * sizeof(std::uint64_t);
  const std::uint64_t index_bytes =
      num_snapshots * (sizeof(double) + summary_bytes + hist_bytes +
                       blocks_per_snap * kEntryBytes);
  if (index_offset > file_size || index_bytes > file_size - index_offset) {
    throw RuntimeError("SKL3 index points outside the file (truncated?): " +
                       path);
  }

  const auto raw_index = file_->read(index_offset, index_bytes);
  // Verify integrity before parsing a single entry: any flipped byte in
  // the index section must fail loudly, not seek to a "plausible" offset.
  if (fnv1a64(std::span<const std::uint8_t>(raw_index)) != index_checksum) {
    throw RuntimeError("SKL3 index checksum mismatch (corrupt index): " +
                       path);
  }
  std::size_t ipos = 0;
  times_.reserve(num_snapshots);
  index_.resize(num_snapshots * blocks_per_snap);
  summaries_.reserve(num_snapshots * nfields);
  histograms_.reserve(num_snapshots * nfields * field::kCoarseHistogramBins);
  for (std::uint64_t t = 0; t < num_snapshots; ++t) {
    times_.push_back(read_at<double>(raw_index, ipos, path));
    for (std::uint64_t f = 0; f < nfields; ++f) {
      field::VarRange r;
      r.min = read_at<double>(raw_index, ipos, path);
      r.max = read_at<double>(raw_index, ipos, path);
      summaries_.push_back(r);
    }
    for (std::uint64_t i = 0; i < nfields * field::kCoarseHistogramBins;
         ++i) {
      histograms_.push_back(read_at<std::uint64_t>(raw_index, ipos, path));
    }
    for (std::uint64_t b = 0; b < blocks_per_snap; ++b) {
      BlockRef& ref = index_[t * blocks_per_snap + b];
      ref.offset = read_at<std::uint64_t>(raw_index, ipos, path);
      ref.bytes = read_at<std::uint64_t>(raw_index, ipos, path);
      ref.checksum = read_at<std::uint64_t>(raw_index, ipos, path);
      // Reject corrupt entries here rather than letting chunk() make an
      // unchecked (possibly huge) allocation later.
      if (ref.offset > file_size || ref.bytes > file_size - ref.offset) {
        throw RuntimeError("SKL3 chunk index points outside the file: " +
                           path);
      }
    }
  }
  views_.reserve(num_snapshots);
  for (std::uint64_t t = 0; t < num_snapshots; ++t) {
    views_.push_back(SeriesSnapshotView(this, t));
  }

  if (ropts.shared_cache != nullptr) {
    // Shared mode: salt every key with the container path so readers over
    // different files divide one byte budget without colliding, while
    // readers of the SAME path share decoded blocks.
    cache_ = ropts.shared_cache;
    key_salt_ = fnv1a64(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(path.data()), path.size()));
  } else {
    const std::size_t chunk_bytes =
        layout_.chunk_shape().size() * sizeof(double);
    owned_cache_ = std::make_unique<BlockCache>(ropts.cache_bytes,
                                                chunk_bytes, ropts.shards);
    cache_ = owned_cache_.get();
  }
  prefetch_depth_ = ropts.prefetch_depth;
  if (prefetch_depth_ > 0) {
    prefetch_pool_ = ropts.pool != nullptr ? ropts.pool : &ThreadPool::global();
    prefetch_group_ = std::make_unique<TaskGroup>(*prefetch_pool_);
  }
}

std::optional<field::VarRange> SeriesReader::value_range(
    std::size_t t, const std::string& var) const {
  SICKLE_CHECK(t < times_.size());
  const auto it = field_index_.find(var);
  SICKLE_CHECK_MSG(it != field_index_.end(), "unknown field: " + var);
  return summaries_[t * names_.size() + it->second];
}

std::optional<std::vector<std::uint64_t>> SeriesReader::coarse_histogram(
    std::size_t t, const std::string& var) const {
  SICKLE_CHECK(t < times_.size());
  const auto it = field_index_.find(var);
  SICKLE_CHECK_MSG(it != field_index_.end(), "unknown field: " + var);
  const std::size_t base =
      (t * names_.size() + it->second) * field::kCoarseHistogramBins;
  return std::vector<std::uint64_t>(
      histograms_.begin() + static_cast<std::ptrdiff_t>(base),
      histograms_.begin() +
          static_cast<std::ptrdiff_t>(base + field::kCoarseHistogramBins));
}

BlockCache::Block SeriesReader::load_block(std::uint64_t key) const {
  return read_block(*file_, index_[key], *codec_,
                    layout_.box(key % layout_.count()).points(), "SKL3");
}

void SeriesReader::schedule_prefetch(std::size_t t, std::size_t f,
                                     std::size_t chunk_id) const {
  const std::uint64_t nchunks = layout_.count();
  const std::uint64_t base = (t * names_.size() + f) * nchunks;
  const std::uint64_t key = base + chunk_id;
  const std::uint64_t last =
      base + std::min<std::uint64_t>(chunk_id + prefetch_depth_, nchunks - 1);
  // Claim (frontier, last] atomically: the frontier only moves forward,
  // so overlapping demand accesses on one stream issue each block at most
  // once. (Interleaved streams share the frontier — the higher-key stream
  // wins; readahead is advisory, correctness never depends on it.)
  std::uint64_t prev = prefetch_next_.load(std::memory_order_relaxed);
  while (prev < last + 1 &&
         !prefetch_next_.compare_exchange_weak(prev, last + 1,
                                               std::memory_order_relaxed)) {
  }
  const std::uint64_t first = std::max(key + 1, prev);
  for (std::uint64_t k = first; k <= last; ++k) {
    if (cache_->contains(key_salt_ ^ k)) continue;
    prefetch_group_->run([this, k] {
      try {
        cache_->insert_prefetched(key_salt_ ^ k, load_block(k));
      } catch (...) {
        // Advisory readahead: drop the failure (I/O error, corrupt
        // block); the demand path rediscovers and reports it.
      }
    });
  }
}

std::shared_ptr<const std::vector<double>> SeriesReader::chunk(
    std::size_t t, std::size_t field_index, std::size_t chunk_id) const {
  SICKLE_CHECK(t < times_.size() && field_index < names_.size() &&
               chunk_id < layout_.count());
  const std::uint64_t key =
      (t * names_.size() + field_index) * layout_.count() + chunk_id;
  bool frontier = false;
  auto values = cache_->get(
      key_salt_ ^ key,
      [&]() -> BlockCache::Block { return load_block(key); },
      prefetch_depth_ > 0 ? &frontier : nullptr);
  if (frontier) schedule_prefetch(t, field_index, chunk_id);
  return values;
}

field::Snapshot SeriesReader::load_snapshot(std::size_t t) const {
  SICKLE_CHECK(t < times_.size());
  field::Snapshot snap(layout_.grid(), times_[t]);
  for (std::size_t f = 0; f < names_.size(); ++f) {
    snap.add(names_[f], assemble_field(layout_, [&](std::size_t c) {
               return chunk(t, f, c);
             }));
  }
  return snap;
}

// ------------------------------------------------------------------ view

const field::GridShape& SeriesSnapshotView::shape() const noexcept {
  return reader_->layout_.grid();
}

std::vector<std::string> SeriesSnapshotView::variables() const {
  return reader_->names_;
}

bool SeriesSnapshotView::has(const std::string& var) const {
  return reader_->field_index_.count(var) > 0;
}

double SeriesSnapshotView::time() const noexcept {
  return reader_->times_[t_];
}

void SeriesSnapshotView::gather(const std::string& var,
                                std::span<const std::size_t> idx,
                                std::span<double> out) const {
  const auto it = reader_->field_index_.find(var);
  SICKLE_CHECK_MSG(it != reader_->field_index_.end(),
                   "unknown field: " + var);
  const std::size_t f = it->second;
  gather_runs(reader_->layout_, idx, out,
              [&](std::size_t c) { return reader_->chunk(t_, f, c); });
}

}  // namespace sickle::store
