#include "store/snapshot_store.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sickle::store {

namespace {

/// Fold one encode/decode interval onto the registry's codec seconds
/// (the counters the scattered StoreWriteReport fields migrate onto).
void add_codec_seconds(const char* which, double seconds) {
  obs::MetricsRegistry::global().gauge(which).add(seconds);
}

constexpr char kMagic[4] = {'S', 'K', 'L', '2'};
/// The one SKL2 layout: a header whose index_offset is patched on
/// completion, blocks streamed to disk in write-budget-bounded waves, and
/// a trailing index whose entries carry an FNV-1a checksum of each
/// block's encoded bytes, verified before every decode. Readers reject
/// every other version.
constexpr std::uint32_t kVersion = 3;

/// One index entry: u64 offset | u64 bytes | u64 payload checksum.
constexpr std::uint64_t kEntryBytes = 3 * sizeof(std::uint64_t);

template <typename T>
void write_pod(std::ofstream& f, const T& v) {
  f.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::ifstream& f) {
  T v{};
  f.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!f) throw RuntimeError("truncated SKL2 file");
  return v;
}

}  // namespace

WaveWriteStats write_blocks_in_waves(const field::Snapshot& snap,
                                     const ChunkLayout& layout,
                                     const std::vector<std::string>& names,
                                     const Codec& codec, ThreadPool* pool,
                                     std::size_t budget_bytes,
                                     std::ofstream& out,
                                     const std::string& path,
                                     std::vector<BlockRef>& index) {
  const std::size_t nchunks = layout.count();
  const std::size_t total = names.size() * nchunks;
  const std::size_t budget = std::max<std::size_t>(
      budget_bytes, layout.box(0).points() * sizeof(double));
  WaveWriteStats stats;
  std::size_t wave_begin = 0;
  while (wave_begin < total) {
    std::size_t wave_end = wave_begin;
    std::size_t wave_raw = 0;
    while (wave_end < total) {
      const std::size_t raw =
          layout.box(wave_end % nchunks).points() * sizeof(double);
      if (wave_end > wave_begin && wave_raw + raw > budget) break;
      wave_raw += raw;
      ++wave_end;
    }
    // Each worker encodes its run of blocks, then checksums the run four
    // blocks at a time (fnv1a64_many), so the caller's flush below is
    // pure I/O.
    const std::size_t nblocks = wave_end - wave_begin;
    std::vector<std::vector<std::uint8_t>> blocks(nblocks);
    std::vector<std::uint64_t> checksums(nblocks);
    // encode_seconds is extract + encode + checksum only — stop the clock
    // before the flush so storage benches report codec throughput, not
    // disk speed.
    double wave_seconds = 0.0;
    {
      obs::Span span("codec.encode", "codec");
      ScopedTimer encode_timer(wave_seconds);
      parallel_for_range(
          nblocks,
          [&](std::size_t lo, std::size_t hi) {
            std::vector<std::span<const std::uint8_t>> run(hi - lo);
            for (std::size_t i = lo; i < hi; ++i) {
              const std::size_t b = wave_begin + i;
              const auto& data = snap.get(names[b / nchunks]).data();
              const auto vals =
                  extract_chunk(data, snap.shape(), layout.box(b % nchunks));
              blocks[i] = codec.encode(std::span<const double>(vals));
              run[i - lo] = blocks[i];
            }
            fnv1a64_many(run, std::span(checksums).subspan(lo, hi - lo));
          },
          pool, /*grain=*/1);
    }
    stats.encode_seconds += wave_seconds;
    if (obs::enabled()) add_codec_seconds("codec.encode_seconds", wave_seconds);
    std::size_t buffered = 0;
    for (std::size_t i = 0; i < nblocks; ++i) {
      const auto& bytes = blocks[i];
      index.push_back(BlockRef{static_cast<std::uint64_t>(out.tellp()),
                               bytes.size(), checksums[i]});
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
      buffered += bytes.size();
      stats.payload_bytes += bytes.size();
    }
    stats.peak_buffered_bytes = std::max(stats.peak_buffered_bytes, buffered);
    if (!out) throw RuntimeError("error writing: " + path);
    wave_begin = wave_end;
  }
  return stats;
}

BlockCache::Block read_block(const ReadOnlyFile& file, const BlockRef& ref,
                             const Codec& codec, std::size_t points,
                             const char* container) {
  obs::Span load_span("store.load_chunk", "store");
  const auto block = file.read(ref.offset, ref.bytes);
  if (fnv1a64(std::span<const std::uint8_t>(block)) != ref.checksum) {
    throw RuntimeError(std::string(container) +
                       " chunk checksum mismatch (corrupt block)");
  }
  if (obs::enabled()) {
    obs::Span decode_span("codec.decode", "codec");
    Timer decode_timer;
    auto values = std::make_shared<const std::vector<double>>(
        codec.decode(std::span<const std::uint8_t>(block), points));
    add_codec_seconds("codec.decode_seconds", decode_timer.seconds());
    return values;
  }
  return std::make_shared<const std::vector<double>>(
      codec.decode(std::span<const std::uint8_t>(block), points));
}

StoreWriteReport write_store(const field::Snapshot& snap,
                             const std::string& path,
                             const StoreOptions& opts) {
  // Open the output before encoding: an unwritable path must fail in
  // milliseconds, not after compressing a multi-GB snapshot.
  std::ofstream f(path, std::ios::binary);
  if (!f) throw RuntimeError("cannot open for write: " + path);
  const ChunkLayout layout(snap.shape(), opts.chunk);
  const auto codec = make_codec(opts.codec, opts.tolerance);
  const auto names = snap.names();

  f.write(kMagic, 4);
  write_pod<std::uint32_t>(f, kVersion);
  write_pod<std::uint64_t>(f, snap.shape().nx);
  write_pod<std::uint64_t>(f, snap.shape().ny);
  write_pod<std::uint64_t>(f, snap.shape().nz);
  write_pod<double>(f, snap.time());
  write_pod<std::uint64_t>(f, layout.chunk_shape().nx);
  write_pod<std::uint64_t>(f, layout.chunk_shape().ny);
  write_pod<std::uint64_t>(f, layout.chunk_shape().nz);
  write_pod<std::uint8_t>(f, static_cast<std::uint8_t>(codec->id()));
  write_pod<double>(f, opts.tolerance);
  write_pod<std::uint64_t>(f, names.size());
  for (const auto& name : names) {
    write_pod<std::uint32_t>(f, static_cast<std::uint32_t>(name.size()));
    f.write(name.data(), static_cast<std::streamsize>(name.size()));
  }
  write_pod<std::uint64_t>(f, layout.count());
  const auto patch_pos = static_cast<std::uint64_t>(f.tellp());
  write_pod<std::uint64_t>(f, 0);  // index_offset, patched below
  write_pod<std::uint64_t>(f, 0);  // index_checksum, patched below

  // Blocks stream to disk in waves, so writer memory is bounded by one
  // wave of encoded blocks — never the snapshot.
  std::vector<BlockRef> index;
  index.reserve(names.size() * layout.count());
  const WaveWriteStats stats =
      write_blocks_in_waves(snap, layout, names, *codec, opts.pool,
                            opts.write_budget_bytes, f, path, index);
  StoreWriteReport report;
  report.chunks = index.size();
  report.raw_bytes = snap.bytes();
  report.payload_bytes = stats.payload_bytes;
  report.peak_buffered_bytes = stats.peak_buffered_bytes;
  report.encode_seconds = stats.encode_seconds;

  // Trailing index, checksummed like the SKL3 one: a flipped byte whose
  // offsets still land inside the file must fail loudly on open, not
  // decode garbage.
  const auto index_offset = static_cast<std::uint64_t>(f.tellp());
  std::vector<std::uint8_t> section;
  section.reserve(index.size() * kEntryBytes);
  for (const auto& ref : index) {
    append_pod<std::uint64_t>(section, ref.offset);
    append_pod<std::uint64_t>(section, ref.bytes);
    append_pod<std::uint64_t>(section, ref.checksum);
  }
  f.write(reinterpret_cast<const char*>(section.data()),
          static_cast<std::streamsize>(section.size()));
  f.seekp(static_cast<std::streamoff>(patch_pos));
  write_pod<std::uint64_t>(f, index_offset);
  write_pod<std::uint64_t>(f, fnv1a64(std::span<const std::uint8_t>(section)));
  f.flush();
  if (!f) throw RuntimeError("error writing: " + path);
  report.file_bytes = static_cast<std::size_t>(
      std::filesystem::file_size(path));
  return report;
}

ChunkReader::ChunkReader(const std::string& path, std::size_t cache_bytes,
                         std::size_t shards) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw RuntimeError("cannot open for read: " + path);
  char magic[4];
  file.read(magic, 4);
  if (!file || std::memcmp(magic, kMagic, 4) != 0) {
    throw RuntimeError("not an SKL2 store file: " + path);
  }
  if (read_pod<std::uint32_t>(file) != kVersion) {
    throw RuntimeError("unsupported SKL2 version in " + path);
  }
  field::GridShape grid;
  grid.nx = read_pod<std::uint64_t>(file);
  grid.ny = read_pod<std::uint64_t>(file);
  grid.nz = read_pod<std::uint64_t>(file);
  // Bound the extents before any product is formed: corrupt dims must
  // not overflow grid.size()/layout counts into "plausible" values.
  SICKLE_CHECK_MSG(grid.nx > 0 && grid.ny > 0 && grid.nz > 0 &&
                       grid.nx < (1ull << 21) && grid.ny < (1ull << 21) &&
                       grid.nz < (1ull << 21),
                   "implausible grid extents in SKL2");
  time_ = read_pod<double>(file);
  field::GridShape chunk;
  chunk.nx = read_pod<std::uint64_t>(file);
  chunk.ny = read_pod<std::uint64_t>(file);
  chunk.nz = read_pod<std::uint64_t>(file);
  layout_ = ChunkLayout(grid, chunk);
  const auto codec_id = read_pod<std::uint8_t>(file);
  const auto tolerance = read_pod<double>(file);
  codec_ = make_codec(static_cast<CodecId>(codec_id), tolerance);
  codec_name_ = codec_->name();
  const auto nfields = read_pod<std::uint64_t>(file);
  SICKLE_CHECK_MSG(nfields < 1024, "implausible field count in SKL2");
  names_.reserve(nfields);
  for (std::uint64_t i = 0; i < nfields; ++i) {
    const auto len = read_pod<std::uint32_t>(file);
    SICKLE_CHECK_MSG(len < (1u << 20), "implausible name length in SKL2");
    std::string name(len, '\0');
    file.read(name.data(), len);
    if (!file) throw RuntimeError("truncated SKL2 file");
    field_index_[name] = i;
    names_.push_back(std::move(name));
  }
  const auto nchunks = read_pod<std::uint64_t>(file);
  SICKLE_CHECK_MSG(nchunks == layout_.count(),
                   "SKL2 chunk count does not match its grid/chunk shape");
  // The index sits at the tail; the header holds its offset (0 means the
  // writer never completed) and an FNV-1a checksum verified before any
  // entry is parsed.
  const auto index_offset = read_pod<std::uint64_t>(file);
  const auto index_checksum = read_pod<std::uint64_t>(file);
  if (index_offset == 0) {
    throw RuntimeError(
        "SKL2 store has no index — the writer was not completed "
        "(crashed or truncated write): " + path);
  }
  const auto file_size =
      static_cast<std::uint64_t>(std::filesystem::file_size(path));
  // Every index entry occupies kEntryBytes in the file, so the entry
  // count is bounded by file_size / kEntryBytes. Checking with a division
  // (never a product) keeps a corrupt header from overflowing index_bytes
  // into a value that slips past the bounds check, or from sizing the
  // index before it is known to fit. (nchunks >= 1: the layout is
  // non-empty.)
  if (nfields > file_size / kEntryBytes / nchunks) {
    throw RuntimeError("SKL2 index does not fit the file (corrupt?): " +
                       path);
  }
  const std::uint64_t index_bytes = nfields * nchunks * kEntryBytes;
  if (index_offset > file_size || index_bytes > file_size - index_offset) {
    throw RuntimeError(
        "SKL2 index points outside the file (truncated?): " + path);
  }
  file.seekg(static_cast<std::streamoff>(index_offset));
  std::vector<std::uint8_t> section(index_bytes);
  file.read(reinterpret_cast<char*>(section.data()),
            static_cast<std::streamsize>(section.size()));
  if (!file) throw RuntimeError("truncated SKL2 file");
  if (fnv1a64(std::span<const std::uint8_t>(section)) != index_checksum) {
    throw RuntimeError("SKL2 index checksum mismatch (corrupt index): " +
                       path);
  }
  std::size_t pos = 0;
  auto take_u64 = [&section, &pos]() {
    std::uint64_t v = 0;
    std::memcpy(&v, section.data() + pos, sizeof(v));
    pos += sizeof(v);
    return v;
  };
  index_.resize(nfields * nchunks);
  for (auto& ref : index_) {
    ref.offset = take_u64();
    ref.bytes = take_u64();
    ref.checksum = take_u64();
    // Reject corrupt entries here rather than letting chunk() make an
    // unchecked (possibly huge) allocation later.
    if (ref.offset > file_size || ref.bytes > file_size - ref.offset) {
      throw RuntimeError("SKL2 chunk index points outside the file: " +
                         path);
    }
  }

  const std::size_t chunk_bytes =
      layout_.chunk_shape().size() * sizeof(double);
  cache_ = std::make_unique<BlockCache>(cache_bytes, chunk_bytes, shards);
  file_ = std::make_unique<ReadOnlyFile>(path);
}

std::shared_ptr<const std::vector<double>> ChunkReader::chunk(
    std::size_t field_index, std::size_t chunk_id) const {
  SICKLE_CHECK(field_index < names_.size() && chunk_id < layout_.count());
  const std::uint64_t key = field_index * layout_.count() + chunk_id;
  return cache_->get(key, [&] {
    return read_block(*file_, index_[key], *codec_,
                      layout_.box(chunk_id).points(), "SKL2");
  });
}

void ChunkReader::gather(const std::string& var,
                         std::span<const std::size_t> idx,
                         std::span<double> out) const {
  const auto it = field_index_.find(var);
  SICKLE_CHECK_MSG(it != field_index_.end(), "unknown field: " + var);
  const std::size_t f = it->second;
  gather_runs(layout_, idx, out, [&](std::size_t c) { return chunk(f, c); });
}

std::vector<double> ChunkReader::load_field(const std::string& var) const {
  const auto it = field_index_.find(var);
  SICKLE_CHECK_MSG(it != field_index_.end(), "unknown field: " + var);
  return assemble_field(
      layout_, [&](std::size_t c) { return chunk(it->second, c); });
}

field::Snapshot ChunkReader::load_snapshot() const {
  field::Snapshot snap(layout_.grid(), time_);
  for (const auto& name : names_) snap.add(name, load_field(name));
  return snap;
}

}  // namespace sickle::store
