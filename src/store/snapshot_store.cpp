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
/// v1 puts the chunk index *before* the payload, which forces the writer
/// to buffer every encoded block until the index is known. v2 moves the
/// index to the tail (SKL3-style): the header carries an index_offset
/// patched on completion, blocks stream to disk in write-budget-bounded
/// waves, and writer memory is bounded by the budget instead of the
/// snapshot. v3 keeps the v2 layout but widens each index entry with an
/// FNV-1a checksum of the block's encoded bytes, verified before every
/// decode. Readers accept all three.
constexpr std::uint32_t kVersionLegacy = 1;
constexpr std::uint32_t kVersionTrailingIndex = 2;
constexpr std::uint32_t kVersionLatest = 3;

/// Index-entry width in u64s: v3 adds the per-block checksum.
constexpr std::size_t entry_words(std::uint32_t version) {
  return version >= 3 ? 3 : 2;
}

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
    // Each block is checksummed by the task that encoded it, so the
    // caller's flush below is pure I/O.
    struct EncodedBlock {
      std::vector<std::uint8_t> bytes;
      std::uint64_t checksum = 0;
    };
    std::vector<EncodedBlock> blocks(wave_end - wave_begin);
    // encode_seconds is extract + encode + checksum only — stop the clock
    // before the flush so storage benches report codec throughput, not
    // disk speed.
    double wave_seconds = 0.0;
    {
      obs::Span span("codec.encode", "codec");
      ScopedTimer encode_timer(wave_seconds);
      parallel_for(
          blocks.size(),
          [&](std::size_t i) {
            const std::size_t b = wave_begin + i;
            const auto& data = snap.get(names[b / nchunks]).data();
            const auto vals =
                extract_chunk(data, snap.shape(), layout.box(b % nchunks));
            blocks[i].bytes = codec.encode(std::span<const double>(vals));
            blocks[i].checksum =
                fnv1a64(std::span<const std::uint8_t>(blocks[i].bytes));
          },
          pool, /*grain=*/1);
    }
    stats.encode_seconds += wave_seconds;
    if (obs::enabled()) add_codec_seconds("codec.encode_seconds", wave_seconds);
    std::size_t buffered = 0;
    for (const auto& b : blocks) {
      index.push_back(BlockRef{static_cast<std::uint64_t>(out.tellp()),
                               b.bytes.size(), b.checksum});
      out.write(reinterpret_cast<const char*>(b.bytes.data()),
                static_cast<std::streamsize>(b.bytes.size()));
      buffered += b.bytes.size();
      stats.payload_bytes += b.bytes.size();
    }
    stats.peak_buffered_bytes = std::max(stats.peak_buffered_bytes, buffered);
    if (!out) throw RuntimeError("error writing: " + path);
    wave_begin = wave_end;
  }
  return stats;
}

namespace {

/// The SKL2 header up through nchunks — byte-identical between v1 and v2
/// (only the version constant differs), so both layouts serialize it
/// through this one helper and cannot drift.
void write_skl2_header(std::ofstream& f, std::uint32_t version,
                       const field::Snapshot& snap,
                       const ChunkLayout& layout, const Codec& codec,
                       double tolerance,
                       const std::vector<std::string>& names) {
  f.write(kMagic, 4);
  write_pod<std::uint32_t>(f, version);
  write_pod<std::uint64_t>(f, snap.shape().nx);
  write_pod<std::uint64_t>(f, snap.shape().ny);
  write_pod<std::uint64_t>(f, snap.shape().nz);
  write_pod<double>(f, snap.time());
  write_pod<std::uint64_t>(f, layout.chunk_shape().nx);
  write_pod<std::uint64_t>(f, layout.chunk_shape().ny);
  write_pod<std::uint64_t>(f, layout.chunk_shape().nz);
  write_pod<std::uint8_t>(f, static_cast<std::uint8_t>(codec.id()));
  write_pod<double>(f, tolerance);
  write_pod<std::uint64_t>(f, names.size());
  for (const auto& name : names) {
    write_pod<std::uint32_t>(f, static_cast<std::uint32_t>(name.size()));
    f.write(name.data(), static_cast<std::streamsize>(name.size()));
  }
  write_pod<std::uint64_t>(f, layout.count());
}

/// Legacy v1 layout: encode everything, then index-before-payload. Kept
/// (behind StoreOptions::format_version = 1) so compat tests and old
/// tooling can still produce files every reader version understands.
StoreWriteReport write_store_v1(const field::Snapshot& snap,
                                const std::string& path,
                                const StoreOptions& opts,
                                std::ofstream& f) {
  const ChunkLayout layout(snap.shape(), opts.chunk);
  const auto codec = make_codec(opts.codec, opts.tolerance);
  const auto names = snap.names();
  const std::size_t nchunks = layout.count();
  const std::size_t total = names.size() * nchunks;

  // Encode every (field, chunk) block in parallel; blocks land in their
  // final order, so the serial write below is a straight concatenation.
  StoreWriteReport report;
  report.chunks = total;
  report.raw_bytes = snap.bytes();
  std::vector<std::vector<std::uint8_t>> blocks(total);
  {
    obs::Span span("codec.encode", "codec");
    ScopedTimer encode_timer(report.encode_seconds);
    parallel_for(
        total,
        [&](std::size_t i) {
          const auto& data = snap.get(names[i / nchunks]).data();
          const auto vals =
              extract_chunk(data, snap.shape(), layout.box(i % nchunks));
          blocks[i] = codec->encode(std::span<const double>(vals));
        },
        opts.pool, /*grain=*/1);
  }
  if (obs::enabled()) {
    add_codec_seconds("codec.encode_seconds", report.encode_seconds);
  }
  for (const auto& b : blocks) report.peak_buffered_bytes += b.size();

  write_skl2_header(f, kVersionLegacy, snap, layout, *codec, opts.tolerance,
                    names);
  // Payload starts right after the chunk index; deriving the offset from
  // the stream position keeps it correct if the header ever grows.
  std::uint64_t offset = static_cast<std::uint64_t>(f.tellp()) +
                         total * 2 * sizeof(std::uint64_t);
  for (const auto& b : blocks) {
    write_pod<std::uint64_t>(f, offset);
    write_pod<std::uint64_t>(f, b.size());
    offset += b.size();
    report.payload_bytes += b.size();
  }
  for (const auto& b : blocks) {
    f.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  }
  if (!f) throw RuntimeError("error writing: " + path);
  return report;
}

/// v2/v3 layout: header with a patched index_offset, streamed payload in
/// write-budget-bounded waves, trailing index. Writer memory is bounded
/// by one wave of encoded blocks — never the snapshot. v3 additionally
/// serializes each entry's payload checksum.
StoreWriteReport write_store_trailing(const field::Snapshot& snap,
                                      const std::string& path,
                                      const StoreOptions& opts,
                                      std::uint32_t version,
                                      std::ofstream& f) {
  const ChunkLayout layout(snap.shape(), opts.chunk);
  const auto codec = make_codec(opts.codec, opts.tolerance);
  const auto names = snap.names();
  const std::size_t nchunks = layout.count();
  const std::size_t total = names.size() * nchunks;

  StoreWriteReport report;
  report.chunks = total;
  report.raw_bytes = snap.bytes();

  write_skl2_header(f, version, snap, layout, *codec, opts.tolerance,
                    names);
  const auto patch_pos = static_cast<std::uint64_t>(f.tellp());
  write_pod<std::uint64_t>(f, 0);  // index_offset, patched below
  write_pod<std::uint64_t>(f, 0);  // index_checksum, patched below

  std::vector<BlockRef> index;
  index.reserve(total);
  const WaveWriteStats stats =
      write_blocks_in_waves(snap, layout, names, *codec, opts.pool,
                            opts.write_budget_bytes, f, path, index);
  report.payload_bytes = stats.payload_bytes;
  report.peak_buffered_bytes = stats.peak_buffered_bytes;
  report.encode_seconds = stats.encode_seconds;

  // Trailing index, checksummed like the SKL3 one: a flipped byte whose
  // offsets still land inside the file must fail loudly on open, not
  // decode garbage.
  const auto index_offset = static_cast<std::uint64_t>(f.tellp());
  std::vector<std::uint8_t> section;
  section.reserve(index.size() * entry_words(version) *
                  sizeof(std::uint64_t));
  for (const auto& ref : index) {
    append_pod<std::uint64_t>(section, ref.offset);
    append_pod<std::uint64_t>(section, ref.bytes);
    if (version >= 3) append_pod<std::uint64_t>(section, ref.checksum);
  }
  f.write(reinterpret_cast<const char*>(section.data()),
          static_cast<std::streamsize>(section.size()));
  f.seekp(static_cast<std::streamoff>(patch_pos));
  write_pod<std::uint64_t>(f, index_offset);
  write_pod<std::uint64_t>(f, fnv1a64(std::span<const std::uint8_t>(section)));
  return report;
}

}  // namespace

StoreWriteReport write_store(const field::Snapshot& snap,
                             const std::string& path,
                             const StoreOptions& opts) {
  const std::uint32_t version =
      opts.format_version == 0 ? kVersionLatest : opts.format_version;
  SICKLE_CHECK_MSG(version >= kVersionLegacy && version <= kVersionLatest,
                   "unsupported SKL2 format_version requested");
  // Open the output before encoding: an unwritable path must fail in
  // milliseconds, not after compressing a multi-GB snapshot.
  std::ofstream f(path, std::ios::binary);
  if (!f) throw RuntimeError("cannot open for write: " + path);
  StoreWriteReport report =
      version == kVersionLegacy
          ? write_store_v1(snap, path, opts, f)
          : write_store_trailing(snap, path, opts, version, f);
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
  const auto version = read_pod<std::uint32_t>(file);
  if (version < kVersionLegacy || version > kVersionLatest) {
    throw RuntimeError("unsupported SKL2 version in " + path);
  }
  version_ = version;
  field::GridShape grid;
  grid.nx = read_pod<std::uint64_t>(file);
  grid.ny = read_pod<std::uint64_t>(file);
  grid.nz = read_pod<std::uint64_t>(file);
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
  index_.resize(nfields * nchunks);
  const auto file_size =
      static_cast<std::uint64_t>(std::filesystem::file_size(path));
  if (version >= 2) {
    // v2+: the index sits at the tail; the header holds its offset (0
    // means the writer never completed) and an FNV-1a checksum verified
    // before any entry is parsed. v3 entries also carry the per-block
    // payload checksum chunk() verifies before decoding.
    const auto index_offset = read_pod<std::uint64_t>(file);
    const auto index_checksum = read_pod<std::uint64_t>(file);
    const std::uint64_t index_bytes =
        index_.size() * entry_words(version) * sizeof(std::uint64_t);
    if (index_offset == 0) {
      throw RuntimeError(
          "SKL2 store has no index — the writer was not completed "
          "(crashed or truncated write): " + path);
    }
    if (index_offset > file_size ||
        index_bytes > file_size - index_offset) {
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
    for (auto& ref : index_) {
      ref.offset = take_u64();
      ref.bytes = take_u64();
      if (version >= 3) ref.checksum = take_u64();
      if (ref.offset > file_size || ref.bytes > file_size - ref.offset) {
        throw RuntimeError("SKL2 chunk index points outside the file: " +
                           path);
      }
    }
  } else {
    for (auto& ref : index_) {
      ref.offset = read_pod<std::uint64_t>(file);
      ref.bytes = read_pod<std::uint64_t>(file);
      // Reject corrupt index entries here rather than letting chunk()
      // make an unchecked (possibly huge) allocation later.
      if (ref.offset > file_size || ref.bytes > file_size - ref.offset) {
        throw RuntimeError("SKL2 chunk index points outside the file: " +
                           path);
      }
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
  return cache_->get(key, [&]() -> BlockCache::Block {
    obs::Span load_span("store.load_chunk", "store");
    const auto block = file_->read(index_[key].offset, index_[key].bytes);
    if (version_ >= 3 &&
        fnv1a64(std::span<const std::uint8_t>(block)) !=
            index_[key].checksum) {
      throw RuntimeError("SKL2 chunk checksum mismatch (corrupt block)");
    }
    if (obs::enabled()) {
      obs::Span decode_span("codec.decode", "codec");
      Timer decode_timer;
      auto values = std::make_shared<const std::vector<double>>(
          codec_->decode(std::span<const std::uint8_t>(block),
                         layout_.box(chunk_id).points()));
      add_codec_seconds("codec.decode_seconds", decode_timer.seconds());
      return values;
    }
    return std::make_shared<const std::vector<double>>(
        codec_->decode(std::span<const std::uint8_t>(block),
                       layout_.box(chunk_id).points()));
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
  const auto& grid = layout_.grid();
  std::vector<double> out(grid.size());
  for (std::size_t c = 0; c < layout_.count(); ++c) {
    const auto b = layout_.box(c);
    const auto values = chunk(it->second, c);
    std::size_t k = 0;
    for (std::size_t ix = b.x0; ix < b.x0 + b.ex; ++ix) {
      for (std::size_t iy = b.y0; iy < b.y0 + b.ey; ++iy) {
        double* row = out.data() + grid.index(ix, iy, b.z0);
        for (std::size_t iz = 0; iz < b.ez; ++iz) row[iz] = (*values)[k++];
      }
    }
  }
  return out;
}

field::Snapshot ChunkReader::load_snapshot() const {
  field::Snapshot snap(layout_.grid(), time_);
  for (const auto& name : names_) snap.add(name, load_field(name));
  return snap;
}

}  // namespace sickle::store
