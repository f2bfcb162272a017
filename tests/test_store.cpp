// Unit tests: SKL2 chunked compressed snapshot store — codecs, chunk
// layout, writer/reader round trips, LRU cache behavior, and
// streaming-vs-in-memory sampling equivalence.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "file_bytes.hpp"
#include "gather_patterns.hpp"
#include "sampling/pipeline.hpp"
#include "sickle/case.hpp"
#include "store/chunk_layout.hpp"
#include "store/codec.hpp"
#include "store/snapshot_store.hpp"

namespace sickle::store {
namespace {

std::vector<double> smooth_values(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(0.01 * static_cast<double>(i)) + 2.0;
  }
  return v;
}

std::vector<double> random_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal();
  return v;
}

TEST(Codec, RawRoundTripIsExact) {
  const auto codec = make_codec("raw");
  const auto values = random_values(257, 1);
  const auto block = codec->encode(values);
  EXPECT_EQ(block.size(), values.size() * sizeof(double));
  EXPECT_EQ(codec->decode(block, values.size()), values);
}

TEST(Codec, DeltaRoundTripIsExact) {
  const auto codec = make_codec("delta");
  for (const auto& values :
       {smooth_values(511), random_values(511, 2), std::vector<double>{},
        std::vector<double>(64, 3.25)}) {
    const auto block = codec->encode(values);
    EXPECT_EQ(codec->decode(block, values.size()), values);
  }
}

TEST(Codec, DeltaCompressesSmoothAndConstantData) {
  const auto codec = make_codec("delta");
  const auto smooth = smooth_values(4096);
  EXPECT_LT(codec->encode(smooth).size(), smooth.size() * sizeof(double));
  // A constant run costs one nibble per value after the first delta.
  const std::vector<double> constant(4096, 1.5);
  EXPECT_LT(codec->encode(constant).size(), constant.size());
}

TEST(Codec, QuantHonorsTolerance) {
  for (const double tol : {1e-1, 1e-3, 1e-6}) {
    const auto codec = make_codec("quant", tol);
    const auto values = random_values(1000, 3);
    const auto decoded =
        codec->decode(codec->encode(values), values.size());
    double err = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      err = std::max(err, std::abs(values[i] - decoded[i]));
    }
    EXPECT_LE(err, tol);
  }
}

TEST(Codec, QuantSizeShrinksWithLooserTolerance) {
  const auto values = random_values(4096, 4);
  const auto tight = make_codec("quant", 1e-9)->encode(values);
  const auto loose = make_codec("quant", 1e-2)->encode(values);
  EXPECT_LT(loose.size(), tight.size());
  EXPECT_LT(loose.size(), values.size() * sizeof(double) / 2);
}

TEST(Codec, QuantConstantChunkIsTiny) {
  const auto codec = make_codec("quant", 1e-6);
  const std::vector<double> constant(512, 42.0);
  const auto block = codec->encode(constant);
  EXPECT_LT(block.size(), 32u);  // header only, zero-bit payload
  EXPECT_EQ(codec->decode(block, constant.size()), constant);
}

TEST(Codec, QuantFallsBackToRawOnExtremeRange) {
  // range/step overflows the 48-bit level cap -> embedded raw block,
  // which is exact, trivially within tolerance.
  const auto codec = make_codec("quant", 1e-15);
  std::vector<double> values = {0.0, 1e6, -1e6, 3.141592653589793};
  const auto decoded = codec->decode(codec->encode(values), values.size());
  EXPECT_EQ(decoded, values);
}

TEST(Codec, UnknownNameThrows) {
  EXPECT_THROW(make_codec("lz77"), RuntimeError);
  EXPECT_THROW(QuantCodec(0.0), CheckError);
#ifndef SICKLE_HAS_ZSTD
  // "zstd" is a registered name, but requesting it from a build without
  // zstd support must fail with a clear (typed) error, not decode garbage.
  EXPECT_THROW(make_codec("zstd"), RuntimeError);
#endif
}

TEST(ChunkLayout, PartialEdgeChunksCoverTheGrid) {
  const ChunkLayout layout({10, 6, 5}, {4, 4, 4});
  EXPECT_EQ(layout.chunks_x(), 3u);
  EXPECT_EQ(layout.chunks_y(), 2u);
  EXPECT_EQ(layout.chunks_z(), 2u);
  std::size_t covered = 0;
  for (std::size_t c = 0; c < layout.count(); ++c) {
    covered += layout.box(c).points();
  }
  EXPECT_EQ(covered, layout.grid().size());
}

TEST(ChunkLayout, PointMappingIsABijection) {
  const ChunkLayout layout({10, 6, 5}, {4, 4, 4});
  // locate() must hit every slot of every chunk once, and its row_left
  // must count the points from the index to the end of its chunk row.
  std::vector<std::vector<bool>> seen(layout.count());
  for (std::size_t c = 0; c < layout.count(); ++c) {
    seen[c].assign(layout.box(c).points(), false);
  }
  const auto& grid = layout.grid();
  for (std::size_t flat = 0; flat < grid.size(); ++flat) {
    const auto loc = layout.locate(flat);
    ASSERT_LT(loc.chunk, layout.count());
    ASSERT_LT(loc.offset, seen[loc.chunk].size());
    EXPECT_FALSE(seen[loc.chunk][loc.offset]);
    seen[loc.chunk][loc.offset] = true;
    const auto b = layout.box(loc.chunk);
    EXPECT_EQ(loc.row_left, b.z0 + b.ez - flat % grid.nz) << flat;
    // The rest of the row is consecutive in the chunk too.
    const auto last = layout.locate(flat + loc.row_left - 1);
    EXPECT_EQ(last.chunk, loc.chunk);
    EXPECT_EQ(last.offset, loc.offset + loc.row_left - 1);
    EXPECT_EQ(last.row_left, 1u);
  }
  EXPECT_THROW((void)layout.locate(grid.size()), CheckError);
}

TEST(ChunkLayout, OversizedChunkClampsToOneChunk) {
  const ChunkLayout layout({8, 8, 1}, {32, 32, 32});
  EXPECT_EQ(layout.count(), 1u);
  EXPECT_EQ(layout.box(0).points(), 64u);
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sickle_store_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Snapshot whose grid is deliberately not divisible by the chunk shape.
  [[nodiscard]] static field::Snapshot make_snapshot() {
    field::Snapshot snap({10, 6, 5}, 1.25);
    Rng rng(7);
    for (const char* name : {"u", "v", "c"}) {
      auto& f = snap.add(name);
      std::size_t i = 0;
      for (auto& x : f.data()) {
        x = std::sin(0.05 * static_cast<double>(i++)) + 0.1 * rng.normal();
      }
    }
    return snap;
  }

  std::filesystem::path dir_;
};

TEST_F(StoreTest, LosslessRoundTripWithPartialChunks) {
  const auto snap = make_snapshot();
  for (const char* codec : {"raw", "delta", "gorilla"}) {
    StoreOptions opts;
    opts.chunk = {4, 4, 4};
    opts.codec = codec;
    const auto report = write_store(snap, path("s.skl2"), opts);
    EXPECT_EQ(report.chunks, 3u * 12u);
    EXPECT_EQ(report.raw_bytes, snap.bytes());
    EXPECT_EQ(report.file_bytes,
              std::filesystem::file_size(path("s.skl2")));

    const ChunkReader reader(path("s.skl2"));
    EXPECT_EQ(reader.shape(), snap.shape());
    EXPECT_DOUBLE_EQ(reader.time(), 1.25);
    EXPECT_EQ(reader.variables(), snap.names());
    EXPECT_EQ(reader.codec_name(), codec);
    const auto loaded = reader.load_snapshot();
    for (const auto& name : snap.names()) {
      const auto a = snap.get(name).data();
      const auto b = loaded.get(name).data();
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_DOUBLE_EQ(a[i], b[i]) << name << "[" << i << "]";
      }
    }
  }
}

TEST_F(StoreTest, QuantRoundTripWithinTolerance) {
  const auto snap = make_snapshot();
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  opts.codec = "quant";
  opts.tolerance = 1e-4;
  const auto report = write_store(snap, path("q.skl2"), opts);
  EXPECT_LT(report.file_bytes, report.raw_bytes);

  const auto loaded = ChunkReader(path("q.skl2")).load_snapshot();
  for (const auto& name : snap.names()) {
    const auto a = snap.get(name).data();
    const auto b = loaded.get(name).data();
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_NEAR(a[i], b[i], 1e-4);
    }
  }
}

TEST_F(StoreTest, GatherMatchesSnapshotValues) {
  const auto snap = make_snapshot();
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  write_store(snap, path("g.skl2"), opts);
  const ChunkReader reader(path("g.skl2"));

  Rng rng(11);
  std::vector<std::size_t> idx(200);
  for (auto& i : idx) i = rng.uniform_int(snap.shape().size());
  const auto got = reader.gather("v", std::span<const std::size_t>(idx));
  const auto data = snap.get("v").data();
  for (std::size_t i = 0; i < idx.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], data[idx[i]]);
  }
  EXPECT_THROW(reader.gather("nope", std::span<const std::size_t>(idx)),
               CheckError);
}

TEST_F(StoreTest, CacheHitsEvictionsAndSharedOwnership) {
  const auto snap = make_snapshot();
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  write_store(snap, path("c.skl2"), opts);
  // Capacity of one 4^3 chunk: every switch to a new chunk evicts.
  const ChunkReader reader(path("c.skl2"), /*cache_bytes=*/64 * 8);

  const auto first = reader.chunk(0, 0);
  auto stats = reader.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  (void)reader.chunk(0, 0);
  stats = reader.cache_stats();
  EXPECT_EQ(stats.hits, 1u);

  (void)reader.chunk(0, 1);  // exceeds capacity -> evicts chunk 0
  stats = reader.cache_stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.resident_bytes, 64u * 8u);
  // Evicted blocks stay alive for existing holders.
  EXPECT_EQ(first->size(), 64u);

  (void)reader.chunk(0, 0);  // cold again after eviction
  stats = reader.cache_stats();
  EXPECT_EQ(stats.misses, 3u);
}

TEST_F(StoreTest, LruKeepsHotChunksResident) {
  const auto snap = make_snapshot();
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  write_store(snap, path("l.skl2"), opts);
  // Room for two full chunks.
  const ChunkReader reader(path("l.skl2"), /*cache_bytes=*/2 * 64 * 8);
  (void)reader.chunk(0, 0);
  (void)reader.chunk(0, 1);
  (void)reader.chunk(0, 0);  // refresh 0 -> 1 is now LRU
  (void)reader.chunk(0, 2);  // evicts 1, not 0
  (void)reader.chunk(0, 0);
  EXPECT_EQ(reader.cache_stats().hits, 2u);
}

/// Trailing-index layout: the writer streams encoded waves under the
/// write budget instead of buffering the whole snapshot's blocks.
TEST_F(StoreTest, TrailingIndexWriterBoundsBufferedBytes) {
  field::Snapshot snap({24, 24, 24}, 0.5);
  Rng rng(11);
  for (const char* name : {"a", "b"}) {
    auto& f = snap.add(name);
    for (auto& x : f.data()) x = rng.normal();
  }
  StoreOptions opts;
  opts.chunk = {8, 8, 8};
  opts.codec = "raw";
  // Budget of two chunks: 54 blocks must flush in many waves.
  opts.write_budget_bytes = 2 * 8 * 8 * 8 * sizeof(double);
  const auto report = write_store(snap, path("trailing.skl2"), opts);
  EXPECT_GT(report.peak_buffered_bytes, 0u);
  EXPECT_LT(report.peak_buffered_bytes, report.payload_bytes);
  // Raw codec: a wave's encoded bytes ~ its raw bytes (+ tiny framing).
  EXPECT_LE(report.peak_buffered_bytes, 2 * opts.write_budget_bytes);

  // And the container round-trips.
  const ChunkReader reader(path("trailing.skl2"));
  const auto loaded = reader.load_snapshot();
  for (const char* name : {"a", "b"}) {
    const auto want = snap.get(name).data();
    const auto got = loaded.get(name).data();
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i], got[i]) << name << "[" << i << "]";
    }
  }
}

/// SKL2 has one layout: a reader handed any other version number fails
/// with a typed error naming the version, whatever the rest of the file
/// holds.
TEST_F(StoreTest, OnlyCurrentVersionOpens) {
  const auto snap = make_snapshot();
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  write_store(snap, path("cur.skl2"), opts);
  const auto clean = testing::read_bytes(path("cur.skl2"));
  for (const std::uint32_t version : {0u, 1u, 2u, 4u}) {
    auto bytes = clean;
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    testing::write_bytes(path("other.skl2"), bytes);
    try {
      const ChunkReader reader(path("other.skl2"));
      FAIL() << "SKL2 version " << version << " must be rejected";
    } catch (const RuntimeError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported SKL2 version"),
                std::string::npos)
          << e.what();
    }
  }
}

/// A crafted header naming a huge grid in 1-point chunks, with a matching
/// chunk count, must fail the index-fits-the-file check before anything
/// is sized from it — a typed error, never std::length_error or
/// std::bad_alloc. Both sides pass the extent bound, and neither size can
/// really be allocated.
TEST_F(StoreTest, OversizedHeaderFailsBeforeAllocating) {
  for (const std::uint64_t side : {1ull << 16, 1ull << 20}) {
    // Magic, version, grid, time, 1-point chunks, the raw codec and its
    // tolerance, one field "u", the matching chunk count, an index_offset
    // just past the header, an index checksum, then a token payload.
    std::vector<std::uint8_t> bytes{'S', 'K', 'L', '2'};
    append_pod<std::uint32_t>(bytes, 3);
    for (int i = 0; i < 3; ++i) append_pod<std::uint64_t>(bytes, side);
    append_pod<double>(bytes, 0.0);
    for (int i = 0; i < 3; ++i) append_pod<std::uint64_t>(bytes, 1);
    append_pod<std::uint8_t>(bytes, 0);
    append_pod<double>(bytes, 0.0);
    append_pod<std::uint64_t>(bytes, 1);
    append_pod<std::uint32_t>(bytes, 1);
    bytes.push_back('u');
    append_pod<std::uint64_t>(bytes, side * side * side);
    append_pod<std::uint64_t>(bytes, bytes.size() + 16);
    append_pod<std::uint64_t>(bytes, 0);
    bytes.resize(bytes.size() + 64);
    testing::write_bytes(path("huge.skl2"), bytes);
    try {
      const ChunkReader reader(path("huge.skl2"));
      FAIL() << "a " << side << "^3 grid in a tiny file must be rejected";
    } catch (const RuntimeError& e) {
      EXPECT_NE(std::string(e.what()).find("does not fit"),
                std::string::npos)
          << e.what();
    }
  }
}

/// The codec's half of the header bound: a well-formed container whose
/// one gorilla chunk spans a 2^20-per-side grid passes every header and
/// checksum check, so the codec must refuse the 2^60-point count its
/// 64-value block cannot hold — a typed error before the decode sizes
/// anything, never std::length_error or std::bad_alloc.
TEST_F(StoreTest, OversizedChunkCountFailsTypedAtDecode) {
  constexpr std::uint64_t kSide = 1ull << 20;
  std::vector<double> vals(64);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    vals[i] = 1.0 + 0.125 * static_cast<double>(i);
  }
  const auto block = GorillaCodec().encode(vals);
  // Magic, version, grid, time, one chunk spanning the grid, the gorilla
  // codec and its tolerance, one field "u", one chunk, then the index
  // offset and checksum, the block, and its one index entry.
  std::vector<std::uint8_t> bytes{'S', 'K', 'L', '2'};
  append_pod<std::uint32_t>(bytes, 3);
  for (int i = 0; i < 3; ++i) append_pod<std::uint64_t>(bytes, kSide);
  append_pod<double>(bytes, 0.0);
  for (int i = 0; i < 3; ++i) append_pod<std::uint64_t>(bytes, kSide);
  append_pod<std::uint8_t>(bytes, static_cast<std::uint8_t>(CodecId::kGorilla));
  append_pod<double>(bytes, 0.0);
  append_pod<std::uint64_t>(bytes, 1);
  append_pod<std::uint32_t>(bytes, 1);
  bytes.push_back('u');
  append_pod<std::uint64_t>(bytes, 1);
  const std::uint64_t block_offset = bytes.size() + 16;
  std::vector<std::uint8_t> index;
  append_pod<std::uint64_t>(index, block_offset);
  append_pod<std::uint64_t>(index, block.size());
  append_pod<std::uint64_t>(index, fnv1a64(block));
  append_pod<std::uint64_t>(bytes, block_offset + block.size());
  append_pod<std::uint64_t>(bytes, fnv1a64(index));
  bytes.insert(bytes.end(), block.begin(), block.end());
  bytes.insert(bytes.end(), index.begin(), index.end());
  testing::write_bytes(path("huge_chunk.skl2"), bytes);

  const ChunkReader reader(path("huge_chunk.skl2"));
  ASSERT_EQ(reader.layout().box(0).points(), kSide * kSide * kSide);
  try {
    (void)reader.chunk(0, 0);
    FAIL() << "a 64-value block cannot hold a 2^60-point chunk";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("too short for its count"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(StoreTest, V2IndexByteFlipFailsChecksum) {
  const auto snap = make_snapshot();
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  write_store(snap, path("flip.skl2"), opts);
  // The index is the trailing section; flip one byte near the tail in a
  // way that keeps the offsets plausible (low byte of a block size).
  const auto size = std::filesystem::file_size(path("flip.skl2"));
  testing::flip_byte(path("flip.skl2"), size - 16, 0x01);
  try {
    ChunkReader reader(path("flip.skl2"));
    FAIL() << "flipped SKL2 index byte must be rejected";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

/// The encode pool only decides which worker encodes and checksums each
/// block, never the bytes: files written through 1- and 4-wide pools are
/// identical, and the wide-pool file still fails loudly on a flipped
/// payload byte.
TEST_F(StoreTest, WriterBytesDoNotDependOnPoolWidth) {
  const auto snap = make_snapshot();
  ThreadPool narrow(1);
  ThreadPool wide(4);
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  opts.write_budget_bytes = 3 * 4 * 4 * 4 * sizeof(double);  // 3-block waves
  opts.pool = &narrow;
  write_store(snap, path("narrow.skl2"), opts);
  opts.pool = &wide;
  const auto report = write_store(snap, path("wide.skl2"), opts);
  ASSERT_EQ(testing::read_bytes(path("narrow.skl2")),
            testing::read_bytes(path("wide.skl2")));

  // The payload is most of the file, so the middle byte is a payload byte.
  ASSERT_GT(2 * report.payload_bytes, report.file_bytes);
  testing::flip_byte(path("wide.skl2"), report.file_bytes / 2, 0x01);
  try {
    const ChunkReader reader(path("wide.skl2"));
    (void)reader.load_snapshot();
    FAIL() << "a flipped payload byte must fail its block checksum";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST_F(StoreTest, ErrorPaths) {
  EXPECT_THROW(ChunkReader(path("missing.skl2")), RuntimeError);
  {
    std::ofstream f(path("bad.skl2"), std::ios::binary);
    f << "NOTSKL2DATA";
  }
  EXPECT_THROW(ChunkReader(path("bad.skl2")), RuntimeError);

  const auto snap = make_snapshot();
  write_store(snap, path("trunc.skl2"), {});
  std::filesystem::resize_file(path("trunc.skl2"), 64);
  EXPECT_THROW(ChunkReader(path("trunc.skl2")), RuntimeError);
  EXPECT_THROW(write_store(snap, path("no/such/dir/x.skl2"), {}),
               RuntimeError);
}

/// The acceptance-criterion test: hypercube selection + point sampling
/// driven through a ChunkReader must reproduce the in-memory pipeline.
TEST_F(StoreTest, StreamingPipelineMatchesInMemoryExactly) {
  field::Snapshot snap({16, 16, 16}, 0.0);
  Rng rng(3);
  for (const char* name : {"u", "v", "c"}) {
    auto& f = snap.add(name);
    std::size_t i = 0;
    for (auto& x : f.data()) {
      x = std::cos(0.02 * static_cast<double>(i++)) + 0.3 * rng.normal();
    }
  }
  sampling::PipelineConfig cfg;
  cfg.cube = {4, 4, 4};
  cfg.hypercube_method = "maxent";
  cfg.point_method = "maxent";
  cfg.num_hypercubes = 8;
  cfg.num_samples = 12;
  cfg.num_clusters = 4;
  cfg.input_vars = {"u", "v"};
  cfg.output_vars = {"u"};
  cfg.cluster_var = "c";
  const auto in_memory = run_pipeline(snap, cfg);

  StoreOptions opts;
  opts.chunk = {8, 8, 8};
  opts.codec = "delta";
  write_store(snap, path("stream.skl2"), opts);
  // A deliberately tiny cache forces continual decode during streaming.
  const ChunkReader reader(path("stream.skl2"), /*cache_bytes=*/16 << 10);
  const auto streamed = sampling::run_pipeline_streaming(reader, cfg);

  ASSERT_EQ(streamed.cubes.size(), in_memory.cubes.size());
  for (std::size_t i = 0; i < streamed.cubes.size(); ++i) {
    EXPECT_EQ(streamed.cubes[i].cube_id, in_memory.cubes[i].cube_id);
  }
  const auto a = in_memory.merged();
  const auto b = streamed.merged();
  EXPECT_EQ(a.indices, b.indices);
  EXPECT_EQ(a.features, b.features);
  EXPECT_GT(reader.cache_stats().evictions, 0u);
}

/// Concurrent-gather stress for the sharded cache: many threads hammer one
/// shared reader with random gathers while a deliberately tiny per-shard
/// budget forces constant eviction churn. Every value must still match the
/// source snapshot, and the sanitizer build (SICKLE_SANITIZE=ON) must stay
/// clean. Runs for explicit shard counts including 1 (single-shard must
/// also be safe, just slower).
TEST_F(StoreTest, ConcurrentGathersMatchSnapshotUnderEvictionChurn) {
  field::Snapshot snap({24, 24, 24}, 0.0);
  Rng fill(13);
  for (const char* name : {"u", "v"}) {
    auto& f = snap.add(name);
    for (auto& x : f.data()) x = fill.normal();
  }
  StoreOptions opts;
  opts.chunk = {8, 8, 8};
  opts.codec = "delta";
  write_store(snap, path("mt.skl2"), opts);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    // ~3 chunks of budget across all shards: nearly every gather evicts.
    const ChunkReader reader(path("mt.skl2"),
                             /*cache_bytes=*/3 * 512 * sizeof(double),
                             shards);
    EXPECT_EQ(reader.shard_count(), shards);
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kRounds = 64;
    std::vector<std::string> failures(kThreads);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        Rng rng(1000 + t);
        std::vector<std::size_t> idx(128);
        for (std::size_t round = 0; round < kRounds; ++round) {
          const char* var = (round + t) % 2 == 0 ? "u" : "v";
          for (auto& i : idx) i = rng.uniform_int(snap.shape().size());
          const auto got =
              reader.gather(var, std::span<const std::size_t>(idx));
          const auto& data = snap.get(var).data();
          for (std::size_t i = 0; i < idx.size(); ++i) {
            if (got[i] != data[idx[i]]) {
              failures[t] = "thread " + std::to_string(t) + " round " +
                            std::to_string(round) + ": mismatch at index " +
                            std::to_string(idx[i]);
              return;
            }
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    for (const auto& f : failures) EXPECT_EQ(f, "");
    const auto stats = reader.cache_stats();
    EXPECT_GT(stats.misses, 0u);
    EXPECT_GT(stats.evictions, 0u);
  }
}

/// Every scattered request shape returns SnapshotSource's values in
/// request order, and with a cache only a quarter of the field's chunks
/// deep each distinct chunk is still fetched once per call: misses equal
/// the distinct chunks touched, whatever the index order.
TEST_F(StoreTest, ScatteredGatherMatchesSourceAndFetchesEachChunkOnce) {
  for (const auto& g : testing::gather_grids()) {
    field::Snapshot snap(g.grid, 0.0);
    Rng fill(17);
    for (auto& x : snap.add("u").data()) x = fill.normal();
    StoreOptions opts;
    opts.chunk = g.chunk;
    write_store(snap, path("sg.skl2"), opts);
    const field::SnapshotSource want(snap);
    const std::size_t cache_bytes =
        testing::chunk_count(g) / 4 * g.chunk.size() * sizeof(double);

    for (const auto& p : testing::gather_patterns(g.grid, 23)) {
      SCOPED_TRACE(p.name + " on " + std::to_string(g.grid.size()) +
                   " points");
      const ChunkReader reader(path("sg.skl2"), cache_bytes);
      const std::span<const std::size_t> idx(p.idx);
      const auto got = reader.gather("u", idx);
      const auto expected = want.gather("u", idx);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], expected[i]) << "slot " << i;
      }
      EXPECT_EQ(reader.cache_stats().misses,
                testing::distinct_chunks(g, p.idx));
    }
  }
}

TEST_F(StoreTest, ScatteredGatherRejectsOutOfRangeIndex) {
  const auto snap = make_snapshot();
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  write_store(snap, path("oor.skl2"), opts);
  const ChunkReader reader(path("oor.skl2"));
  const std::size_t n = snap.shape().size();
  // n lands inside a valid chunk id on this grid (ix = nx rounds into the
  // last chunk column), so only an explicit bound check catches it.
  for (const auto& idx :
       {std::vector<std::size_t>{n}, std::vector<std::size_t>{0, 1, n},
        std::vector<std::size_t>{n + 1000, 3}}) {
    EXPECT_THROW((void)reader.gather("u", std::span<const std::size_t>(idx)),
                 CheckError);
  }
  std::vector<std::size_t> idx = {0, 1};
  std::vector<double> out(3);
  EXPECT_THROW(reader.gather("u", std::span<const std::size_t>(idx),
                             std::span<double>(out)),
               CheckError);
}

/// Random-order requests from 4 threads on one shared reader whose cache
/// holds two chunks: the grouped gather keeps no per-reader state, so
/// every result must match the snapshot (runs under TSan in CI).
TEST_F(StoreTest, ConcurrentScatteredGather) {
  const auto snap = make_snapshot();
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  write_store(snap, path("csg.skl2"), opts);
  const ChunkReader reader(path("csg.skl2"),
                           /*cache_bytes=*/2 * 64 * sizeof(double));
  const field::SnapshotSource want(snap);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 64;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(700 + w);
      for (std::size_t round = 0; round < kRounds; ++round) {
        const char* var = (round + w) % 3 == 0 ? "c" : "u";
        std::vector<std::size_t> idx(1 + rng.uniform_int(96));
        for (auto& i : idx) i = rng.uniform_int(snap.shape().size());
        const std::span<const std::size_t> span(idx);
        if (reader.gather(var, span) != want.gather(var, span)) {
          failures[w] = "thread " + std::to_string(w) + " round " +
                        std::to_string(round) + " differs";
          return;
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (const auto& f : failures) EXPECT_EQ(f, "");
}

/// The byte budget is strict even when the shard count is absurd relative
/// to it: shards never retain a chunk their slice cannot hold, so resident
/// bytes stay bounded by cache_bytes rather than shards * chunk_bytes.
TEST_F(StoreTest, ShardedCacheNeverExceedsByteBudget) {
  const auto snap = make_snapshot();
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  write_store(snap, path("b.skl2"), opts);
  // One 4^3 chunk of budget split across 8 shards.
  const ChunkReader reader(path("b.skl2"), /*cache_bytes=*/64 * 8,
                           /*shards=*/8);
  for (std::size_t f = 0; f < reader.num_fields(); ++f) {
    for (std::size_t c = 0; c < reader.layout().count(); ++c) {
      const auto values = reader.chunk(f, c);
      EXPECT_EQ(values->size(), reader.layout().box(c).points());
      EXPECT_LE(reader.cache_stats().resident_bytes, 64u * 8u);
    }
  }
}

/// The acceptance bit-exactness test: `threads: N` streaming over ONE
/// shared sharded reader must reproduce the serial in-memory pipeline
/// bit-for-bit for lossless codecs, for both the memory and skl2 paths.
TEST_F(StoreTest, ParallelStreamingIsBitExactWithSerialInMemory) {
  field::Snapshot snap({16, 16, 16}, 0.0);
  Rng rng(17);
  for (const char* name : {"u", "v", "c"}) {
    auto& f = snap.add(name);
    std::size_t i = 0;
    for (auto& x : f.data()) {
      x = std::sin(0.03 * static_cast<double>(i++)) + 0.2 * rng.normal();
    }
  }
  sampling::PipelineConfig cfg;
  cfg.cube = {4, 4, 4};
  cfg.hypercube_method = "maxent";
  cfg.point_method = "maxent";
  cfg.num_hypercubes = 8;
  cfg.num_samples = 12;
  cfg.num_clusters = 4;
  cfg.input_vars = {"u", "v"};
  cfg.output_vars = {"u"};
  cfg.cluster_var = "c";
  cfg.threads = 1;
  const auto serial = run_pipeline(snap, cfg).merged();

  for (const char* codec : {"raw", "delta", "gorilla"}) {
    StoreOptions opts;
    opts.chunk = {8, 8, 8};
    opts.codec = codec;
    const std::string p = path(std::string("mt_") + codec + ".skl2");
    write_store(snap, p, opts);
    // Small cache + explicit shards: workers contend and evict while they
    // stream.
    const ChunkReader reader(p, /*cache_bytes=*/16 << 10, /*shards=*/4);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      cfg.threads = threads;
      const auto streamed =
          sampling::run_pipeline_streaming(reader, cfg).merged();
      EXPECT_EQ(streamed.indices, serial.indices)
          << codec << " threads=" << threads;
      EXPECT_EQ(streamed.features, serial.features)
          << codec << " threads=" << threads;
    }
    // The memory backend with threads must agree too.
    cfg.threads = 4;
    const auto pooled_memory = run_pipeline(snap, cfg).merged();
    EXPECT_EQ(pooled_memory.indices, serial.indices);
    EXPECT_EQ(pooled_memory.features, serial.features);
    cfg.threads = 1;
  }
}

/// Lossy stores keep the selection (data-independent methods) and bound
/// the feature error by the codec tolerance.
TEST_F(StoreTest, StreamingOverQuantStoreStaysWithinTolerance) {
  field::Snapshot snap({16, 16, 16}, 0.0);
  Rng rng(5);
  for (const char* name : {"u", "c"}) {
    auto& f = snap.add(name);
    for (auto& x : f.data()) x = rng.normal();
  }
  sampling::PipelineConfig cfg;
  cfg.cube = {4, 4, 4};
  cfg.hypercube_method = "random";
  cfg.point_method = "random";
  cfg.num_hypercubes = 6;
  cfg.num_samples = 9;
  cfg.input_vars = {"u"};
  cfg.cluster_var = "c";
  const auto in_memory = run_pipeline(snap, cfg).merged();

  StoreOptions opts;
  opts.codec = "quant";
  opts.tolerance = 1e-3;
  write_store(snap, path("quant.skl2"), opts);
  const auto streamed =
      sampling::run_pipeline_streaming(ChunkReader(path("quant.skl2")), cfg)
          .merged();
  ASSERT_EQ(streamed.indices, in_memory.indices);
  ASSERT_EQ(streamed.features.size(), in_memory.features.size());
  for (std::size_t i = 0; i < streamed.features.size(); ++i) {
    EXPECT_NEAR(streamed.features[i], in_memory.features[i], 1e-3);
  }
}

/// The case runner's skl2 backend (spill + stream per snapshot) must
/// sample exactly what the in-memory backend does.
TEST_F(StoreTest, CaseRunnerSkl2BackendMatchesMemoryBackend) {
  const DatasetBundle bundle = make_dataset("SST-P1F4", 3, 0.5);
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

  const auto memory_report = run_case(bundle, cc);
  cc.backend = "skl2";
  cc.store.chunk = {16, 16, 16};
  cc.store.codec = "delta";
  const auto store_report = run_case(bundle, cc);

  EXPECT_EQ(store_report.sampled_points, memory_report.sampled_points);
  EXPECT_GT(store_report.store_bytes, 0u);
  EXPECT_TRUE(std::isfinite(store_report.train.test_loss));

  cc.backend = "s3";
  EXPECT_THROW(run_case(bundle, cc), CheckError);
}

}  // namespace
}  // namespace sickle::store
