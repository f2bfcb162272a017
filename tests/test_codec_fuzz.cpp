// Codec verification harness, part 2: a deterministic structure-aware
// corruption fuzzer. Two layers:
//
//  * Codec level: encoded blocks get bit-flipped, truncated, and spliced,
//    then decoded. A bare codec has no integrity metadata, so the only
//    contract is "no crash, no overallocation": decode must either throw
//    a typed sickle error or return exactly `count` values.
//
//  * Container level (the one SKL2 and SKL3 layouts): the same mutations
//    over the header, payload and index regions of real store files.
//    Here the format DOES carry integrity metadata (an FNV-1a index
//    checksum and per-block payload checksums), and the header fields
//    are bounded before anything is sized from them, so the contract
//    tightens to "bit-exact or typed error" — silent wrong data is a
//    failure.
//
// Everything is seeded and offset-loop driven (no wall-clock randomness),
// extending the single-offset byte-flip tests of the store suites into
// full-file sweeps. Runs under ASan/UBSan/TSan in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "field/field.hpp"
#include "file_bytes.hpp"
#include "store/codec.hpp"
#include "store/series_store.hpp"
#include "store/snapshot_store.hpp"

namespace sickle::store {
namespace {

[[nodiscard]] bool bit_equal(std::span<const double> a,
                             std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Value patterns the fuzzer mutates around — smooth (long gorilla
/// windows), rough (wide windows), and the adversarial specials.
[[nodiscard]] std::vector<std::pair<std::string, std::vector<double>>>
fuzz_patterns() {
  std::vector<std::pair<std::string, std::vector<double>>> out;
  {
    std::vector<double> v(96);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = 300.0 + 0.25 * static_cast<double>(i % 7);
    }
    out.emplace_back("smooth", std::move(v));
  }
  {
    std::vector<double> v(96);
    Rng rng(4242);
    for (auto& x : v) x = rng.normal();
    out.emplace_back("rough", std::move(v));
  }
  out.emplace_back("constant", std::vector<double>(96, 1.5));
  {
    std::vector<double> v(64, std::numeric_limits<double>::quiet_NaN());
    v[10] = std::numeric_limits<double>::infinity();
    v[20] = -std::numeric_limits<double>::infinity();
    v[30] = std::numeric_limits<double>::denorm_min();
    v[40] = 0.0;
    out.emplace_back("specials", std::move(v));
  }
  return out;
}

/// The codec-level contract under mutation: decode returns `count` values
/// or throws a typed sickle error. Crashes, hangs, and unhandled foreign
/// exceptions are the bugs this hunts (sanitizers catch the memory side).
void expect_contained_decode(const Codec& codec,
                             const std::vector<std::uint8_t>& block,
                             std::size_t count, const std::string& what) {
  try {
    const auto got = codec.decode(block, count);
    EXPECT_EQ(got.size(), count) << what;
  } catch (const RuntimeError&) {
  } catch (const CheckError&) {
  }
}

TEST(CodecFuzz, BitFlippedBlocksNeverCrash) {
  for (const auto& cname : codec_names()) {
    const auto codec = make_codec(cname, 1e-6);
    for (const auto& [tag, vals] : fuzz_patterns()) {
      const auto block = codec->encode(vals);
      for (std::size_t off = 0; off < block.size(); ++off) {
        // One deterministic bit per byte keeps the sweep O(size) while
        // still walking every control-bit neighborhood over the offsets.
        auto mut = block;
        mut[off] ^= static_cast<std::uint8_t>(1u << (off % 8));
        expect_contained_decode(*codec, mut, vals.size(),
                                cname + "/" + tag + " flip@" +
                                    std::to_string(off));
      }
    }
  }
}

TEST(CodecFuzz, TruncatedBlocksNeverCrash) {
  for (const auto& cname : codec_names()) {
    const auto codec = make_codec(cname, 1e-6);
    for (const auto& [tag, vals] : fuzz_patterns()) {
      const auto block = codec->encode(vals);
      for (std::size_t len = 0; len < block.size(); ++len) {
        std::vector<std::uint8_t> mut(block.begin(),
                                      block.begin() +
                                          static_cast<std::ptrdiff_t>(len));
        expect_contained_decode(*codec, mut, vals.size(),
                                cname + "/" + tag + " trunc@" +
                                    std::to_string(len));
      }
    }
  }
}

TEST(CodecFuzz, SplicedAndMiscountedBlocksNeverCrash) {
  const auto patterns = fuzz_patterns();
  for (const auto& cname : codec_names()) {
    const auto codec = make_codec(cname, 1e-6);
    // Splice: head of one pattern's encoding grafted onto the tail of
    // another's — structurally valid prefixes with inconsistent suffixes.
    for (std::size_t a = 0; a < patterns.size(); ++a) {
      for (std::size_t b = 0; b < patterns.size(); ++b) {
        if (a == b) continue;
        const auto ba = codec->encode(patterns[a].second);
        const auto bb = codec->encode(patterns[b].second);
        const std::size_t cut = std::min(ba.size(), bb.size()) / 2;
        std::vector<std::uint8_t> mut(
            ba.begin(), ba.begin() + static_cast<std::ptrdiff_t>(cut));
        mut.insert(mut.end(),
                   bb.begin() + static_cast<std::ptrdiff_t>(
                                    std::min(cut, bb.size())),
                   bb.end());
        expect_contained_decode(*codec, mut, patterns[a].second.size(),
                                cname + " splice " + patterns[a].first +
                                    "+" + patterns[b].first);
      }
    }
    // Wrong declared count: the count is index metadata, so a corrupted
    // index must not let decode scribble past the requested size.
    const auto block = codec->encode(patterns[0].second);
    const std::size_t n = patterns[0].second.size();
    for (const std::size_t count :
         {std::size_t{0}, n - 1, n + 1, n * 2, std::size_t{100000}}) {
      expect_contained_decode(*codec, block, count,
                              cname + " count=" + std::to_string(count));
    }
  }
}

// A declared count the block cannot hold fails typed before decode sizes
// anything from it — the count is index metadata, and a crafted one must
// neither overflow a size product nor escape as std::bad_alloc or
// std::length_error.

constexpr std::size_t kHugeCount = std::size_t{1} << 40;
constexpr std::size_t kWrappingCount = std::size_t{1} << 61;  // * 8 wraps

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = 0.25 * static_cast<double>(i);
  return v;
}

TEST(CodecFuzz, RawRejectsACountItsBlockCannotHold) {
  const RawCodec codec;
  EXPECT_THROW((void)codec.decode({}, kWrappingCount), RuntimeError);
  EXPECT_THROW((void)codec.decode(codec.encode(ramp(64)), kHugeCount),
               RuntimeError);
}

TEST(CodecFuzz, DeltaRejectsACountItsBlockCannotHold) {
  const DeltaCodec codec;
  EXPECT_THROW((void)codec.decode({}, std::numeric_limits<std::size_t>::max()),
               RuntimeError);
  EXPECT_THROW((void)codec.decode(codec.encode(ramp(64)), kHugeCount),
               RuntimeError);
}

TEST(CodecFuzz, GorillaRejectsACountItsBlockCannotHold) {
  const GorillaCodec codec;
  const auto block = codec.encode(ramp(64));
  EXPECT_THROW((void)codec.decode(block, kHugeCount), RuntimeError);
  EXPECT_THROW((void)codec.decode(block, std::numeric_limits<std::size_t>::max()),
               RuntimeError);
  // One bit per value after the first 64 is the floor: a block of 8 + k
  // bytes rejects a count above 1 + 8k before decoding anything.
  EXPECT_THROW((void)codec.decode(std::vector<std::uint8_t>(9, 0), 10),
               RuntimeError);
  EXPECT_EQ(codec.decode(std::vector<std::uint8_t>(9, 0), 9).size(), 9u);
}

TEST(CodecFuzz, QuantRejectsACountItsBlockCannotHold) {
  const QuantCodec codec(1e-3);
  const auto packed = codec.encode(ramp(64));  // bits > 0
  EXPECT_THROW((void)codec.decode(packed, kHugeCount), RuntimeError);
  // The raw fallback: its mode byte alone, then a count whose byte size
  // wraps to zero.
  const std::vector<std::uint8_t> fallback_mode_only{1};
  EXPECT_THROW((void)codec.decode(fallback_mode_only, kWrappingCount),
               RuntimeError);
  auto specials = ramp(64);
  specials[5] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)codec.decode(codec.encode(specials), kHugeCount),
               RuntimeError);
}

// ---------------------------------------------------------------------------
// Container-level fuzzing: real SKL2/SKL3 files.
// ---------------------------------------------------------------------------

class ContainerFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sickle_codec_fuzz_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Small snapshot with smooth + special values so mutations land on
  /// realistic gorilla bitstreams as well as raw NaN bytes.
  [[nodiscard]] static field::Snapshot make_snapshot(double t) {
    field::Snapshot snap({8, 6, 4}, t);
    std::vector<double> u(8 * 6 * 4);
    std::vector<double> c(8 * 6 * 4);
    for (std::size_t i = 0; i < u.size(); ++i) {
      u[i] = 300.0 + 0.5 * static_cast<double>(i % 9) + t;
      c[i] = static_cast<double>(i) * 1e-3;
    }
    c[3] = std::numeric_limits<double>::quiet_NaN();
    c[7] = std::numeric_limits<double>::infinity();
    c[11] = std::numeric_limits<double>::denorm_min();
    snap.add("u", std::move(u));
    snap.add("c", std::move(c));
    return snap;
  }

  std::filesystem::path dir_;
};

/// Sweep single-bit flips over every byte of an SKL2 file. Every
/// mutation must either fail with a typed error (open or chunk access) or
/// leave every decoded value bit-identical — the per-block checksums are
/// what make that promise over the payload region, and the header bounds
/// over the header.
TEST_F(ContainerFuzz, Skl2BitFlipSweepIsExactOrTypedError) {
  const auto snap = make_snapshot(0.0);
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  opts.codec = "gorilla";
  write_store(snap, path("base.skl2"), opts);
  const auto clean = testing::read_bytes(path("base.skl2"));

  // Baseline decode for bit-exact comparison.
  std::vector<std::vector<double>> ref;
  {
    ChunkReader reader(path("base.skl2"));
    for (const auto& name : reader.variables()) {
      ref.push_back(reader.load_field(name));
    }
  }

  // Walk the whole file from byte 0: header, payload, index. The flipped
  // bit rotates with the offset so control and data bits both get hit
  // across the loop.
  std::size_t silent = 0;
  for (std::size_t off = 0; off < clean.size(); ++off) {
    auto mut = clean;
    mut[off] ^= static_cast<std::uint8_t>(1u << (off % 8));
    testing::write_bytes(path("mut.skl2"), mut);
    try {
      ChunkReader reader(path("mut.skl2"));
      const auto names = reader.variables();
      ASSERT_EQ(names.size(), ref.size()) << "flip@" << off;
      for (std::size_t i = 0; i < names.size(); ++i) {
        const auto got = reader.load_field(names[i]);
        if (!bit_equal(ref[i], got)) {
          ++silent;
          ADD_FAILURE() << "silent corruption: flip@" << off << " field "
                        << names[i];
        }
      }
    } catch (const RuntimeError&) {
    } catch (const CheckError&) {
    }
    if (silent > 3) break;  // don't drown the log once it's broken
  }
}

TEST_F(ContainerFuzz, Skl2TruncationSweepIsTypedError) {
  const auto snap = make_snapshot(0.0);
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  opts.codec = "delta";
  write_store(snap, path("base.skl2"), opts);
  const auto clean = testing::read_bytes(path("base.skl2"));

  // Any shortening removes index/footer bytes, so open (or the first
  // chunk access) must raise a typed error — never garbage data.
  const std::size_t step = std::max<std::size_t>(1, clean.size() / 97);
  for (std::size_t len = 0; len < clean.size(); len += step) {
    std::vector<std::uint8_t> mut(
        clean.begin(), clean.begin() + static_cast<std::ptrdiff_t>(len));
    testing::write_bytes(path("mut.skl2"), mut);
    try {
      ChunkReader reader(path("mut.skl2"));
      for (const auto& name : reader.variables()) {
        (void)reader.load_field(name);
      }
      ADD_FAILURE() << "truncation to " << len << " bytes was accepted";
    } catch (const RuntimeError&) {
    } catch (const CheckError&) {
    }
  }
}

TEST_F(ContainerFuzz, Skl2PayloadSpliceFailsChecksum) {
  // Two stores with different values: graft a block-sized slice of one
  // payload into the other. The index checksum still matches (the index
  // is untouched), so only the per-block payload checksums can catch it.
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  opts.codec = "raw";
  write_store(make_snapshot(0.0), path("a.skl2"), opts);
  write_store(make_snapshot(5.0), path("b.skl2"), opts);
  const auto a = testing::read_bytes(path("a.skl2"));
  const auto b = testing::read_bytes(path("b.skl2"));
  ASSERT_EQ(a.size(), b.size());

  // Identical headers, differing payloads: the first differing byte marks
  // the payload region without reaching into reader internals.
  std::size_t payload = 0;
  while (payload < a.size() && a[payload] == b[payload]) ++payload;
  ASSERT_LT(payload, a.size());

  std::vector<double> ref;
  {
    ChunkReader reader(path("a.skl2"));
    ref = reader.load_field("u");
  }

  for (const std::size_t shift : {std::size_t{16}, std::size_t{64},
                                  std::size_t{256}}) {
    auto mut = a;
    const std::size_t n =
        std::min<std::size_t>(128, mut.size() - payload - shift);
    std::memcpy(mut.data() + payload, b.data() + payload + shift, n);
    testing::write_bytes(path("mut.skl2"), mut);
    try {
      ChunkReader reader(path("mut.skl2"));
      const auto got = reader.load_field("u");
      EXPECT_TRUE(bit_equal(ref, got)) << "splice shift " << shift;
    } catch (const RuntimeError&) {
    } catch (const CheckError&) {
    }
  }
}

/// The same flip sweep over an SKL3 series file: header, payload,
/// per-snapshot summaries and histograms, and index entries (3 words with
/// the payload checksum) all get walked.
TEST_F(ContainerFuzz, Skl3BitFlipSweepIsExactOrTypedError) {
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  opts.codec = "gorilla";
  SeriesWriter writer(path("base.skl3"), opts);
  writer.append(make_snapshot(0.0));
  writer.append(make_snapshot(0.5));
  writer.close();
  const auto clean = testing::read_bytes(path("base.skl3"));

  std::vector<std::vector<double>> ref;
  {
    SeriesReader reader(path("base.skl3"));
    for (std::size_t t = 0; t < reader.num_snapshots(); ++t) {
      const auto s = reader.load_snapshot(t);
      for (const auto& name : s.names()) {
        const auto& d = s.get(name).data();
        ref.emplace_back(d.begin(), d.end());
      }
    }
  }

  std::size_t silent = 0;
  for (std::size_t off = 0; off < clean.size(); ++off) {
    auto mut = clean;
    mut[off] ^= static_cast<std::uint8_t>(1u << (off % 8));
    testing::write_bytes(path("mut.skl3"), mut);
    try {
      SeriesReader reader(path("mut.skl3"));
      std::size_t k = 0;
      bool ok = reader.num_snapshots() == 2;
      for (std::size_t t = 0; ok && t < reader.num_snapshots(); ++t) {
        const auto s = reader.load_snapshot(t);
        for (const auto& name : s.names()) {
          const auto& d = s.get(name).data();
          ok = k < ref.size() &&
               bit_equal(ref[k], {d.data(), d.size()});
          ++k;
          if (!ok) break;
        }
      }
      if (!ok) {
        ++silent;
        ADD_FAILURE() << "silent corruption: flip@" << off;
      }
    } catch (const RuntimeError&) {
    } catch (const CheckError&) {
    }
    if (silent > 3) break;
  }
}

TEST_F(ContainerFuzz, Skl3TruncationSweepIsTypedError) {
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  opts.codec = "delta";
  SeriesWriter writer(path("base.skl3"), opts);
  writer.append(make_snapshot(0.0));
  writer.append(make_snapshot(0.5));
  writer.close();
  const auto clean = testing::read_bytes(path("base.skl3"));

  const std::size_t step = std::max<std::size_t>(1, clean.size() / 97);
  for (std::size_t len = 0; len < clean.size(); len += step) {
    std::vector<std::uint8_t> mut(
        clean.begin(), clean.begin() + static_cast<std::ptrdiff_t>(len));
    testing::write_bytes(path("mut.skl3"), mut);
    try {
      SeriesReader reader(path("mut.skl3"));
      for (std::size_t t = 0; t < reader.num_snapshots(); ++t) {
        (void)reader.load_snapshot(t);
      }
      ADD_FAILURE() << "truncation to " << len << " bytes was accepted";
    } catch (const RuntimeError&) {
    } catch (const CheckError&) {
    }
  }
}

}  // namespace
}  // namespace sickle::store
