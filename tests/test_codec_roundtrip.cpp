// Codec verification harness, part 1: the parameterized round-trip
// matrix. Every codec in the build runs over every generator in the
// dataset zoo plus adversarial value patterns; lossless codecs must
// reproduce the input bit-for-bit (NaN payloads included), quant must
// honor its tolerance, and gorilla must actually earn its bit-granular
// complexity — beating the byte-granular XOR-delta on smooth fields and
// reaching >= 1.3x on native-precision SpectralTurbulence. The encoded
// bytes themselves are pinned too: golden block digests, BitWriter
// against a bit-at-a-time reference, and the four-lane block checksum
// against the one-buffer FNV-1a.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "flow/spectral_turbulence.hpp"
#include "sickle/dataset_zoo.hpp"
#include "store/bit_stream.hpp"
#include "store/chunk_layout.hpp"
#include "store/codec.hpp"

namespace sickle::store {
namespace {

/// Bitwise equality that treats NaN payloads as values, not as
/// unordered — exactly the contract "lossless" makes on disk.
[[nodiscard]] bool bit_equal(std::span<const double> a,
                             std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct SweepResult {
  std::size_t raw_bytes = 0;
  std::size_t encoded_bytes = 0;

  [[nodiscard]] double ratio() const {
    return encoded_bytes == 0
               ? 0.0
               : static_cast<double>(raw_bytes) /
                     static_cast<double>(encoded_bytes);
  }
};

/// Encode/decode every 16^3 chunk of every field of `snap` with `codec`,
/// asserting the codec's fidelity contract, and accumulate the achieved
/// ratio.
SweepResult sweep_snapshot(const Codec& codec, const field::Snapshot& snap,
                           double tolerance, const std::string& tag) {
  SweepResult r;
  const ChunkLayout layout(snap.shape(), {16, 16, 16});
  for (const auto& name : snap.names()) {
    const auto& f = snap.get(name);
    for (std::size_t c = 0; c < layout.count(); ++c) {
      const auto vals =
          extract_chunk(f.data(), snap.shape(), layout.box(c));
      const auto block = codec.encode(vals);
      r.raw_bytes += vals.size() * sizeof(double);
      r.encoded_bytes += block.size();
      const auto back = codec.decode(block, vals.size());
      if (codec.lossless()) {
        // EXPECT + return: one failure per sweep, not one per chunk.
        if (!bit_equal(vals, back)) {
          ADD_FAILURE() << tag << " field " << name << " chunk " << c
                        << " codec " << codec.name()
                        << ": decode not bit-exact";
          return r;
        }
      } else {
        EXPECT_EQ(back.size(), vals.size()) << tag << " " << name;
        for (std::size_t i = 0; i < vals.size(); ++i) {
          const bool ok =
              std::isfinite(vals[i])
                  ? std::abs(vals[i] - back[i]) <= tolerance
                  : bit_equal({&vals[i], 1}, {&back[i], 1});
          if (!ok) {
            ADD_FAILURE() << tag << " " << name << "[" << i << "] codec "
                          << codec.name() << ": " << vals[i]
                          << " != " << back[i];
            return r;
          }
        }
      }
    }
  }
  return r;
}

/// Every codec x every generator in the zoo: fidelity asserted per chunk,
/// ratios reported for the curious.
TEST(CodecRoundTrip, EveryCodecOverEveryZooGenerator) {
  constexpr double kTol = 1e-3;
  const std::vector<std::string> labels = {"TC2D", "OF2D", "SST-P1F4",
                                           "GESTS-2048"};
  for (const auto& label : labels) {
    const auto bundle = sickle::make_dataset(label, 3, 0.5);
    const auto& snap = bundle.data.snapshot(0);
    for (const auto& cname : codec_names()) {
      const auto codec = make_codec(cname, kTol);
      const auto res =
          sweep_snapshot(*codec, snap, kTol, label);
      if (::testing::Test::HasFailure()) return;
      RecordProperty(label + "_" + cname + "_ratio",
                     std::to_string(res.ratio()));
    }
  }
}

/// The D4 acceptance contrast: on SpectralTurbulence at the collections'
/// native (binary32) precision, bit-granular gorilla must deliver >= 1.3x
/// lossless where byte-granular XOR-delta stays near 1x — and it must
/// beat delta outright.
TEST(CodecRoundTrip, GorillaBeatsDeltaOnNativePrecisionSpectralTurbulence) {
  flow::SpectralTurbulenceParams p;
  p.native_f32 = true;
  p.seed = 7;
  flow::SpectralTurbulenceProducer producer(p);
  const auto ds = flow::materialize(producer, "spectral");
  const auto& snap = ds.snapshot(0);

  const auto gorilla = make_codec("gorilla");
  const auto delta = make_codec("delta");
  const auto gr = sweep_snapshot(*gorilla, snap, 0.0, "SpectralTurb-f32");
  const auto dr = sweep_snapshot(*delta, snap, 0.0, "SpectralTurb-f32");
  if (::testing::Test::HasFailure()) return;

  EXPECT_GE(gr.ratio(), 1.3) << "gorilla ratio regressed";
  EXPECT_GT(gr.ratio(), dr.ratio())
      << "gorilla must beat byte-granular xor-delta on smooth fields";
  RecordProperty("gorilla_ratio", std::to_string(gr.ratio()));
  RecordProperty("delta_ratio", std::to_string(dr.ratio()));
}

/// Adversarial value patterns Gorilla-family codecs classically get
/// wrong: NaN (quiet, signalling-ish payloads), +/-Inf, denormals,
/// constants (zero XOR streams), alternating signs (sign-bit-only XOR),
/// and mixtures. All lossless codecs must round-trip each bit-exactly.
TEST(CodecRoundTrip, AdversarialPatternsRoundTripBitExactly) {
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double den = std::numeric_limits<double>::denorm_min();
  const double big = std::numeric_limits<double>::max();

  std::vector<std::pair<std::string, std::vector<double>>> patterns;
  patterns.emplace_back("empty", std::vector<double>{});
  patterns.emplace_back("single", std::vector<double>{3.25});
  patterns.emplace_back("all_nan", std::vector<double>(64, qnan));
  patterns.emplace_back("all_inf", std::vector<double>(64, inf));
  patterns.emplace_back("all_denormal", std::vector<double>(64, den));
  patterns.emplace_back("constant", std::vector<double>(512, -17.125));
  patterns.emplace_back("zeros", std::vector<double>(512, 0.0));
  {
    std::vector<double> v(256);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = (i % 2 == 0 ? 1.0 : -1.0) * 2.5;
    }
    patterns.emplace_back("alternating_sign", std::move(v));
  }
  {
    std::vector<double> v(256);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = (i % 2 == 0) ? 0.0 : -0.0;  // sign-of-zero must survive
    }
    patterns.emplace_back("signed_zeros", std::move(v));
  }
  {
    // NaN payload bits are data too (bit-exact means bit-exact).
    std::vector<double> v(128);
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::uint64_t bits = 0x7FF8000000000000ull | (i * 2654435761ull);
      std::memcpy(&v[i], &bits, sizeof(double));
    }
    patterns.emplace_back("nan_payloads", std::move(v));
  }
  {
    std::vector<double> v(512);
    Rng rng(99);
    for (auto& x : v) {
      switch (rng.uniform_int(6)) {
        case 0: x = qnan; break;
        case 1: x = inf; break;
        case 2: x = -inf; break;
        case 3: x = den * static_cast<double>(1 + rng.uniform_int(9)); break;
        case 4: x = big * (0.5 + 0.5 * rng.uniform()); break;
        default: x = rng.normal(); break;
      }
    }
    patterns.emplace_back("mixed_specials", std::move(v));
  }

  for (const auto& cname : codec_names()) {
    const auto codec = make_codec(cname, 1e-6);
    if (!codec->lossless()) continue;
    for (const auto& [tag, vals] : patterns) {
      const auto block = codec->encode(vals);
      const auto back = codec->decode(block, vals.size());
      EXPECT_TRUE(bit_equal(vals, back)) << cname << " on " << tag;
    }
  }
  // Quant: non-finite chunks take the raw fallback, which is bit-exact.
  const auto quant = make_codec("quant", 1e-6);
  for (const auto& [tag, vals] : patterns) {
    if (tag != "all_nan" && tag != "mixed_specials" && tag != "all_inf") {
      continue;
    }
    const auto back = quant->decode(quant->encode(vals), vals.size());
    EXPECT_TRUE(bit_equal(vals, back)) << "quant fallback on " << tag;
  }
}

/// Gorilla's window encoding has boundary cases (window reuse after a
/// zero-XOR run, full-width 64-bit windows, lead+len == 64); exercise
/// them with crafted bit patterns.
TEST(CodecRoundTrip, GorillaWindowBoundaryCases) {
  const auto codec = make_codec("gorilla");
  auto from_bits = [](std::uint64_t b) {
    double d;
    std::memcpy(&d, &b, sizeof(d));
    return d;
  };
  const std::vector<std::vector<double>> cases = {
      // Full 64-bit XOR (sign + all mantissa flips): window is 64 wide.
      {1.0, -std::numeric_limits<double>::max(), 1.0},
      // XOR confined to the lowest bit, then the highest.
      {from_bits(0x0000000000000001ull), from_bits(0x0000000000000000ull),
       from_bits(0x8000000000000000ull)},
      // Repeats (zero XOR) interleaved with window reuse.
      {2.0, 2.0, 2.0 + 1e-9, 2.0 + 1e-9, 2.0 + 2e-9, 2.0},
      // Shrinking then growing windows force re-emission.
      {from_bits(0x3FF0000000000000ull), from_bits(0x3FF0000000FF0000ull),
       from_bits(0x3FF00000000000FFull), from_bits(0x3FF0FF0000000000ull)},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& vals = cases[i];
    const auto back = codec->decode(codec->encode(vals), vals.size());
    EXPECT_TRUE(bit_equal(vals, back)) << "case " << i;
  }
}

/// The golden inputs: one 16^3 chunk each of f32-native smooth data
/// (gorilla's best case), full-precision turbulence (what the ledger
/// stores), and an adversarial mix of NaN, +/-Inf, +/-0 and denormals.
/// The smooth and adversarial inputs use only IEEE basic arithmetic and
/// integer draws, so they are the same on every platform.
std::vector<double> golden_smooth_f32() {
  std::vector<double> v(4096);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double t = static_cast<double>(i) / 4096.0;
    v[i] = static_cast<double>(
        static_cast<float>(300.0 + t * (1.5 - t * (2.0 - t))));
  }
  return v;
}

std::vector<double> golden_turbulence() {
  flow::SpectralTurbulenceParams p;
  p.nx = p.ny = p.nz = 16;
  p.seed = 11;
  flow::SpectralTurbulenceProducer producer(p);
  const auto ds = flow::materialize(producer, "spectral");
  const auto data = ds.snapshot(0).get("u").data();
  return {data.begin(), data.end()};
}

std::vector<double> golden_adversarial() {
  std::vector<double> v(4096);
  Rng rng(2024);
  for (auto& x : v) {
    switch (rng.uniform_int(8)) {
      case 0: x = std::numeric_limits<double>::quiet_NaN(); break;
      case 1: x = std::numeric_limits<double>::infinity(); break;
      case 2: x = -std::numeric_limits<double>::infinity(); break;
      case 3: x = 0.0; break;
      case 4: x = -0.0; break;
      case 5:
        x = std::numeric_limits<double>::denorm_min() *
            static_cast<double>(1 + rng.uniform_int(1000));
        break;
      default: x = rng.uniform(-1e3, 1e3); break;
    }
  }
  return v;
}

[[nodiscard]] std::uint64_t digest(std::span<const double> v) {
  return fnv1a64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(v.data()),
      v.size() * sizeof(double)));
}

/// The encoders may get faster, never different: FNV-1a of each encoded
/// block is pinned for raw, delta, gorilla and quant (tolerance 1e-3) on
/// the three golden inputs. The turbulence input goes through libm, so
/// its own digest is pinned first; on a platform whose generator rounds
/// differently that input is reported and skipped rather than failed.
TEST(CodecGolden, EncodedBytesArePinned) {
  struct Golden {
    const char* input;
    std::vector<double> values;
    std::uint64_t input_digest;
    std::array<std::uint64_t, 4> blocks;  ///< raw, delta, gorilla, quant
  };
  const std::array<const char*, 4> codecs = {"raw", "delta", "gorilla",
                                             "quant"};
  const std::vector<Golden> goldens = {
      {"smooth_f32",
       golden_smooth_f32(),
       0x5825904c7a794e23ull,
       {0x5825904c7a794e23ull, 0x74186a6f8a4cf666ull, 0xfdb8fd8cbc46ab8full,
        0xf7f97ce841dbdb99ull}},
      {"turbulence",
       golden_turbulence(),
       0xe2001ff2e20ae0e1ull,
       {0xe2001ff2e20ae0e1ull, 0x24d66971b91786b1ull, 0x8bbd6c29b441df8eull,
        0x5c1bc4a2f5ffcac3ull}},
      {"adversarial",
       golden_adversarial(),
       0xd67294551db29d19ull,
       {0xd67294551db29d19ull, 0x1c21927ad64ba447ull, 0x1a0c7cbdd4b84cf0ull,
        0x409226b471b04b08ull}},
  };
  for (const auto& g : goldens) {
    if (digest(g.values) != g.input_digest) {
      ASSERT_STREQ(g.input, "turbulence") << "input drifted";
      std::printf("golden input %s differs on this platform; skipped\n",
                  g.input);
      continue;
    }
    for (std::size_t c = 0; c < codecs.size(); ++c) {
      const auto block = make_codec(codecs[c], 1e-3)->encode(g.values);
      EXPECT_EQ(fnv1a64(std::span<const std::uint8_t>(block)), g.blocks[c])
          << codecs[c] << " on " << g.input;
    }
  }
}

/// BitWriter's word-at-a-time packing must emit exactly the stream a
/// bit-at-a-time LSB-first packer does, for any sequence of field widths
/// 0..64 (whatever the stale high bits of each value), including the
/// zero-padded final byte — and BitReader must read the fields back.
TEST(BitStream, WriterMatchesBitAtATimeReference) {
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t fields = rng.uniform_int(300);
    std::vector<std::pair<std::uint64_t, unsigned>> puts(fields);
    std::vector<std::uint8_t> ref;
    std::size_t nbits = 0;
    // Half the trials give a worst-case hint, half a hint that is too
    // small, so the growth path is covered.
    BitWriter w(trial % 2 == 0 ? fields * 64 : fields);
    for (auto& [v, bits] : puts) {
      v = rng.next();
      bits = static_cast<unsigned>(rng.uniform_int(65));
      w.put(v, bits);
      for (unsigned b = 0; b < bits; ++b, ++nbits) {
        if (nbits % 8 == 0) ref.push_back(0);
        ref.back() |= static_cast<std::uint8_t>(((v >> b) & 1u) << (nbits % 8));
      }
    }
    const auto got = w.finish();
    ASSERT_EQ(got, ref) << "trial " << trial;
    BitReader r(got);
    for (const auto& [v, bits] : puts) {
      const std::uint64_t mask =
          bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
      ASSERT_EQ(r.get(bits), v & mask) << "trial " << trial;
    }
    EXPECT_TRUE(r.exhausted());
  }
}

/// The four-lane checksum equals the one-buffer FNV-1a on every buffer,
/// for 0..9 buffers of uneven lengths, empty ones included.
TEST(BlockChecksum, ManyEqualsOneAtATime) {
  Rng rng(17);
  for (std::size_t n = 0; n <= 9; ++n) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::vector<std::uint8_t>> data(n);
      for (auto& d : data) {
        // One buffer in four is empty; the rest vary from 1 byte to 4 KiB.
        d.resize(rng.uniform_int(4) == 0 ? 0 : 1 + rng.uniform_int(4096));
        for (auto& b : d) b = static_cast<std::uint8_t>(rng.next());
      }
      const std::vector<std::span<const std::uint8_t>> views(data.begin(),
                                                             data.end());
      std::vector<std::uint64_t> sums(n, 0);
      fnv1a64_many(views, sums);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(sums[i], fnv1a64(views[i]))
            << n << " buffers, trial " << trial << ", buffer " << i;
      }
    }
  }
  std::vector<std::uint64_t> wrong(2);
  EXPECT_THROW(fnv1a64_many({}, wrong), CheckError);
}

#ifdef SICKLE_HAS_ZSTD
TEST(CodecRoundTrip, ZstdIsRegisteredWhenCompiledIn) {
  const auto codec = make_codec("zstd");
  EXPECT_EQ(codec->id(), CodecId::kZstd);
  EXPECT_TRUE(codec->lossless());
  const auto names = codec_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "zstd"), names.end());
}
#endif

}  // namespace
}  // namespace sickle::store
