#include "store/codec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "store/bit_stream.hpp"

namespace sickle::store {

namespace {

template <typename T>
void append_pod(std::vector<std::uint8_t>& out, const T& v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
T read_pod(std::span<const std::uint8_t> block, std::size_t& pos) {
  if (pos + sizeof(T) > block.size()) {
    throw RuntimeError("truncated SKL2 chunk block");
  }
  T v{};
  std::memcpy(&v, block.data() + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}

/// Bytes needed for the value's significant (non-leading-zero) part.
unsigned significant_bytes(std::uint64_t v) noexcept {
  return v == 0 ? 0u : (std::bit_width(v) + 7u) / 8u;
}

// Quant block layout: mode byte 0 = quantized, 1 = raw fallback.
constexpr std::uint8_t kQuantMode = 0;
constexpr std::uint8_t kRawFallbackMode = 1;
// Level cap: packed widths stay <= 48 bits so the bit accumulator never
// overflows and pathological (range / tolerance) ratios fall back to raw.
constexpr double kMaxLevels = 281474976710655.0;  // 2^48 - 1

}  // namespace

std::vector<std::uint8_t> RawCodec::encode(
    std::span<const double> values) const {
  std::vector<std::uint8_t> out(values.size() * sizeof(double));
  // An empty span may carry a null pointer, and memcpy from null is UB
  // even for zero bytes.
  if (!out.empty()) std::memcpy(out.data(), values.data(), out.size());
  return out;
}

std::vector<double> RawCodec::decode(std::span<const std::uint8_t> block,
                                     std::size_t count) const {
  if (block.size() != count * sizeof(double)) {
    throw RuntimeError("raw chunk block has wrong size");
  }
  std::vector<double> out(count);
  if (count > 0) std::memcpy(out.data(), block.data(), block.size());
  return out;
}

std::vector<std::uint8_t> DeltaCodec::encode(
    std::span<const double> values) const {
  const std::size_t n = values.size();
  const std::size_t nibble_bytes = (n + 1) / 2;
  std::vector<std::uint8_t> out(nibble_bytes, 0);
  out.reserve(nibble_bytes + n * sizeof(double));
  // The XOR stencil is elementwise 64-bit integer work, so it vectorizes
  // on any 128-bit ISA; the byte counts (scalar lzcnt is one instruction)
  // ride along in the serial variable-length emission below.
  std::vector<std::uint64_t> xors(n);
  const double* vals = values.data();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t u = std::bit_cast<std::uint64_t>(vals[i]);
    const std::uint64_t p =
        i == 0 ? 0 : std::bit_cast<std::uint64_t>(vals[i - 1]);
    xors[i] = u ^ p;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned nb = significant_bytes(xors[i]);
    std::uint64_t d = xors[i];
    out[i / 2] |= static_cast<std::uint8_t>(nb << ((i % 2) * 4));
    for (unsigned b = 0; b < nb; ++b) {
      out.push_back(static_cast<std::uint8_t>(d & 0xFF));
      d >>= 8;
    }
  }
  return out;
}

std::vector<double> DeltaCodec::decode(std::span<const std::uint8_t> block,
                                       std::size_t count) const {
  const std::size_t nibble_bytes = (count + 1) / 2;
  if (block.size() < nibble_bytes) {
    throw RuntimeError("truncated SKL2 chunk block");
  }
  std::vector<double> out(count);
  std::size_t pos = nibble_bytes;
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const unsigned nb = (block[i / 2] >> ((i % 2) * 4)) & 0xF;
    if (nb > 8 || pos + nb > block.size()) {
      throw RuntimeError("malformed delta chunk block");
    }
    std::uint64_t d = 0;
    for (unsigned b = 0; b < nb; ++b) {
      d |= static_cast<std::uint64_t>(block[pos++]) << (b * 8);
    }
    prev ^= d;
    out[i] = std::bit_cast<double>(prev);
  }
  return out;
}

std::vector<std::uint8_t> GorillaCodec::encode(
    std::span<const double> values) const {
  const std::size_t n = values.size();
  if (n == 0) return {};
  // Elementwise precompute (vectorizable): the XOR stencil is pure 64-bit
  // integer work. Zero counts (single scalar lzcnt/tzcnt instructions,
  // which 128-bit ISAs cannot vectorize anyway) stay in the serial
  // bit-granular emission below.
  std::vector<std::uint64_t> xors(n);
  const double* vals = values.data();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t u = std::bit_cast<std::uint64_t>(vals[i]);
    const std::uint64_t p =
        i == 0 ? u : std::bit_cast<std::uint64_t>(vals[i - 1]);
    xors[i] = u ^ p;
  }
  BitWriter w;
  w.put(std::bit_cast<std::uint64_t>(vals[0]), 64);
  unsigned win_lead = 0, win_trail = 0, win_len = 0;
  bool have_window = false;
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint64_t x = xors[i];
    if (x == 0) {
      w.put(0, 1);
      continue;
    }
    w.put(1, 1);
    const unsigned lz = static_cast<unsigned>(std::countl_zero(x));
    const unsigned tz = static_cast<unsigned>(std::countr_zero(x));
    const unsigned len = 64 - lz - tz;
    if (have_window && lz >= win_lead && tz >= win_trail) {
      w.put(0, 1);
      w.put(x >> win_trail, win_len);
    } else {
      w.put(1, 1);
      w.put(lz, 6);
      w.put(len - 1, 6);
      w.put(x >> tz, len);
      win_lead = lz;
      win_trail = tz;
      win_len = len;
      have_window = true;
    }
  }
  return w.finish();
}

std::vector<double> GorillaCodec::decode(std::span<const std::uint8_t> block,
                                         std::size_t count) const {
  if (count == 0) {
    if (!block.empty()) throw RuntimeError("gorilla chunk block has wrong size");
    return {};
  }
  BitReader r(block);
  std::vector<double> out(count);
  std::uint64_t u = r.get(64);
  out[0] = std::bit_cast<double>(u);
  unsigned win_trail = 0, win_len = 0;
  bool have_window = false;
  for (std::size_t i = 1; i < count; ++i) {
    if (r.get(1) == 0) {
      out[i] = std::bit_cast<double>(u);
      continue;
    }
    std::uint64_t x;
    if (r.get(1) == 0) {
      if (!have_window) {
        throw RuntimeError("malformed gorilla chunk block");
      }
      x = r.get(win_len) << win_trail;
    } else {
      const auto lz = static_cast<unsigned>(r.get(6));
      const auto len = static_cast<unsigned>(r.get(6)) + 1;
      if (lz + len > 64) {
        throw RuntimeError("malformed gorilla chunk block");
      }
      win_trail = 64 - lz - len;
      win_len = len;
      have_window = true;
      x = r.get(len) << win_trail;
    }
    u ^= x;
    out[i] = std::bit_cast<double>(u);
  }
  if (!r.exhausted()) {
    throw RuntimeError("gorilla chunk block has wrong size");
  }
  return out;
}

QuantCodec::QuantCodec(double tolerance) : tolerance_(tolerance) {
  SICKLE_CHECK_MSG(tolerance > 0.0, "quant codec tolerance must be > 0");
}

std::vector<std::uint8_t> QuantCodec::encode(
    std::span<const double> values) const {
  if (values.empty()) return {};
  double lo = values[0], hi = values[0];
  bool finite = true;
  for (const double x : values) {
    finite = finite && std::isfinite(x);
    lo = x < lo ? x : lo;
    hi = x > hi ? x : hi;
  }
  const double step = 2.0 * tolerance_;
  std::vector<std::uint8_t> out;
  if (!finite || (hi - lo) / step > kMaxLevels) {
    out.reserve(1 + values.size() * sizeof(double));
    out.push_back(kRawFallbackMode);
    const auto* p = reinterpret_cast<const std::uint8_t*>(values.data());
    out.insert(out.end(), p, p + values.size() * sizeof(double));
    return out;
  }
  const auto qmax = static_cast<std::uint64_t>(std::llround((hi - lo) / step));
  const auto bits = static_cast<std::uint8_t>(std::bit_width(qmax));
  out.reserve(1 + 2 * sizeof(double) + 1 +
              (values.size() * bits + 7) / 8);
  out.push_back(kQuantMode);
  append_pod(out, lo);
  append_pod(out, step);
  out.push_back(bits);
  // LSB-first bit packing; bits <= 48 keeps the accumulator within 64 bits.
  std::uint64_t acc = 0;
  unsigned acc_bits = 0;
  for (const double x : values) {
    const auto q = static_cast<std::uint64_t>(std::llround((x - lo) / step));
    acc |= q << acc_bits;
    acc_bits += bits;
    while (acc_bits >= 8) {
      out.push_back(static_cast<std::uint8_t>(acc & 0xFF));
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  if (acc_bits > 0) out.push_back(static_cast<std::uint8_t>(acc & 0xFF));
  return out;
}

std::vector<double> QuantCodec::decode(std::span<const std::uint8_t> block,
                                       std::size_t count) const {
  if (count == 0) return {};
  std::size_t pos = 0;
  const auto mode = read_pod<std::uint8_t>(block, pos);
  if (mode == kRawFallbackMode) {
    if (block.size() - pos != count * sizeof(double)) {
      throw RuntimeError("quant raw-fallback block has wrong size");
    }
    std::vector<double> out(count);
    std::memcpy(out.data(), block.data() + pos, count * sizeof(double));
    return out;
  }
  if (mode != kQuantMode) throw RuntimeError("unknown quant chunk mode");
  const auto lo = read_pod<double>(block, pos);
  const auto step = read_pod<double>(block, pos);
  const auto bits = read_pod<std::uint8_t>(block, pos);
  if (bits > 48) throw RuntimeError("malformed quant chunk block");
  std::vector<double> out(count);
  if (bits == 0) {
    for (double& x : out) x = lo;
    return out;
  }
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  std::uint64_t acc = 0;
  unsigned acc_bits = 0;
  for (std::size_t i = 0; i < count; ++i) {
    while (acc_bits < bits) {
      if (pos >= block.size()) {
        throw RuntimeError("truncated SKL2 chunk block");
      }
      acc |= static_cast<std::uint64_t>(block[pos++]) << acc_bits;
      acc_bits += 8;
    }
    const std::uint64_t q = acc & mask;
    acc >>= bits;
    acc_bits -= bits;
    out[i] = lo + static_cast<double>(q) * step;
  }
  return out;
}

namespace {

[[noreturn]] void throw_no_zstd() {
  throw RuntimeError(
      "store codec 'zstd' requested but this build has no zstd support "
      "(reconfigure with -DSICKLE_WITH_ZSTD=ON)");
}

}  // namespace

std::unique_ptr<Codec> make_codec(const std::string& name, double tolerance) {
  if (name == "raw") return std::make_unique<RawCodec>();
  if (name == "delta") return std::make_unique<DeltaCodec>();
  if (name == "quant") return std::make_unique<QuantCodec>(tolerance);
  if (name == "gorilla") return std::make_unique<GorillaCodec>();
  if (name == "zstd") {
#ifdef SICKLE_HAS_ZSTD
    return std::make_unique<ZstdCodec>();
#else
    throw_no_zstd();
#endif
  }
  throw RuntimeError("unknown store codec: " + name);
}

std::unique_ptr<Codec> make_codec(CodecId id, double tolerance) {
  switch (id) {
    case CodecId::kRaw:
      return std::make_unique<RawCodec>();
    case CodecId::kDelta:
      return std::make_unique<DeltaCodec>();
    case CodecId::kQuant:
      return std::make_unique<QuantCodec>(tolerance);
    case CodecId::kGorilla:
      return std::make_unique<GorillaCodec>();
    case CodecId::kZstd:
#ifdef SICKLE_HAS_ZSTD
      return std::make_unique<ZstdCodec>();
#else
      throw_no_zstd();
#endif
  }
  throw RuntimeError("unknown store codec id: " +
                     std::to_string(static_cast<int>(id)));
}

std::vector<std::string> codec_names() {
  std::vector<std::string> names = {"raw", "delta", "quant", "gorilla"};
#ifdef SICKLE_HAS_ZSTD
  names.emplace_back("zstd");
#endif
  return names;
}

}  // namespace sickle::store
