#include "store/codec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "store/bit_stream.hpp"

namespace sickle::store {

namespace {

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
  return (static_cast<unsigned>(std::bit_width(v)) + 7u) / 8u;
}

/// How many values of `bits` bits each fit in `bytes` bytes. Computed by
/// division, so a crafted count compared against it cannot overflow.
std::size_t values_that_fit(std::size_t bytes, unsigned bits) noexcept {
  const std::size_t whole = bytes / bits;
  if (whole > std::numeric_limits<std::size_t>::max() / 8) {
    return std::numeric_limits<std::size_t>::max();
  }
  return whole * 8 + bytes % bits * 8 / bits;
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
  if (block.size() % sizeof(double) != 0 ||
      block.size() / sizeof(double) != count) {
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
  // Sized for the worst case, every delta 8 bytes wide. Each delta is
  // stored as one whole 8-byte word and the cursor advances by its
  // significant bytes only, so the next store overwrites the zero high
  // bytes; the buffer is trimmed to the cursor at the end.
  std::vector<std::uint8_t> out(nibble_bytes + n * sizeof(std::uint64_t));
  std::size_t pos = nibble_bytes;
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t u = std::bit_cast<std::uint64_t>(values[i]);
    const std::uint64_t d = u ^ prev;
    prev = u;
    const unsigned nb = significant_bytes(d);
    out[i / 2] |= static_cast<std::uint8_t>(nb << ((i % 2) * 4));
    store_u64(out.data() + pos, d);
    pos += nb;
  }
  out.resize(pos);
  return out;
}

std::vector<double> DeltaCodec::decode(std::span<const std::uint8_t> block,
                                       std::size_t count) const {
  // One nibble per value, counted without the (count + 1) that would
  // wrap at SIZE_MAX.
  const std::size_t nibble_bytes = count / 2 + count % 2;
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
  // Worst case: the first value's 64 bits, then a new window per value
  // (2-bit tag, 12 bits of lead and length, up to 64 window bits).
  BitWriter w(64 + (n - 1) * (2 + 12 + 64));
  std::uint64_t prev = std::bit_cast<std::uint64_t>(values[0]);
  w.put(prev, 64);
  // No nonzero XOR has 64 leading zeros, so the first one opens a window.
  unsigned win_lead = 64, win_trail = 0, win_len = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint64_t u = std::bit_cast<std::uint64_t>(values[i]);
    const std::uint64_t x = u ^ prev;
    prev = u;
    if (x == 0) {
      w.put(0, 1);
      continue;
    }
    const auto lz = static_cast<unsigned>(std::countl_zero(x));
    const auto tz = static_cast<unsigned>(std::countr_zero(x));
    if (lz >= win_lead && tz >= win_trail) {
      w.put(0b01, 2);  // '1' '0'
      w.put(x >> win_trail, win_len);
    } else {
      const unsigned len = 64 - lz - tz;
      // '1' '1', the 6-bit lead and the 6-bit (length - 1), as one field.
      w.put(0b11u | lz << 2 | (len - 1) << 8, 14);
      w.put(x >> tz, len);
      win_lead = lz;
      win_trail = tz;
      win_len = len;
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
  // The first value takes 64 bits and every later one at least 1, so the
  // block bounds the count before anything is sized from it.
  if (block.size() < sizeof(std::uint64_t) ||
      count - 1 > values_that_fit(block.size() - sizeof(std::uint64_t), 1)) {
    throw RuntimeError("gorilla chunk block is too short for its count");
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
  if (!finite || (hi - lo) / step > kMaxLevels) {
    std::vector<std::uint8_t> out;
    out.reserve(1 + values.size() * sizeof(double));
    out.push_back(kRawFallbackMode);
    const auto* p = reinterpret_cast<const std::uint8_t*>(values.data());
    out.insert(out.end(), p, p + values.size() * sizeof(double));
    return out;
  }
  const auto qmax = static_cast<std::uint64_t>(std::llround((hi - lo) / step));
  const auto bits = static_cast<unsigned>(std::bit_width(qmax));
  // The byte-aligned header, then the levels LSB-first at `bits` each.
  BitWriter w(8 * (1 + 2 * sizeof(double) + 1) + values.size() * bits);
  w.put(kQuantMode, 8);
  w.put(std::bit_cast<std::uint64_t>(lo), 64);
  w.put(std::bit_cast<std::uint64_t>(step), 64);
  w.put(bits, 8);
  for (const double x : values) {
    w.put(static_cast<std::uint64_t>(std::llround((x - lo) / step)), bits);
  }
  return w.finish();
}

std::vector<double> QuantCodec::decode(std::span<const std::uint8_t> block,
                                       std::size_t count) const {
  if (count == 0) return {};
  std::size_t pos = 0;
  const auto mode = read_pod<std::uint8_t>(block, pos);
  if (mode == kRawFallbackMode) {
    const std::size_t raw = block.size() - pos;
    if (raw % sizeof(double) != 0 || raw / sizeof(double) != count) {
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
  // Packed levels take `bits` each; a zero-width block stands for any
  // count, which only the readers' header checks bound.
  if (bits > 0 && count > values_that_fit(block.size() - pos, bits)) {
    throw RuntimeError("quant chunk block is too short for its count");
  }
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
