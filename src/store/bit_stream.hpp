/// @file bit_stream.hpp
/// @brief LSB-first bit-granular writer/reader for variable-width codecs.
///
/// The Gorilla codec (codec.hpp) emits fields of 1..64 bits and the quant
/// codec packs its levels at a fixed width; both go through BitWriter,
/// which packs the fields LSB-first into a byte vector. BitReader bounds-
/// checks every read and throws RuntimeError on exhaustion so truncated or
/// spliced blocks surface as typed errors, never as out-of-range reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace sickle::store {

/// Store `v` at `dst` as 8 bytes in host order: least significant first
/// on the little-endian hosts the store containers assume (docs/STORE.md),
/// so a whole accumulator word lands as eight LSB-first stream bytes.
inline void store_u64(std::uint8_t* dst, std::uint64_t v) noexcept {
  std::memcpy(dst, &v, sizeof(v));
}

/// Appends bit fields LSB-first into a byte buffer. Fields collect in a
/// 64-bit accumulator that is stored one whole word at a time, into a
/// buffer sized once from the caller's worst-case hint; the buffer grows
/// only when the stream outruns the hint.
class BitWriter {
 public:
  /// `max_bits` is the most bits the caller expects to put (a hint:
  /// exceeding it costs a reallocation, never correctness).
  explicit BitWriter(std::size_t max_bits) : buf_(max_bits / 64 * 8 + 8) {}

  /// Append the low `bits` bits of `v` (0 <= bits <= 64).
  void put(std::uint64_t v, unsigned bits) {
    if (bits == 0) return;
    if (bits < 64) v &= (std::uint64_t{1} << bits) - 1;
    const unsigned used = nbits_;
    acc_ |= v << used;
    nbits_ = used + bits;
    if (nbits_ >= 64) {
      store_word(acc_);
      nbits_ -= 64;
      // The bits of v the stored word could not take: v >> (64 - used),
      // written so that used == 0 (the word took v whole) yields 0
      // instead of an undefined 64-bit shift.
      acc_ = (v >> 1) >> (63 - used);
    }
  }

  /// Flush pending bits (zero-padded to a byte boundary) and release the
  /// buffer. The writer is empty afterwards.
  [[nodiscard]] std::vector<std::uint8_t> finish() {
    reserve_word();
    store_u64(buf_.data() + pos_, acc_);
    buf_.resize(pos_ + (nbits_ + 7) / 8);
    acc_ = 0;
    nbits_ = 0;
    pos_ = 0;
    return std::move(buf_);
  }

 private:
  void reserve_word() {
    if (pos_ + 8 > buf_.size()) buf_.resize(2 * buf_.size() + 8);
  }

  void store_word(std::uint64_t word) {
    reserve_word();
    store_u64(buf_.data() + pos_, word);
    pos_ += 8;
  }

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;      // bytes of whole words stored so far
  std::uint64_t acc_ = 0;    // pending bits, always < 64 of them
  unsigned nbits_ = 0;
};

/// Reads bit fields LSB-first from a byte span; throws on exhaustion.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  /// Read `bits` bits (0 <= bits <= 64). Throws RuntimeError when the
  /// stream has fewer bits left.
  [[nodiscard]] std::uint64_t get(unsigned bits) {
    if (bits == 0) return 0;
    if (bits > 56) {
      // Keep the refill shift below 56 so `byte << nbits_` cannot overflow.
      const std::uint64_t lo = get(32);
      return lo | (get(bits - 32) << 32);
    }
    while (nbits_ < bits) {
      if (pos_ >= data_.size()) {
        throw RuntimeError("truncated bitstream in chunk block");
      }
      acc_ |= static_cast<std::uint64_t>(data_[pos_++]) << nbits_;
      nbits_ += 8;
    }
    const std::uint64_t v = acc_ & ((std::uint64_t{1} << bits) - 1);
    acc_ >>= bits;
    nbits_ -= bits;
    return v;
  }

  /// True when only byte-alignment padding (< 8 bits) remains unread.
  [[nodiscard]] bool exhausted() const noexcept {
    return (data_.size() - pos_) * 8 + nbits_ < 8;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;
  unsigned nbits_ = 0;
};

}  // namespace sickle::store
