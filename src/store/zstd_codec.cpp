/// @file zstd_codec.cpp
/// @brief Optional zstd-backed chunk codec (compiled only with
/// -DSICKLE_WITH_ZSTD=ON; the whole translation unit is empty otherwise so
/// the module glob can pick it up unconditionally).
///
/// Uses only zstd's stable API (ZSTD_compress / ZSTD_decompress /
/// ZSTD_getFrameContentSize), so any libzstd >= 1.3 works, whether found
/// on the system or fetched.

#ifdef SICKLE_HAS_ZSTD

#include <cstring>
#include <limits>

#include <zstd.h>

#include "common/error.hpp"
#include "store/codec.hpp"

namespace sickle::store {

std::vector<std::uint8_t> ZstdCodec::encode(
    std::span<const double> values) const {
  const std::size_t raw_bytes = values.size() * sizeof(double);
  if (raw_bytes == 0) return {};
  std::vector<std::uint8_t> out(ZSTD_compressBound(raw_bytes));
  const std::size_t written =
      ZSTD_compress(out.data(), out.size(), values.data(), raw_bytes, level_);
  if (ZSTD_isError(written)) {
    throw RuntimeError(std::string("zstd compression failed: ") +
                       ZSTD_getErrorName(written));
  }
  out.resize(written);
  return out;
}

std::vector<double> ZstdCodec::decode(std::span<const std::uint8_t> block,
                                      std::size_t count) const {
  if (count == 0) {
    if (!block.empty()) throw RuntimeError("zstd chunk block has wrong size");
    return {};
  }
  // The frame header records its decoded size (ZSTD_compress always
  // writes it), so a count the block does not hold fails before the
  // output is sized from it.
  if (count > std::numeric_limits<std::size_t>::max() / sizeof(double) ||
      ZSTD_getFrameContentSize(block.data(), block.size()) !=
          static_cast<unsigned long long>(count * sizeof(double))) {
    throw RuntimeError("zstd chunk block does not hold its count");
  }
  std::vector<double> out(count);
  const std::size_t raw_bytes = count * sizeof(double);
  const std::size_t got =
      ZSTD_decompress(out.data(), raw_bytes, block.data(), block.size());
  if (ZSTD_isError(got)) {
    throw RuntimeError(std::string("malformed zstd chunk block: ") +
                       ZSTD_getErrorName(got));
  }
  if (got != raw_bytes) {
    throw RuntimeError("zstd chunk block has wrong decoded size");
  }
  return out;
}

}  // namespace sickle::store

#endif  // SICKLE_HAS_ZSTD
