// Helpers the golden tests share: an FNV-1a digest over raw bytes, and the
// probe of the libm calls the generators make. A golden digest holds only
// where libm rounds as it did when the digest was captured, so each golden
// test checks the probe first and skips on a platform that differs.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numbers>
#include <span>
#include <vector>

#include "store/chunk_layout.hpp"

namespace sickle::golden {

/// FNV-1a over the raw bytes of a range, continuing from `seed` so that
/// several ranges chain into one digest.
template <typename T>
std::uint64_t digest(std::span<const T> v,
                     std::uint64_t seed = store::kFnvOffsetBasis) {
  return store::fnv1a64(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(v.data()), v.size_bytes()),
      seed);
}

/// Every libm function the spectral generators call: Box-Muller's log,
/// sqrt and cos, the spectrum's pow and exp, realize's exp, cos and sin
/// (with sweep phases up to a few hundred radians), and the FFT
/// twiddles' cos and sin.
inline std::uint64_t generator_libm_probe() {
  std::vector<double> out;
  for (int i = 1; i <= 4000; ++i) {
    const double u = static_cast<double>(i) / 4001.0;
    out.push_back(std::log(u));
    out.push_back(std::sqrt(-2.0 * std::log(u)));
    out.push_back(std::cos(2.0 * std::numbers::pi * u));
    out.push_back(std::sin(2.0 * std::numbers::pi * u));
    out.push_back(std::cos(400.0 * (u - 0.5)));
    out.push_back(std::sin(400.0 * (u - 0.5)));
    out.push_back(std::exp(-20.0 * u));
    out.push_back(std::pow(1.0 + 100.0 * u, 17.0 / 6.0));
  }
  for (std::size_t len = 2; len <= (std::size_t{1} << 16); len <<= 1) {
    for (const double sign : {-2.0, 2.0}) {
      const double ang = sign * std::numbers::pi / static_cast<double>(len);
      out.push_back(std::cos(ang));
      out.push_back(std::sin(ang));
    }
  }
  return digest(std::span<const double>(out));
}

/// True when `probe` matches the digest this platform's libm gave when the
/// goldens were captured; otherwise reports and returns false.
inline bool libm_matches(const char* what, std::uint64_t probe,
                         std::uint64_t want) {
  if (probe == want) return true;
  std::printf("%s libm differs on this platform (%016llx); skipped\n", what,
              static_cast<unsigned long long>(probe));
  return false;
}

inline bool generator_libm_matches() {
  return libm_matches("spectral", generator_libm_probe(),
                      0xdb06003b269de341ull);
}

}  // namespace sickle::golden
