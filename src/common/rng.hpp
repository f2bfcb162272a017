// Deterministic counter-based random number generation.
//
// Every SICKLE experiment must be exactly reproducible from a single seed,
// including under rank-parallel decomposition. We therefore use a
// splitmix64-derived counter RNG: jumping to an arbitrary stream (e.g. one
// per rank, per hypercube, per training replicate) is O(1) and streams are
// statistically independent, unlike seeding std::mt19937 with small ints.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace sickle {

/// splitmix64 finalizer: bijective 64-bit mixing function.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Counter-based deterministic RNG.
///
/// State is (seed, stream, counter). `next()` hashes the triple, so two Rng
/// objects with equal state produce identical sequences regardless of
/// construction history — the property the SPMD sampler relies on to make
/// rank-count-independent draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eedULL,
               std::uint64_t stream = 0) noexcept
      : seed_(seed), stream_(stream) {}

  /// Derive an independent child stream (e.g. one per hypercube / rank).
  [[nodiscard]] Rng fork(std::uint64_t substream) const noexcept {
    return Rng(mix64(seed_ ^ mix64(substream + 0x1234'5678ULL)),
               mix64(stream_ + substream * 0x9e3779b97f4a7c15ULL));
  }

  std::uint64_t next() noexcept {
    // Two rounds of mixing decorrelate adjacent counters thoroughly.
    return mix64(mix64(seed_ ^ (counter_++ * 0xd1342543de82ef95ULL)) ^ stream_);
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Unbiased integer in [0, n) via Lemire's method.
  std::uint64_t uniform_int(std::uint64_t n) noexcept {
    SICKLE_CHECK(n > 0);
    // 128-bit multiply rejection sampling (Lemire 2019).
    __uint128_t m = static_cast<__uint128_t>(next()) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(next()) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Standard normal via Box–Muller (no cached spare: keeps state minimal
  /// and counter-reproducible).
  double normal() noexcept {
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> data) noexcept {
    for (std::size_t i = data.size(); i > 1; --i) {
      const std::size_t j = uniform_int(i);
      std::swap(data[i - 1], data[j]);
    }
  }

  /// Sample k distinct indices from [0, n) without replacement.
  /// Uses Floyd's algorithm: O(k) expected draws, order then shuffled.
  [[nodiscard]] std::vector<std::size_t> sample_without_replacement(
      std::size_t n, std::size_t k) {
    SICKLE_CHECK_MSG(k <= n, "cannot sample more items than population");
    std::vector<std::size_t> out;
    out.reserve(k);
    // Floyd's: for j in n-k..n-1, draw t in [0,j]; insert t if unseen else j.
    std::vector<bool> seen(n, false);
    for (std::size_t j = n - k; j < n; ++j) {
      std::size_t t = uniform_int(j + 1);
      if (seen[t]) t = j;
      seen[t] = true;
      out.push_back(t);
    }
    shuffle(std::span<std::size_t>(out));
    return out;
  }

  std::uint64_t seed() const noexcept { return seed_; }
  std::uint64_t counter() const noexcept { return counter_; }

 private:
  std::uint64_t seed_;
  std::uint64_t stream_;
  std::uint64_t counter_ = 0;
};

}  // namespace sickle
