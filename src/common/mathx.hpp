// Small math helpers shared across modules.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

namespace sickle {

inline double sqr(double x) noexcept { return x * x; }

/// Numerically stable mean (Neumaier compensated summation).
inline double mean(std::span<const double> v) noexcept {
  if (v.empty()) return 0.0;
  double sum = 0.0, c = 0.0;
  for (const double x : v) {
    const double t = sum + x;
    c += (std::abs(sum) >= std::abs(x)) ? (sum - t) + x : (x - t) + sum;
    sum = t;
  }
  return (sum + c) / static_cast<double>(v.size());
}

/// Sample variance (unbiased, n-1 denominator); 0 for n < 2.
inline double variance(std::span<const double> v) noexcept {
  const std::size_t n = v.size();
  if (n < 2) return 0.0;
  const double m = mean(v);
  double acc = 0.0;
  for (const double x : v) acc += sqr(x - m);
  return acc / static_cast<double>(n - 1);
}

inline double stddev(std::span<const double> v) noexcept {
  return std::sqrt(variance(v));
}

/// Minimum and maximum in one pass; returns {0,0} on empty input.
inline std::pair<double, double> min_max(std::span<const double> v) noexcept {
  if (v.empty()) return {0.0, 0.0};
  double lo = v[0], hi = v[0];
  for (const double x : v) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  return {lo, hi};
}

/// Clamp helper that reads naturally in sampling code.
inline std::size_t clamp_index(std::ptrdiff_t i, std::size_t n) noexcept {
  return static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
      i, 0, static_cast<std::ptrdiff_t>(n) - 1));
}

/// Integer ceil-division.
constexpr std::size_t ceil_div(std::size_t a, std::size_t b) noexcept {
  return (a + b - 1) / b;
}

/// Next power of two >= n (n = 0 maps to 1).
constexpr std::size_t next_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

constexpr bool is_pow2(std::size_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

}  // namespace sickle
