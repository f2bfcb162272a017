/// @file descriptive.hpp
/// @brief Descriptive statistics: moments, quantiles, tail-coverage
/// metrics.
///
/// Tail coverage is the quantitative form of the paper's Fig. 5 claim —
/// "MaxEnt achieves the best match, especially in the tails".
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sickle::stats {

/// Summary of a sample: n, mean, std, min, max, skewness, excess kurtosis.
struct Moments {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double skewness = 0.0;
  double kurtosis = 0.0;  ///< excess kurtosis (normal -> 0)
};

[[nodiscard]] Moments compute_moments(std::span<const double> data);

/// Quantiles (each 0 <= q <= 1) from one sort, with linear interpolation
/// (numpy default).
[[nodiscard]] std::vector<double> quantiles(std::span<const double> data,
                                            std::span<const double> qs);

/// Fraction of `sample` lying beyond the (1 - tail_q) and tail_q quantiles
/// of `reference` — i.e. how well the subsample covers the reference
/// distribution's tails. A perfect sampler reproduces 2 * tail_q.
[[nodiscard]] double tail_coverage(std::span<const double> reference,
                                   std::span<const double> sample,
                                   double tail_q = 0.01);

}  // namespace sickle::stats
