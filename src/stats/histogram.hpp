/// @file histogram.hpp
/// @brief Binned density estimation (1D and ND).
///
/// The paper's PDF comparisons (Fig. 5) and the UIPS sampler both rely on
/// fixed-bin histograms ("PDF comparisons were binned using a fixed bin
/// size of 100 across all datasets"). Histogram supports 1D; HistogramND
/// supports the low-dimensional joint phase-space densities UIPS needs.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sickle::stats {

/// Fixed-range 1D histogram with `bins` equal-width bins on [lo, hi].
/// Out-of-range samples are clamped into the edge bins so that PDF mass is
/// conserved (matching numpy.histogram(range=...) + clip preprocessing).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  /// Build with data-driven range.
  static Histogram fit(std::span<const double> data, std::size_t bins = 100);

  void add(double x) noexcept;
  void add(std::span<const double> xs) noexcept;

  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] const std::vector<std::size_t>& counts() const noexcept {
    return counts_;
  }

  /// Bin index for value x (clamped).
  [[nodiscard]] std::size_t bin_of(double x) const noexcept;
  /// Center of bin i.
  [[nodiscard]] double center(std::size_t i) const noexcept;
  [[nodiscard]] double bin_width() const noexcept { return width_; }

  /// Normalized probability mass per bin (sums to 1; empty hist -> zeros).
  [[nodiscard]] std::vector<double> pmf() const;
  /// Probability density (pmf / bin width).
  [[nodiscard]] std::vector<double> pdf() const;

 private:
  double lo_, hi_, width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Dense N-dimensional histogram over a fixed per-axis range; used for
/// UIPS phase-space density estimates (typically 2–4 dims, ~10–32 bins per
/// axis).
class HistogramND {
 public:
  /// lo/hi/bins are per-axis.
  HistogramND(std::vector<double> lo, std::vector<double> hi,
              std::vector<std::size_t> bins);

  static HistogramND fit(std::span<const std::vector<double>> points,
                         std::size_t bins_per_axis);

  /// Add a point (size must equal dims()).
  void add(std::span<const double> x) noexcept;

  [[nodiscard]] std::size_t dims() const noexcept { return lo_.size(); }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t cells() const noexcept { return counts_.size(); }
  [[nodiscard]] const std::vector<std::size_t>& counts() const noexcept {
    return counts_;
  }

  /// Flat cell index of a point.
  [[nodiscard]] std::size_t cell_of(std::span<const double> x) const noexcept;

  /// Probability mass per occupied cell (sums to 1).
  [[nodiscard]] std::vector<double> pmf() const;

  /// Estimated density at a point: pmf(cell)/cell_volume.
  [[nodiscard]] double density_at(std::span<const double> x) const noexcept;

 private:
  std::vector<double> lo_, hi_, width_;
  std::vector<std::size_t> bins_;
  std::vector<std::size_t> strides_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  double cell_volume_ = 1.0;
};

}  // namespace sickle::stats
