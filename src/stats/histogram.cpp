#include "stats/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/mathx.hpp"

namespace sickle::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  SICKLE_CHECK_MSG(bins > 0, "histogram needs at least one bin");
  SICKLE_CHECK_MSG(hi > lo, "histogram range must be non-degenerate");
  width_ = (hi_ - lo_) / static_cast<double>(bins);
}

Histogram Histogram::fit(std::span<const double> data, std::size_t bins) {
  auto [lo, hi] = min_max(data);
  if (!(hi > lo)) {  // constant or empty data: synthesize a tiny range
    lo -= 0.5;
    hi += 0.5;
  }
  Histogram h(lo, hi, bins);
  h.add(data);
  return h;
}

std::size_t Histogram::bin_of(double x) const noexcept {
  // Truncation, not floor: they differ only for negative t, and
  // clamp_index sends every negative index to bin 0 either way. Skipping
  // floor matters because baseline x86-64 lowers std::floor to a libm
  // call (no roundsd before SSE4.1), which would dominate this kernel.
  const double t = (x - lo_) / width_;
  return clamp_index(static_cast<std::ptrdiff_t>(t), counts_.size());
}

double Histogram::center(std::size_t i) const noexcept {
  return lo_ + (static_cast<double>(i) + 0.5) * width_;
}

void Histogram::add(double x) noexcept {
  ++counts_[bin_of(x)];
  ++total_;
}

void Histogram::add(std::span<const double> xs) noexcept {
  // Blockwise accumulate: the bin-index arithmetic is elementwise and
  // identical to bin_of (so results stay bit-identical to add(x) one at a
  // time) and vectorizes; only the counter scatter, whose lanes can
  // collide on one bin, stays scalar.
  // The vector loop stays all-double (sub + div only — no lane-width
  // changes, so it vectorizes even on 128-bit ISAs); the truncating
  // double->index conversion rides along in the scalar scatter, matching
  // bin_of exactly.
  constexpr std::size_t kBlock = 256;
  double fidx[kBlock];
  const std::size_t nbins = counts_.size();
  const double lo = lo_;
  const double width = width_;
  std::size_t i = 0;
  for (; i + kBlock <= xs.size(); i += kBlock) {
    const double* x = xs.data() + i;
#pragma omp simd
    for (std::size_t j = 0; j < kBlock; ++j) {
      fidx[j] = (x[j] - lo) / width;
    }
    for (std::size_t j = 0; j < kBlock; ++j) {
      ++counts_[clamp_index(static_cast<std::ptrdiff_t>(fidx[j]), nbins)];
    }
  }
  for (; i < xs.size(); ++i) ++counts_[bin_of(xs[i])];
  total_ += xs.size();
}

std::vector<double> Histogram::pmf() const {
  std::vector<double> out(counts_.size(), 0.0);
  if (total_ == 0) return out;
  const double inv = 1.0 / static_cast<double>(total_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = static_cast<double>(counts_[i]) * inv;
  }
  return out;
}

std::vector<double> Histogram::pdf() const {
  std::vector<double> out = pmf();
  const double inv_w = 1.0 / width_;
  for (double& p : out) p *= inv_w;
  return out;
}

HistogramND::HistogramND(std::vector<double> lo, std::vector<double> hi,
                         std::vector<std::size_t> bins)
    : lo_(std::move(lo)), hi_(std::move(hi)), bins_(std::move(bins)) {
  SICKLE_CHECK(lo_.size() == hi_.size() && lo_.size() == bins_.size());
  SICKLE_CHECK_MSG(!lo_.empty(), "HistogramND needs at least one dimension");
  width_.resize(lo_.size());
  strides_.resize(lo_.size());
  std::size_t cells = 1;
  for (std::size_t d = 0; d < lo_.size(); ++d) {
    SICKLE_CHECK(bins_[d] > 0 && hi_[d] > lo_[d]);
    width_[d] = (hi_[d] - lo_[d]) / static_cast<double>(bins_[d]);
    cell_volume_ *= width_[d];
  }
  // Row-major strides, first axis slowest.
  std::size_t s = 1;
  for (std::size_t d = lo_.size(); d-- > 0;) {
    strides_[d] = s;
    s *= bins_[d];
  }
  cells = s;
  SICKLE_CHECK_MSG(cells <= (1ULL << 28),
                   "HistogramND cell count too large; reduce bins or dims");
  counts_.assign(cells, 0);
}

HistogramND HistogramND::fit(std::span<const std::vector<double>> points,
                             std::size_t bins_per_axis) {
  SICKLE_CHECK_MSG(!points.empty(), "cannot fit histogram to empty data");
  const std::size_t dims = points.front().size();
  std::vector<double> lo(dims, 0.0), hi(dims, 0.0);
  for (std::size_t d = 0; d < dims; ++d) {
    lo[d] = hi[d] = points.front()[d];
  }
  for (const auto& p : points) {
    SICKLE_CHECK(p.size() == dims);
    for (std::size_t d = 0; d < dims; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  }
  for (std::size_t d = 0; d < dims; ++d) {
    if (!(hi[d] > lo[d])) {
      lo[d] -= 0.5;
      hi[d] += 0.5;
    }
  }
  HistogramND h(std::move(lo), std::move(hi),
                std::vector<std::size_t>(dims, bins_per_axis));
  for (const auto& p : points) h.add(p);
  return h;
}

std::size_t HistogramND::cell_of(std::span<const double> x) const noexcept {
  std::size_t idx = 0;
  for (std::size_t d = 0; d < lo_.size(); ++d) {
    const double t = (x[d] - lo_[d]) / width_[d];
    const auto i = static_cast<std::ptrdiff_t>(std::floor(t));
    idx += clamp_index(i, bins_[d]) * strides_[d];
  }
  return idx;
}

void HistogramND::add(std::span<const double> x) noexcept {
  ++counts_[cell_of(x)];
  ++total_;
}

std::vector<double> HistogramND::pmf() const {
  std::vector<double> out(counts_.size(), 0.0);
  if (total_ == 0) return out;
  const double inv = 1.0 / static_cast<double>(total_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = static_cast<double>(counts_[i]) * inv;
  }
  return out;
}

double HistogramND::density_at(std::span<const double> x) const noexcept {
  if (total_ == 0) return 0.0;
  const double mass = static_cast<double>(counts_[cell_of(x)]) /
                      static_cast<double>(total_);
  return mass / cell_volume_;
}

}  // namespace sickle::stats
