#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/mathx.hpp"

namespace sickle::stats {

Moments compute_moments(std::span<const double> data) {
  Moments m;
  m.n = data.size();
  if (m.n == 0) return m;
  m.mean = mean(data);
  auto [lo, hi] = min_max(data);
  m.min = lo;
  m.max = hi;
  if (m.n < 2) return m;
  double m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (const double x : data) {
    const double d = x - m.mean;
    m2 += d * d;
    m3 += d * d * d;
    m4 += d * d * d * d;
  }
  const double n = static_cast<double>(m.n);
  m2 /= n;
  m3 /= n;
  m4 /= n;
  m.stddev = std::sqrt(m2 * n / (n - 1.0));
  if (m2 > 0.0) {
    m.skewness = m3 / std::pow(m2, 1.5);
    m.kurtosis = m4 / (m2 * m2) - 3.0;
  }
  return m;
}

std::vector<double> quantiles(std::span<const double> data,
                              std::span<const double> qs) {
  SICKLE_CHECK_MSG(!data.empty(), "quantiles of empty data");
  std::vector<double> sorted(data.begin(), data.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  out.reserve(qs.size());
  for (const double q : qs) {
    SICKLE_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile order out of [0,1]");
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto i = static_cast<std::size_t>(std::floor(pos));
    const double frac = pos - static_cast<double>(i);
    out.push_back(i + 1 >= sorted.size()
                      ? sorted.back()
                      : sorted[i] * (1.0 - frac) + sorted[i + 1] * frac);
  }
  return out;
}

double tail_coverage(std::span<const double> reference,
                     std::span<const double> sample, double tail_q) {
  SICKLE_CHECK_MSG(tail_q > 0.0 && tail_q < 0.5, "tail_q must be in (0,0.5)");
  if (sample.empty()) return 0.0;
  const double qs[] = {tail_q, 1.0 - tail_q};
  const auto cut = quantiles(reference, qs);
  const double lo = cut[0];
  const double hi = cut[1];
  std::size_t in_tail = 0;
  for (const double x : sample) {
    if (x < lo || x > hi) ++in_tail;
  }
  return static_cast<double>(in_tail) / static_cast<double>(sample.size());
}

}  // namespace sickle::stats
