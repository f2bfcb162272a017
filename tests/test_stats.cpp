// Unit tests: histograms, entropy/KL, descriptive stats, tail coverage.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "stats/descriptive.hpp"
#include "stats/entropy.hpp"
#include "stats/histogram.hpp"

namespace sickle::stats {
namespace {

TEST(Histogram, CountsAndPmf) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(static_cast<double>(i) + 0.5);
  EXPECT_EQ(h.total(), 10u);
  const auto pmf = h.pmf();
  for (const double p : pmf) EXPECT_DOUBLE_EQ(p, 0.1);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(7.0);
  EXPECT_EQ(h.counts().front(), 1u);
  EXPECT_EQ(h.counts().back(), 1u);
}

TEST(Histogram, FitHandlesConstantData) {
  const std::vector<double> v(100, 3.0);
  const auto h = Histogram::fit(v, 10);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_GT(h.hi(), h.lo());
}

TEST(Histogram, PdfIntegratesToOne) {
  Rng rng(1);
  std::vector<double> v(5000);
  for (auto& x : v) x = rng.normal();
  const auto h = Histogram::fit(v, 50);
  const auto pdf = h.pdf();
  double integral = 0.0;
  for (const double p : pdf) integral += p * h.bin_width();
  EXPECT_NEAR(integral, 1.0, 1e-9);
}

TEST(Histogram, BinOfCenterRoundTrips) {
  Histogram h(-1.0, 1.0, 20);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(h.bin_of(h.center(i)), i);
  }
}

TEST(HistogramND, UniformGridCoverage) {
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      pts.push_back({i + 0.5, j + 0.5});
    }
  }
  auto h = HistogramND::fit(pts, 8);
  EXPECT_EQ(h.total(), 64u);
  for (const auto c : h.counts()) EXPECT_EQ(c, 1u);
}

TEST(HistogramND, DensityReflectsClustering) {
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 90; ++i) pts.push_back({0.1, 0.1});
  for (int i = 0; i < 10; ++i) pts.push_back({0.9, 0.9});
  auto h = HistogramND::fit(pts, 4);
  const std::vector<double> dense{0.1, 0.1}, sparse{0.9, 0.9};
  EXPECT_GT(h.density_at(dense), h.density_at(sparse));
}

TEST(Entropy, UniformIsMaximal) {
  const std::vector<double> uniform{0.25, 0.25, 0.25, 0.25};
  const std::vector<double> skewed{0.7, 0.1, 0.1, 0.1};
  EXPECT_GT(shannon_entropy(uniform), shannon_entropy(skewed));
  EXPECT_NEAR(shannon_entropy(uniform), std::log(4.0), 1e-12);
}

TEST(Entropy, DegenerateIsZero) {
  const std::vector<double> delta{0.0, 1.0, 0.0};
  EXPECT_DOUBLE_EQ(shannon_entropy(delta), 0.0);
}

TEST(Kl, ZeroForIdenticalDistributions) {
  const std::vector<double> p{0.2, 0.3, 0.5};
  EXPECT_NEAR(kl_divergence(p, p), 0.0, 1e-12);
}

TEST(Kl, NonNegative) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> p(8), q(8);
    double sp = 0.0, sq = 0.0;
    for (std::size_t i = 0; i < 8; ++i) {
      p[i] = rng.uniform() + 0.01;
      q[i] = rng.uniform() + 0.01;
      sp += p[i];
      sq += q[i];
    }
    for (std::size_t i = 0; i < 8; ++i) {
      p[i] /= sp;
      q[i] /= sq;
    }
    EXPECT_GE(kl_divergence(p, q), -1e-12);
  }
}

TEST(Kl, AsymmetricInGeneral) {
  const std::vector<double> p{0.9, 0.1};
  const std::vector<double> q{0.5, 0.5};
  EXPECT_NE(kl_divergence(p, q), kl_divergence(q, p));
}

TEST(Kl, LengthMismatchThrows) {
  const std::vector<double> p{1.0};
  const std::vector<double> q{0.5, 0.5};
  EXPECT_THROW((void)kl_divergence(p, q), CheckError);
}

TEST(Js, SymmetricAndBounded) {
  const std::vector<double> p{0.9, 0.1, 0.0};
  const std::vector<double> q{0.0, 0.1, 0.9};
  const double js_pq = js_divergence(p, q);
  EXPECT_NEAR(js_pq, js_divergence(q, p), 1e-12);
  EXPECT_GT(js_pq, 0.0);
  EXPECT_LE(js_pq, std::log(2.0) + 1e-12);
}

TEST(KlAdjacency, DiagonalZeroStrengthsPositive) {
  const std::vector<std::vector<double>> pmfs{
      {0.9, 0.1}, {0.1, 0.9}, {0.5, 0.5}};
  const auto a = kl_adjacency(pmfs);
  ASSERT_EQ(a.size(), 9u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(a[i * 3 + i], 0.0);
  const auto s = node_strengths(a, 3);
  // Extreme distributions diverge more from the others than the middle one.
  EXPECT_GT(s[0], s[2]);
  EXPECT_GT(s[1], s[2]);
}

TEST(KlRowStrength, MatchesDenseAdjacencyRowSums) {
  // Flat [n x k] PMFs with zeros, spikes, and uniform rows.
  const std::size_t n = 5, k = 4;
  const std::vector<std::vector<double>> rows{
      {0.25, 0.25, 0.25, 0.25},
      {1.0, 0.0, 0.0, 0.0},
      {0.0, 0.5, 0.5, 0.0},
      {0.1, 0.2, 0.3, 0.4},
      {0.0, 0.0, 0.0, 1.0}};
  std::vector<double> flat;
  for (const auto& r : rows) flat.insert(flat.end(), r.begin(), r.end());

  const auto adjacency =
      kl_adjacency(std::span<const std::vector<double>>(rows));
  const auto dense = node_strengths(adjacency, n);

  const auto logs = log_pmf_rows(flat, n, k);
  ASSERT_EQ(logs.size(), n * k);
  for (std::size_t i = 0; i < n; ++i) {
    const double blocked =
        kl_row_strength(flat, std::span<const double>(logs), n, k, i);
    // log(p) - log(q) vs log(p/q): same quantity, different rounding.
    EXPECT_NEAR(blocked, dense[i], 1e-9 * (1.0 + std::abs(dense[i])))
        << "row " << i;
  }
}

TEST(KlRowStrength, InconsistentInputsThrow) {
  const std::vector<double> flat{0.5, 0.5, 0.1, 0.9};
  const auto logs = log_pmf_rows(flat, 2, 2);
  EXPECT_THROW((void)kl_row_strength(flat, logs, 3, 2, 0), CheckError);
  EXPECT_THROW((void)kl_row_strength(flat, logs, 2, 2, 2), CheckError);
  EXPECT_THROW((void)log_pmf_rows(flat, 3, 2), CheckError);
}

TEST(KlRowStrengthFast, EquivalentToRowKernel) {
  // Algebraic O(k)-per-row form vs the blocked O(n·k)-per-row reference,
  // over PMFs with zero bins, spikes, and near-uniform rows. The two
  // differ only by floating-point summation order.
  const std::size_t n = 64, k = 16;
  sickle::Rng rng(7);
  std::vector<double> flat(n * k, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double total = 0.0;
    for (std::size_t b = 0; b < k; ++b) {
      // ~1/3 of bins are exact zeros, like sparse label histograms.
      const double u = rng.uniform();
      const double v = (u < 1.0 / 3.0) ? 0.0 : u;
      flat[i * k + b] = v;
      total += v;
    }
    if (total == 0.0) {
      flat[i * k] = 1.0;  // degenerate all-zero draw -> spike row
      total = 1.0;
    }
    for (std::size_t b = 0; b < k; ++b) flat[i * k + b] /= total;
  }
  const auto logs = log_pmf_rows(flat, n, k);
  const auto sums = log_col_sums(std::span<const double>(logs), n, k);
  ASSERT_EQ(sums.size(), k);
  for (std::size_t i = 0; i < n; ++i) {
    const double blocked =
        kl_row_strength(flat, std::span<const double>(logs), n, k, i);
    const double algebraic = kl_row_strength_fast(
        flat, std::span<const double>(logs), std::span<const double>(sums),
        n, k, i);
    EXPECT_NEAR(algebraic, blocked, 1e-9 * (1.0 + std::abs(blocked)))
        << "row " << i;
  }
}

TEST(KlRowStrengthFast, InconsistentInputsThrow) {
  const std::vector<double> flat{0.5, 0.5, 0.1, 0.9};
  const auto logs = log_pmf_rows(flat, 2, 2);
  const auto sums = log_col_sums(std::span<const double>(logs), 2, 2);
  EXPECT_THROW((void)log_col_sums(std::span<const double>(logs), 3, 2),
               CheckError);
  EXPECT_THROW((void)kl_row_strength_fast(flat, logs, sums, 3, 2, 0),
               CheckError);
  EXPECT_THROW((void)kl_row_strength_fast(flat, logs, sums, 2, 2, 2),
               CheckError);
}

TEST(NormalizeWeights, SumsToOne) {
  const std::vector<double> w{1.0, 3.0};
  const auto p = normalize_weights(w);
  EXPECT_DOUBLE_EQ(p[0], 0.25);
  EXPECT_DOUBLE_EQ(p[1], 0.75);
}

TEST(NormalizeWeights, AllZeroFallsBackToUniform) {
  const std::vector<double> w{0.0, 0.0, 0.0, 0.0};
  const auto p = normalize_weights(w);
  for (const double x : p) EXPECT_DOUBLE_EQ(x, 0.25);
}

TEST(Moments, KnownValues) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const auto m = compute_moments(v);
  EXPECT_DOUBLE_EQ(m.mean, 5.0);
  EXPECT_NEAR(m.stddev, std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(m.min, 2.0);
  EXPECT_EQ(m.max, 9.0);
}

TEST(Moments, GaussianSkewKurtosisNearZero) {
  Rng rng(4);
  std::vector<double> v(50000);
  for (auto& x : v) x = rng.normal();
  const auto m = compute_moments(v);
  EXPECT_NEAR(m.skewness, 0.0, 0.05);
  EXPECT_NEAR(m.kurtosis, 0.0, 0.1);
}

TEST(Quantile, LinearInterpolation) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> qs{0.0, 1.0, 0.5};
  const auto q = quantiles(v, qs);
  ASSERT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q[0], 1.0);
  EXPECT_DOUBLE_EQ(q[1], 4.0);
  EXPECT_DOUBLE_EQ(q[2], 2.5);
}

TEST(TailCoverage, PerfectSamplerReproducesTailMass) {
  Rng rng(6);
  std::vector<double> ref(20000);
  for (auto& x : ref) x = rng.normal();
  // Sample = the reference itself -> coverage ~ 2 * tail_q.
  EXPECT_NEAR(tail_coverage(ref, ref, 0.01), 0.02, 1e-3);
}

TEST(TailCoverage, CenterOnlySamplerScoresZero) {
  Rng rng(7);
  std::vector<double> ref(10000);
  for (auto& x : ref) x = rng.normal();
  std::vector<double> center;
  for (const double x : ref) {
    if (std::abs(x) < 0.5) center.push_back(x);
  }
  EXPECT_DOUBLE_EQ(tail_coverage(ref, center, 0.01), 0.0);
}

}  // namespace
}  // namespace sickle::stats
