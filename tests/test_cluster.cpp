// Unit tests: MiniBatchKMeans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "cluster/kmeans.hpp"
#include "common/error.hpp"

namespace sickle::cluster {
namespace {

/// Three well-separated 1D blobs.
std::vector<double> three_blobs(Rng& rng, std::size_t per_blob) {
  std::vector<double> data;
  data.reserve(3 * per_blob);
  for (const double center : {0.0, 10.0, 20.0}) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      data.push_back(center + 0.3 * rng.normal());
    }
  }
  return data;
}

// ------------------------------------------------------------ reference
//
// An in-test copy of the online loop minibatch_kmeans was written as: 1-D
// k-means++ seeding, the draw loop and the final pass, each distance taken
// as `0.0 + d * d`. Kernels.MiniBatchKMeansMatchesOnlineLoop pins the
// kernel to it; the label tests take their nearest centre from it.

namespace ref {

constexpr double kInf = std::numeric_limits<double>::infinity();

double squared_distance(double a, double b) {
  const double d = a - b;
  return 0.0 + d * d;
}

std::vector<double> kmeanspp_init(const std::vector<double>& data,
                                  std::size_t k, Rng& rng) {
  const std::size_t n = data.size();
  std::vector<double> centroids(k);
  std::vector<double> d2(n, kInf);
  centroids[0] = data[rng.uniform_int(n)];
  for (std::size_t c = 1; c < k; ++c) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      d2[i] = std::min(d2[i], squared_distance(data[i], centroids[c - 1]));
      total += d2[i];
    }
    std::size_t chosen = 0;
    if (total > 0.0) {
      double r = rng.uniform() * total;
      for (std::size_t i = 0; i < n; ++i) {
        r -= d2[i];
        if (r < 0.0) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = rng.uniform_int(n);
    }
    centroids[c] = data[chosen];
  }
  return centroids;
}

std::uint32_t nearest_centroid(double v, const std::vector<double>& centroids,
                               double& best_d) {
  std::uint32_t best = 0;
  best_d = kInf;
  for (std::size_t c = 0; c < centroids.size(); ++c) {
    const double d = squared_distance(v, centroids[c]);
    if (d < best_d) {
      best_d = d;
      best = static_cast<std::uint32_t>(c);
    }
  }
  return best;
}

KMeansResult minibatch_kmeans(const std::vector<double>& data,
                              const KMeansOptions& opts, Rng& rng) {
  const std::size_t n = data.size();
  KMeansResult result;
  result.k = opts.k;
  const std::size_t seed_n = std::min<std::size_t>(n, 16 * 1024);
  if (seed_n == n) {
    result.centroids = kmeanspp_init(data, opts.k, rng);
  } else {
    std::vector<double> sub(seed_n);
    for (double& x : sub) x = data[rng.uniform_int(n)];
    result.centroids = kmeanspp_init(sub, opts.k, rng);
  }
  std::vector<std::size_t> counts(opts.k, 0);
  const std::size_t batch = std::min(opts.batch_size, n);
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    result.iterations = it + 1;
    for (std::size_t b = 0; b < batch; ++b) {
      const double v = data[rng.uniform_int(n)];
      double unused = 0.0;
      const std::uint32_t c = nearest_centroid(v, result.centroids, unused);
      ++counts[c];
      const double eta = 1.0 / static_cast<double>(counts[c]);
      result.centroids[c] += eta * (v - result.centroids[c]);
    }
  }
  result.labels.resize(n);
  result.sizes.assign(opts.k, 0);
  for (std::size_t i = 0; i < n; ++i) {
    double d2 = 0.0;
    const std::uint32_t c = nearest_centroid(data[i], result.centroids, d2);
    result.labels[i] = c;
    ++result.sizes[c];
    result.inertia += d2;
  }
  return result;
}

}  // namespace ref

TEST(KMeans, LabelsConsistentWithCentroids) {
  Rng rng(2);
  const auto data = three_blobs(rng, 100);
  KMeansOptions opts;
  opts.k = 3;
  const auto result = minibatch_kmeans(data, opts, rng);
  for (std::size_t i = 0; i < data.size(); ++i) {
    double unused = 0.0;
    EXPECT_EQ(result.labels[i],
              ref::nearest_centroid(data[i], result.centroids, unused));
  }
}

TEST(KMeans, AssignBatchMatchesPerPointAssign1D) {
  Rng rng(21);
  const auto data = three_blobs(rng, 150);
  KMeansOptions opts;
  opts.k = 4;
  const auto result = minibatch_kmeans(data, opts, rng);
  std::vector<std::uint32_t> labels(data.size());
  result.assign_batch(data, std::span<std::uint32_t>(labels));
  for (std::size_t i = 0; i < data.size(); ++i) {
    double unused = 0.0;
    EXPECT_EQ(labels[i],
              ref::nearest_centroid(data[i], result.centroids, unused))
        << "point " << i;
  }
}

TEST(KMeans, AssignBatchSizeMismatchThrows) {
  Rng rng(23);
  const auto data = three_blobs(rng, 20);
  KMeansOptions opts;
  opts.k = 2;
  const auto result = minibatch_kmeans(data, opts, rng);
  std::vector<std::uint32_t> labels(data.size() + 1);
  EXPECT_THROW(
      result.assign_batch(data, std::span<std::uint32_t>(labels)),
      CheckError);
}

TEST(KMeans, SizesSumToN) {
  Rng rng(3);
  const auto data = three_blobs(rng, 50);
  KMeansOptions opts;
  opts.k = 5;
  const auto result = minibatch_kmeans(data, opts, rng);
  std::size_t total = 0;
  for (const auto s : result.sizes) total += s;
  EXPECT_EQ(total, data.size());
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  Rng rng(4);
  const auto data = three_blobs(rng, 100);
  KMeansOptions opts1;
  opts1.k = 1;
  KMeansOptions opts6;
  opts6.k = 6;
  Rng r1(10), r2(10);
  const auto one = minibatch_kmeans(data, opts1, r1);
  const auto six = minibatch_kmeans(data, opts6, r2);
  EXPECT_LT(six.inertia, one.inertia);
}

TEST(KMeans, KEqualsNGivesZeroInertia) {
  const std::vector<double> data{1.0, 2.0, 3.0, 4.0};
  KMeansOptions opts;
  opts.k = 4;
  Rng rng(5);
  const auto result = minibatch_kmeans(data, opts, rng);
  EXPECT_NEAR(result.inertia, 0.0, 1e-20);
}

TEST(KMeans, RejectsMoreClustersThanPoints) {
  const std::vector<double> data{1.0, 2.0};
  KMeansOptions opts;
  opts.k = 3;
  Rng rng(6);
  EXPECT_THROW(minibatch_kmeans(data, opts, rng), CheckError);
}

TEST(MiniBatchKMeans, ApproximatesBlobCenters) {
  Rng rng(8);
  const auto data = three_blobs(rng, 500);
  KMeansOptions opts;
  opts.k = 3;
  opts.max_iterations = 60;
  opts.batch_size = 256;
  const auto result = minibatch_kmeans(data, opts, rng);
  std::vector<double> centers(result.centroids);
  std::sort(centers.begin(), centers.end());
  EXPECT_NEAR(centers[0], 0.0, 1.0);
  EXPECT_NEAR(centers[1], 10.0, 1.0);
  EXPECT_NEAR(centers[2], 20.0, 1.0);
}

TEST(MiniBatchKMeans, DeterministicGivenSeed) {
  Rng r1(9), r2(9);
  std::vector<double> data;
  Rng gen(10);
  for (int i = 0; i < 500; ++i) data.push_back(gen.normal());
  KMeansOptions opts;
  opts.k = 4;
  const auto a = minibatch_kmeans(data, opts, r1);
  const auto b = minibatch_kmeans(data, opts, r2);
  for (std::size_t i = 0; i < a.centroids.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.centroids[i], b.centroids[i]);
  }
}

// ------------------------------------------------------------------ Kernels
//
// Centroids, labels, sizes, inertia, iterations and the RNG position must
// be memcmp-equal to the reference loop's (a NaN centroid only NaN; see
// same_centroids). The inputs hold ties, repeated values, exact +0 and -0,
// and, in one pattern, +-inf and NaN.

/// n values of one pattern: 0 draws from seven levels (repeated values,
/// +0 and -0, and points halfway between levels, so equal distances and
/// duplicate centres occur); 1 is normal noise with runs of repeats and
/// signed zeros; 2 is the same with +inf, -inf and NaN mixed in.
std::vector<double> kmeans_pattern(int pattern, std::size_t n, Rng& rng) {
  static constexpr double kLevels[] = {-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0};
  static constexpr double kSpecials[] = {
      ref::kInf, -ref::kInf, std::numeric_limits<double>::quiet_NaN()};
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (pattern == 0) {
      v[i] = kLevels[rng.uniform_int(7)];
    } else if (i % 5 == 4) {
      v[i] = v[i - 1];
    } else if (i % 13 == 6) {
      v[i] = (i / 13) % 2 == 0 ? 0.0 : -0.0;
    } else if (pattern == 2 && i % 11 == 1) {
      v[i] = kSpecials[(i / 11) % 3];
    } else {
      v[i] = rng.normal();
    }
  }
  return v;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Centroids bit for bit, except that any two NaNs match. Where both
/// operands of an add or a multiply are NaN, x86 returns the first source
/// operand, and for a commutative operation which one comes first is the
/// compiler's choice: the reference loop's own source, built at -O0 and at
/// -O3, gives NaN centroids of opposite sign on these inputs. No label,
/// size or inertia depends on those bits, since a NaN distance is never
/// chosen.
bool same_centroids(const std::vector<double>& a,
                    const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool both_nan = std::isnan(a[i]) && std::isnan(b[i]);
    if (!both_nan && std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(Kernels, MiniBatchKMeansMatchesOnlineLoop) {
  std::vector<std::size_t> ks{1, 2, 3, 4, 5, 6, 7, 8, 9, 20};
  for (const std::size_t n :
       {1u, 2u, 3u, 511u, 512u, 16384u, 16385u, 65536u}) {
    for (int pattern = 0; pattern < 3; ++pattern) {
      Rng gen(n * 3 + static_cast<std::size_t>(pattern));
      const auto data = kmeans_pattern(pattern, n, gen);
      for (const std::size_t k : ks) {
        if (k > n) continue;
        for (const std::size_t batch : {1024u, 37u}) {
          for (const std::size_t iters : {0u, 1u, 50u}) {
            KMeansOptions opts;
            opts.k = k;
            opts.batch_size = batch;
            opts.max_iterations = iters;
            Rng r_got(k * 1000 + n, batch), r_want = r_got;
            const auto got = minibatch_kmeans(data, opts, r_got);
            const auto want = ref::minibatch_kmeans(data, opts, r_want);
            std::ostringstream what;
            what << "n " << n << " pattern " << pattern << " k " << k
                 << " batch " << batch << " iterations " << iters;
            ASSERT_TRUE(same_centroids(got.centroids, want.centroids))
                << what.str();
            ASSERT_TRUE(same_bits(got.labels, want.labels)) << what.str();
            ASSERT_TRUE(same_bits(got.sizes, want.sizes)) << what.str();
            ASSERT_EQ(std::memcmp(&got.inertia, &want.inertia,
                                  sizeof(double)),
                      0)
                << what.str() << ": " << got.inertia << " != " << want.inertia;
            ASSERT_EQ(got.iterations, want.iterations) << what.str();
            ASSERT_EQ(r_got.counter(), r_want.counter()) << what.str();
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace sickle::cluster
