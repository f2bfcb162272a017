// Unit tests: MiniBatchKMeans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

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

TEST(KMeans, LabelsConsistentWithCentroids) {
  Rng rng(2);
  const auto data = three_blobs(rng, 100);
  KMeansOptions opts;
  opts.k = 3;
  const auto result = minibatch_kmeans(data, data.size(), 1, opts, rng);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(result.labels[i],
              result.assign(std::span<const double>(&data[i], 1)));
  }
}

TEST(KMeans, AssignBatchMatchesPerPointAssign1D) {
  Rng rng(21);
  const auto data = three_blobs(rng, 150);
  KMeansOptions opts;
  opts.k = 4;
  const auto result = minibatch_kmeans(data, data.size(), 1, opts, rng);
  std::vector<std::uint32_t> labels(data.size());
  result.assign_batch(data, std::span<std::uint32_t>(labels));
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(labels[i], result.assign(std::span<const double>(&data[i], 1)))
        << "point " << i;
  }
}

TEST(KMeans, AssignBatchMatchesPerPointAssignMultiDim) {
  Rng rng(22);
  std::vector<double> data(120 * 3);
  for (double& x : data) x = rng.normal();
  KMeansOptions opts;
  opts.k = 5;
  const auto result = minibatch_kmeans(data, 120, 3, opts, rng);
  std::vector<std::uint32_t> labels(120);
  result.assign_batch(data, std::span<std::uint32_t>(labels));
  for (std::size_t i = 0; i < 120; ++i) {
    EXPECT_EQ(labels[i],
              result.assign(std::span<const double>(data).subspan(i * 3, 3)));
  }
}

TEST(KMeans, AssignBatchSizeMismatchThrows) {
  Rng rng(23);
  const auto data = three_blobs(rng, 20);
  KMeansOptions opts;
  opts.k = 2;
  const auto result = minibatch_kmeans(data, data.size(), 1, opts, rng);
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
  const auto result = minibatch_kmeans(data, data.size(), 1, opts, rng);
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
  const auto one = minibatch_kmeans(data, data.size(), 1, opts1, r1);
  const auto six = minibatch_kmeans(data, data.size(), 1, opts6, r2);
  EXPECT_LT(six.inertia, one.inertia);
}

TEST(KMeans, KEqualsNGivesZeroInertia) {
  const std::vector<double> data{1.0, 2.0, 3.0, 4.0};
  KMeansOptions opts;
  opts.k = 4;
  Rng rng(5);
  const auto result = minibatch_kmeans(data, 4, 1, opts, rng);
  EXPECT_NEAR(result.inertia, 0.0, 1e-20);
}

TEST(KMeans, RejectsMoreClustersThanPoints) {
  const std::vector<double> data{1.0, 2.0};
  KMeansOptions opts;
  opts.k = 3;
  Rng rng(6);
  EXPECT_THROW(minibatch_kmeans(data, 2, 1, opts, rng), CheckError);
}

TEST(KMeans, MultiDimensional) {
  Rng rng(7);
  std::vector<double> data;
  for (int blob = 0; blob < 2; ++blob) {
    for (int i = 0; i < 100; ++i) {
      data.push_back(blob * 5.0 + 0.2 * rng.normal());
      data.push_back(blob * -3.0 + 0.2 * rng.normal());
    }
  }
  KMeansOptions opts;
  opts.k = 2;
  const auto result = minibatch_kmeans(data, 200, 2, opts, rng);
  EXPECT_EQ(result.dims, 2u);
  // Cluster centres near (0,0) and (5,-3) in some order.
  const double c0x = result.centroids[0], c1x = result.centroids[2];
  EXPECT_NEAR(std::min(c0x, c1x), 0.0, 0.5);
  EXPECT_NEAR(std::max(c0x, c1x), 5.0, 0.5);
}

TEST(MiniBatchKMeans, ApproximatesBlobCenters) {
  Rng rng(8);
  const auto data = three_blobs(rng, 500);
  KMeansOptions opts;
  opts.k = 3;
  opts.max_iterations = 60;
  opts.batch_size = 256;
  const auto result = minibatch_kmeans(data, data.size(), 1, opts, rng);
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
  const auto a = minibatch_kmeans(data, data.size(), 1, opts, r1);
  const auto b = minibatch_kmeans(data, data.size(), 1, opts, r2);
  for (std::size_t i = 0; i < a.centroids.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.centroids[i], b.centroids[i]);
  }
}

TEST(SquaredDistance, Basics) {
  const std::vector<double> a{0.0, 0.0};
  const std::vector<double> b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(squared_distance(a, a), 0.0);
}

}  // namespace
}  // namespace sickle::cluster
