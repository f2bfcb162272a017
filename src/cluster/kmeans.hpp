// MiniBatchKMeans (Sculley 2010) with k-means++ seeding.
//
// The paper's MaxEnt sampler clusters the target variable with scikit-learn
// MiniBatchKMeans before computing per-cluster entropy weights; both the
// hypercube selector and the MaxEnt point sampler fit with it.
//
// Data layout: row-major flat array, `n` points of `dims` doubles.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace sickle::cluster {

struct KMeansOptions {
  std::size_t k = 8;
  std::size_t max_iterations = 100;  ///< mini-batch updates
  std::size_t batch_size = 1024;     ///< points drawn per update
};

struct KMeansResult {
  std::size_t k = 0;
  std::size_t dims = 0;
  std::vector<double> centroids;      ///< k * dims, row-major
  std::vector<std::uint32_t> labels;  ///< n, cluster id per point
  std::vector<std::size_t> sizes;     ///< k, points per cluster
  double inertia = 0.0;               ///< sum of squared distances to centroid
  std::size_t iterations = 0;

  /// Assign an arbitrary point to its nearest centroid.
  [[nodiscard]] std::uint32_t assign(std::span<const double> point) const;

  /// Assign a batch of points in one call: labels[i] is the nearest
  /// centroid of values[i*dims .. i*dims+dims). The 1-D case (the selector
  /// hot path) runs a fused loop over a local centroid table — no per-point
  /// span construction or per-centroid function calls. Bitwise identical to
  /// calling assign() per point.
  void assign_batch(std::span<const double> values,
                    std::span<std::uint32_t> labels) const;
};

/// MiniBatchKMeans: per-centre learning-rate updates over random batches,
/// followed by one full labeling pass. Matches the reference pipeline's
/// clustering cost profile on large fields.
[[nodiscard]] KMeansResult minibatch_kmeans(std::span<const double> data,
                                            std::size_t n, std::size_t dims,
                                            const KMeansOptions& opts,
                                            Rng& rng);

/// Squared Euclidean distance between a point and a centroid row.
[[nodiscard]] double squared_distance(std::span<const double> a,
                                      std::span<const double> b);

}  // namespace sickle::cluster
