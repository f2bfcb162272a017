// MiniBatchKMeans (Sculley 2010) with k-means++ seeding, on 1-D data.
//
// The paper's MaxEnt sampler clusters the target variable with scikit-learn
// MiniBatchKMeans before computing per-cluster entropy weights; both the
// hypercube selector and the MaxEnt point sampler fit with it. Each caller
// clusters one variable, so a point is one double and a centroid is one
// double.
//
// The loop is online: each drawn point is assigned against the centres as
// the draws before it in its batch left them, then moves its centre by the
// per-centre rate 1/count (ROADMAP R10 weighs the batch form of Alg. 1).
//
// Arithmetic contract, pinned memcmp-equal by
// Kernels.MiniBatchKMeansMatchesOnlineLoop (tests/test_cluster.cpp):
// - Draws. k-means++ seeding runs first, on the n points or, when n exceeds
//   16,384, on 16,384 points drawn with uniform_int(n). Then come
//   max_iterations * min(batch_size, n) calls to uniform_int(n), one per
//   drawn point. The final pass draws nothing.
// - Nearest centre. The distance is (v - c_j)^2, taken with a strict `<`
//   from +inf in ascending j: the lowest index wins a tie, a NaN distance
//   is never chosen, and index 0 is kept when no distance is below +inf.
// - Update. c += eta * (v - c) with eta = 1.0 / double(count), count taken
//   after the increment.
// - Final pass. Labels, sizes and inertia (summed in point order) come from
//   one scan with the same select.
// - sickle_cluster builds without -march, FMA, -ffast-math or
//   -ffp-contract=fast, so every operation above rounds as written.
#pragma once

#include <cstddef>
#include <cstdint>
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
  std::vector<double> centroids;      ///< k
  std::vector<std::uint32_t> labels;  ///< n, cluster id per point
  std::vector<std::size_t> sizes;     ///< k, points per cluster
  double inertia = 0.0;               ///< sum of squared distances to centroid
  std::size_t iterations = 0;

  /// labels[i] is the nearest centroid of values[i], selected as the
  /// contract above states. The selector labels every grid point through
  /// here.
  void assign_batch(std::span<const double> values,
                    std::span<std::uint32_t> labels) const;
};

/// Fit k centres to `values` under the contract above. Throws CheckError
/// unless 0 < opts.k <= values.size().
[[nodiscard]] KMeansResult minibatch_kmeans(std::span<const double> values,
                                            const KMeansOptions& opts,
                                            Rng& rng);

}  // namespace sickle::cluster
