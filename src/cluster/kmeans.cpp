#include "cluster/kmeans.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace sickle::cluster {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Most points the k-means++ seeding scans; larger inputs seed on a
/// subsample of this size, since the O(n*k) seeding pass would otherwise
/// dominate the mini-batch savings.
constexpr std::size_t kSeedPoints = 16 * 1024;

/// The nearest of the k centroids to v, and its squared distance. Both
/// selects are written branch-free (they compile to a min and a
/// conditional move): the compares depend on the data, and in the draw
/// loop a mispredicted branch would throw away the RNG work already in
/// flight. `closer` is the contract's strict `<`, so neither a NaN d nor
/// a tie replaces the best so far.
inline std::uint32_t nearest(double v, const double* centroids,
                             std::size_t k, double& best_d) {
  std::uint32_t best = 0;
  double bd = kInf;
  for (std::size_t j = 0; j < k; ++j) {
    const double diff = v - centroids[j];
    const double d = diff * diff;
    const bool closer = d < bd;
    best = closer ? static_cast<std::uint32_t>(j) : best;
    bd = closer ? d : bd;
  }
  best_d = bd;
  return best;
}

/// k-means++ seeding (Arthur & Vassilvitskii 2007): first centre uniform,
/// subsequent centres drawn with probability proportional to squared
/// distance from the nearest existing centre.
std::vector<double> kmeanspp_init(std::span<const double> data, std::size_t k,
                                  Rng& rng) {
  const std::size_t n = data.size();
  std::vector<double> centroids(k);
  std::vector<double> d2(n, kInf);
  centroids[0] = data[rng.uniform_int(n)];
  for (std::size_t c = 1; c < k; ++c) {
    const double prev = centroids[c - 1];
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double diff = data[i] - prev;
      d2[i] = std::min(d2[i], diff * diff);
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
      // All points coincide with existing centres; any choice is fine.
      chosen = rng.uniform_int(n);
    }
    centroids[c] = data[chosen];
  }
  return centroids;
}

}  // namespace

void KMeansResult::assign_batch(std::span<const double> values,
                                std::span<std::uint32_t> labels) const {
  SICKLE_CHECK_MSG(k > 0 && centroids.size() == k,
                   "assign_batch on empty clustering");
  SICKLE_CHECK_MSG(values.size() == labels.size(),
                   "assign_batch: values/labels size mismatch");
  double unused = 0.0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = nearest(values[i], centroids.data(), k, unused);
  }
}

KMeansResult minibatch_kmeans(std::span<const double> values,
                              const KMeansOptions& opts, Rng& rng) {
  const std::size_t n = values.size();
  const std::size_t k = opts.k;
  SICKLE_CHECK_MSG(k > 0, "kmeans: k must be positive");
  SICKLE_CHECK_MSG(n >= k, "kmeans: fewer points than clusters");
  KMeansResult result;
  result.k = k;
  if (n <= kSeedPoints) {
    result.centroids = kmeanspp_init(values, k, rng);
  } else {
    std::vector<double> sub(kSeedPoints);
    for (double& x : sub) x = values[rng.uniform_int(n)];
    result.centroids = kmeanspp_init(sub, k, rng);
  }

  // The draw loop is one serial chain: draw, assign, update, next assign.
  // eta[j] is the rate of centre j's next update, 1 / (its count + 1),
  // divided out right after its last update, so the division overlaps the
  // draws in between instead of sitting on the chain.
  double* centroids = result.centroids.data();
  std::vector<std::size_t> counts(k, 0);
  std::vector<double> eta(k, 1.0);
  const std::size_t batch = std::min(opts.batch_size, n);
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    for (std::size_t b = 0; b < batch; ++b) {
      const double v = values[rng.uniform_int(n)];
      double unused = 0.0;
      const std::uint32_t c = nearest(v, centroids, k, unused);
      centroids[c] += eta[c] * (v - centroids[c]);
      eta[c] = 1.0 / static_cast<double>(++counts[c] + 1);
    }
  }
  result.iterations = opts.max_iterations;

  result.labels.resize(n);
  result.sizes.assign(k, 0);
  for (std::size_t i = 0; i < n; ++i) {
    double d2 = 0.0;
    const std::uint32_t c = nearest(values[i], centroids, k, d2);
    result.labels[i] = c;
    ++result.sizes[c];
    result.inertia += d2;
  }
  return result;
}

}  // namespace sickle::cluster
