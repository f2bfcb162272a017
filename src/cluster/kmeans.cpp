#include "cluster/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace sickle::cluster {

double squared_distance(std::span<const double> a, std::span<const double> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

std::uint32_t KMeansResult::assign(std::span<const double> point) const {
  SICKLE_CHECK(point.size() == dims);
  std::uint32_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < k; ++c) {
    const double d = squared_distance(
        point, std::span<const double>(centroids.data() + c * dims, dims));
    if (d < best_d) {
      best_d = d;
      best = static_cast<std::uint32_t>(c);
    }
  }
  return best;
}

void KMeansResult::assign_batch(std::span<const double> values,
                                std::span<std::uint32_t> labels) const {
  SICKLE_CHECK_MSG(dims > 0 && k > 0, "assign_batch on empty clustering");
  SICKLE_CHECK_MSG(values.size() == labels.size() * dims,
                   "assign_batch: values/labels size mismatch");
  if (dims == 1) {
    // Fused 1-D hot path: the selector classifies every grid point through
    // here. A per-point scan over a local centroid table; strict `<` with
    // ascending j keeps assign()'s lowest-index tie-break.
    const double* c = centroids.data();
    const std::size_t kk = k;
    const std::size_t n = labels.size();
    for (std::size_t i = 0; i < n; ++i) {
      const double v = values[i];
      double best_d = std::numeric_limits<double>::infinity();
      std::uint32_t best = 0;
      for (std::size_t j = 0; j < kk; ++j) {
        const double d = (v - c[j]) * (v - c[j]);
        if (d < best_d) {
          best_d = d;
          best = static_cast<std::uint32_t>(j);
        }
      }
      labels[i] = best;
    }
    return;
  }
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = assign(values.subspan(i * dims, dims));
  }
}

namespace {

std::span<const double> point_at(std::span<const double> data, std::size_t i,
                                 std::size_t dims) {
  return data.subspan(i * dims, dims);
}

/// k-means++ seeding (Arthur & Vassilvitskii 2007): first centre uniform,
/// subsequent centres drawn with probability proportional to squared
/// distance from the nearest existing centre.
std::vector<double> kmeanspp_init(std::span<const double> data, std::size_t n,
                                  std::size_t dims, std::size_t k, Rng& rng) {
  std::vector<double> centroids(k * dims);
  std::vector<double> d2(n, std::numeric_limits<double>::infinity());

  const std::size_t first = rng.uniform_int(n);
  std::copy_n(data.begin() + first * dims, dims, centroids.begin());

  for (std::size_t c = 1; c < k; ++c) {
    const std::span<const double> prev(centroids.data() + (c - 1) * dims, dims);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      d2[i] = std::min(d2[i], squared_distance(point_at(data, i, dims), prev));
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
    std::copy_n(data.begin() + chosen * dims, dims,
                centroids.begin() + c * dims);
  }
  return centroids;
}

std::uint32_t nearest_centroid(std::span<const double> point,
                               std::span<const double> centroids,
                               std::size_t k, std::size_t dims,
                               double* dist2_out = nullptr) {
  std::uint32_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < k; ++c) {
    const double d = squared_distance(
        point, centroids.subspan(c * dims, dims));
    if (d < best_d) {
      best_d = d;
      best = static_cast<std::uint32_t>(c);
    }
  }
  if (dist2_out != nullptr) *dist2_out = best_d;
  return best;
}

/// Final labeling + inertia + sizes given fixed centroids.
void finalize(std::span<const double> data, std::size_t n, std::size_t dims,
              KMeansResult& result) {
  result.labels.resize(n);
  result.sizes.assign(result.k, 0);
  result.inertia = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double d2 = 0.0;
    const std::uint32_t c =
        nearest_centroid(point_at(data, i, dims),
                         std::span<const double>(result.centroids),
                         result.k, dims, &d2);
    result.labels[i] = c;
    ++result.sizes[c];
    result.inertia += d2;
  }
}

void validate_inputs(std::span<const double> data, std::size_t n,
                     std::size_t dims, const KMeansOptions& opts) {
  SICKLE_CHECK_MSG(dims > 0, "kmeans: dims must be positive");
  SICKLE_CHECK_MSG(data.size() == n * dims, "kmeans: data size mismatch");
  SICKLE_CHECK_MSG(opts.k > 0, "kmeans: k must be positive");
  SICKLE_CHECK_MSG(n >= opts.k, "kmeans: fewer points than clusters");
}

}  // namespace

KMeansResult minibatch_kmeans(std::span<const double> data, std::size_t n,
                              std::size_t dims, const KMeansOptions& opts,
                              Rng& rng) {
  validate_inputs(data, n, dims, opts);
  KMeansResult result;
  result.k = opts.k;
  result.dims = dims;

  // Seed k-means++ on a subsample for large n: the seeding pass is O(n*k)
  // and would dominate the mini-batch savings otherwise.
  const std::size_t seed_n = std::min<std::size_t>(n, 16 * 1024);
  if (seed_n == n) {
    result.centroids = kmeanspp_init(data, n, dims, opts.k, rng);
  } else {
    std::vector<double> sub(seed_n * dims);
    for (std::size_t i = 0; i < seed_n; ++i) {
      const std::size_t j = rng.uniform_int(n);
      std::copy_n(data.begin() + j * dims, dims, sub.begin() + i * dims);
    }
    result.centroids = kmeanspp_init(std::span<const double>(sub), seed_n,
                                     dims, opts.k, rng);
  }

  std::vector<std::size_t> counts(opts.k, 0);  // per-centre update counts
  const std::size_t batch = std::min(opts.batch_size, n);
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    result.iterations = it + 1;
    for (std::size_t b = 0; b < batch; ++b) {
      const std::size_t i = rng.uniform_int(n);
      const auto p = point_at(data, i, dims);
      const std::uint32_t c = nearest_centroid(
          p, std::span<const double>(result.centroids), opts.k, dims);
      // Per-centre learning rate 1/count: converges to the running mean of
      // points assigned to the centre (Sculley 2010, Alg. 1).
      ++counts[c];
      const double eta = 1.0 / static_cast<double>(counts[c]);
      for (std::size_t d = 0; d < dims; ++d) {
        double& cd = result.centroids[c * dims + d];
        cd += eta * (p[d] - cd);
      }
    }
  }
  finalize(data, n, dims, result);
  return result;
}

}  // namespace sickle::cluster
