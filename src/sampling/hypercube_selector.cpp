#include "sampling/hypercube_selector.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "cluster/kmeans.hpp"
#include "sampling/cube_scoring.hpp"
#include "sampling/point_samplers.hpp"
#include "stats/entropy.hpp"

namespace sickle::sampling {

namespace {

/// Most points k-means is fitted on; larger fields are subsampled to this.
constexpr std::size_t kClusterSubsample = 65536;

/// Fit 1D k-means to (a subsample of) the cluster variable. RNG consumption
/// matches the historical in-memory implementation exactly (indices are
/// drawn first, values gathered after), so Snapshot- and store-backed runs
/// select identical clusterings.
cluster::KMeansResult fit_clusters(const field::FieldSource& src,
                                   const HypercubeSelectorConfig& cfg,
                                   Rng& rng) {
  cluster::KMeansOptions opts;
  opts.k = std::max<std::size_t>(2, cfg.num_clusters);
  opts.max_iterations = 50;
  const std::size_t n = src.shape().size();
  if (n <= kClusterSubsample) {
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), std::size_t{0});
    const auto cv = src.gather(cfg.cluster_var,
                               std::span<const std::size_t>(all));
    return cluster::minibatch_kmeans(std::span<const double>(cv), opts, rng);
  }
  std::vector<std::size_t> pick(kClusterSubsample);
  for (std::size_t& i : pick) i = rng.uniform_int(n);
  const auto sub = src.gather(cfg.cluster_var,
                              std::span<const std::size_t>(pick));
  return cluster::minibatch_kmeans(std::span<const double>(sub), opts, rng);
}

/// Fused scoring: label counts -> PMFs -> maxent strengths or entropies.
/// All parallelism lives behind cfg.pool; weights are identical for any
/// thread count (see cube_scoring.hpp).
std::vector<double> cube_weights(const field::FieldSource& src,
                                 const field::CubeTiling& tiling,
                                 const HypercubeSelectorConfig& cfg,
                                 const cluster::KMeansResult& clusters) {
  const auto counts = count_cube_labels(src, tiling, clusters,
                                        cfg.cluster_var, cfg.pool);
  const auto pmfs = pmfs_from_counts(std::span<const std::uint32_t>(counts),
                                     clusters.k, tiling.spec().points());
  return cfg.method == "entropy"
             ? pmf_row_entropies(std::span<const double>(pmfs),
                                 tiling.count(), clusters.k)
             : kl_node_strengths(std::span<const double>(pmfs),
                                 tiling.count(), clusters.k, cfg.pool);
}

std::vector<std::size_t> draw_cubes(std::span<const double> weights,
                                    std::size_t num, Rng& rng) {
  const std::size_t n = weights.size();
  const std::size_t k = std::min(num, n);
  // Guard against all-zero weights (uniform fallback).
  double total = 0.0;
  for (const double w : weights) total += w;
  if (total <= 0.0) {
    return rng.sample_without_replacement(n, k);
  }
  return weighted_sample_without_replacement(weights, k, rng);
}

void check_method(const std::string& method) {
  SICKLE_CHECK_MSG(std::ranges::find(kHypercubeMethods, method) !=
                       kHypercubeMethods.end(),
                   "unknown hypercube method: " + method);
}

void tally_scan(const HypercubeSelectorConfig& cfg, std::size_t points) {
  if (cfg.energy == nullptr) return;
  cfg.energy->add_bytes(static_cast<double>(points) * sizeof(double));
  cfg.energy->add_flops(static_cast<double>(points) *
                        static_cast<double>(cfg.num_clusters));
}

}  // namespace

std::vector<std::size_t> select_hypercubes(const field::FieldSource& src,
                                           const field::CubeTiling& tiling,
                                           const HypercubeSelectorConfig& cfg) {
  Rng rng(cfg.seed, /*stream=*/0xD1);
  const std::size_t n = tiling.count();
  const std::size_t k = std::min(cfg.num_hypercubes, n);
  if (cfg.method == "random") {
    tally_scan(cfg, 0);
    return rng.sample_without_replacement(n, k);
  }
  check_method(cfg.method);
  Rng fit_rng(cfg.seed, /*stream=*/0xF17);
  const auto clusters = fit_clusters(src, cfg, fit_rng);
  const auto weights = cube_weights(src, tiling, cfg, clusters);
  tally_scan(cfg, src.shape().size());
  return draw_cubes(std::span<const double>(weights), k, rng);
}

std::vector<std::size_t> select_hypercubes(const field::Snapshot& snap,
                                           const field::CubeTiling& tiling,
                                           const HypercubeSelectorConfig& cfg) {
  return select_hypercubes(field::SnapshotSource(snap), tiling, cfg);
}

std::vector<std::size_t> select_hypercubes(const field::Snapshot& snap,
                                           const field::CubeTiling& tiling,
                                           const HypercubeSelectorConfig& cfg,
                                           Comm& comm) {
  Rng rng(cfg.seed, /*stream=*/0xD1);
  const std::size_t n = tiling.count();
  const std::size_t k = std::min(cfg.num_hypercubes, n);
  if (cfg.method == "random") {
    // Deterministic given the seed; every rank computes the same draw.
    return rng.sample_without_replacement(n, k);
  }
  check_method(cfg.method);

  // Root fits the clustering (as the reference does), then broadcasts the
  // centroids so labels are consistent across ranks.
  const field::SnapshotSource src(snap);
  std::vector<double> centroids;
  if (comm.is_root()) {
    Rng fit_rng(cfg.seed, /*stream=*/0xF17);
    centroids = fit_clusters(src, cfg, fit_rng).centroids;
  }
  comm.broadcast(centroids, 0);
  cluster::KMeansResult clusters;
  clusters.k = centroids.size();
  clusters.centroids = centroids;

  // Each rank counts labels for its block of cubes through the same fused
  // batch kernel as the serial path; PMFs are flattened for allgather.
  const auto [begin, end] = comm.block_range(n);
  const auto local_counts = count_cube_labels(
      src, tiling, clusters, cfg.cluster_var, /*pool=*/nullptr, begin, end);
  const std::vector<double> local_flat = pmfs_from_counts(
      std::span<const std::uint32_t>(local_counts), clusters.k,
      tiling.spec().points());
  if (cfg.energy != nullptr) {
    const double pts = static_cast<double>(end - begin) *
                       static_cast<double>(tiling.spec().points());
    cfg.energy->add_bytes(pts * sizeof(double));
    cfg.energy->add_flops(pts * static_cast<double>(clusters.k));
  }
  const std::vector<double> all_flat = comm.allgather(local_flat);
  SICKLE_CHECK(all_flat.size() == n * clusters.k);

  // The KL reduction is row-decomposed too: each rank reduces its block of
  // rows to node strengths (or entropies) with the identical algebraic
  // O(k)-per-row kernel the serial selector uses (every rank derives the
  // same column log-sums from the allgathered PMFs), so serial and SPMD
  // weights are bit-equal. The strengths are allgathered and every rank
  // performs the identical weighted draw.
  std::vector<double> local_weights;
  local_weights.reserve(end - begin);
  if (cfg.method == "maxent") {
    const auto logs = stats::log_pmf_rows(std::span<const double>(all_flat),
                                          n, clusters.k);
    const auto col_sums =
        stats::log_col_sums(std::span<const double>(logs), n, clusters.k);
    for (std::size_t i = begin; i < end; ++i) {
      local_weights.push_back(stats::kl_row_strength_fast(
          std::span<const double>(all_flat), std::span<const double>(logs),
          std::span<const double>(col_sums), n, clusters.k, i));
    }
  } else {
    for (std::size_t i = begin; i < end; ++i) {
      local_weights.push_back(stats::shannon_entropy(
          std::span<const double>(all_flat)
              .subspan(i * clusters.k, clusters.k)));
    }
  }
  const std::vector<double> weights = comm.allgather(local_weights);
  SICKLE_CHECK(weights.size() == n);
  // Same RNG state on all ranks -> identical selection everywhere.
  return draw_cubes(std::span<const double>(weights), k, rng);
}

}  // namespace sickle::sampling
