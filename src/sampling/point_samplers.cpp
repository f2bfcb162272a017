#include "sampling/point_samplers.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "cluster/kmeans.hpp"
#include "common/mathx.hpp"
#include "stats/entropy.hpp"
#include "stats/histogram.hpp"

namespace sickle::sampling {

namespace {

/// Column of the cube corresponding to a named variable.
const std::vector<double>& cube_column(const field::Hypercube& cube,
                                       const std::string& var) {
  for (std::size_t i = 0; i < cube.variables.size(); ++i) {
    if (cube.variables[i] == var) return cube.values[i];
  }
  throw RuntimeError("cube does not carry variable: " + var);
}

void tally_read(const SamplerContext& ctx, const field::Hypercube& cube,
                std::size_t vars_touched) {
  if (ctx.energy == nullptr) return;
  ctx.energy->add_bytes(static_cast<double>(cube.points()) *
                        static_cast<double>(vars_touched) * sizeof(double));
}

std::size_t clamp_samples(const field::Hypercube& cube,
                          const SamplerContext& ctx) {
  return std::min<std::size_t>(ctx.num_samples, cube.points());
}

/// Bins of MaxEnt's shared per-cluster PMF binning.
constexpr std::size_t kClusterPmfBins = 100;

/// Allocate k draws across groups by their exact (fractional) quotas with
/// largest-remainder rounding, each group capped at its size; a deficit
/// left by small groups spills to groups with spare capacity in order.
/// Then draw each group's share uniformly without replacement, groups in
/// order. The one allocator behind stratified and MaxEnt sampling.
std::vector<std::size_t> allocate_and_draw(
    std::span<const double> quotas,
    const std::vector<std::vector<std::size_t>>& members, std::size_t k,
    Rng& rng) {
  const std::size_t groups = members.size();
  std::vector<std::size_t> alloc(groups, 0);
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    alloc[g] = std::min<std::size_t>(
        static_cast<std::size_t>(std::floor(quotas[g])), members[g].size());
    assigned += alloc[g];
    remainders.emplace_back(quotas[g] - std::floor(quotas[g]), g);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (const auto& [frac, g] : remainders) {
    if (assigned >= k) break;
    if (alloc[g] < members[g].size()) {
      ++alloc[g];
      ++assigned;
    }
  }
  for (std::size_t g = 0; assigned < k && g < groups; ++g) {
    while (assigned < k && alloc[g] < members[g].size()) {
      ++alloc[g];
      ++assigned;
    }
  }

  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t g = 0; g < groups; ++g) {
    if (alloc[g] == 0) continue;
    const auto pick =
        rng.sample_without_replacement(members[g].size(), alloc[g]);
    for (const std::size_t j : pick) out.push_back(members[g][j]);
  }
  return out;
}

}  // namespace

std::vector<std::size_t> weighted_sample_without_replacement(
    std::span<const double> weights, std::size_t k, Rng& rng) {
  SICKLE_CHECK_MSG(k <= weights.size(),
                   "cannot draw more samples than candidates");
  // Efraimidis–Spirakis: key_i = -log(u_i)/w_i (exponential with rate w_i);
  // the k smallest keys form a weighted sample without replacement.
  std::vector<std::pair<double, std::size_t>> keys;
  keys.reserve(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i];
    SICKLE_CHECK_MSG(w >= 0.0, "negative weight");
    if (w <= 0.0) continue;  // zero-weight items are never selected
    double u = rng.uniform();
    while (u <= 0.0) u = rng.uniform();
    keys.emplace_back(-std::log(u) / w, i);
  }
  SICKLE_CHECK_MSG(keys.size() >= k,
                   "not enough positive-weight candidates for k draws");
  std::partial_sort(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(k),
                    keys.end());
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) out.push_back(keys[i].second);
  return out;
}

std::vector<std::size_t> RandomSampler::select(const field::Hypercube& cube,
                                               const SamplerContext& ctx,
                                               Rng& rng) const {
  tally_read(ctx, cube, 1);
  return rng.sample_without_replacement(cube.points(),
                                        clamp_samples(cube, ctx));
}

std::vector<std::size_t> FullSampler::select(const field::Hypercube& cube,
                                             const SamplerContext& ctx,
                                             Rng& /*rng*/) const {
  tally_read(ctx, cube, cube.variables.size());
  std::vector<std::size_t> out(cube.points());
  std::iota(out.begin(), out.end(), 0);
  return out;
}

std::vector<std::size_t> StratifiedSampler::select(
    const field::Hypercube& cube, const SamplerContext& ctx, Rng& rng) const {
  const auto& cv = cube_column(cube, ctx.cluster_var);
  tally_read(ctx, cube, 2);
  const std::size_t k = clamp_samples(cube, ctx);
  const std::size_t strata = std::max<std::size_t>(1, ctx.num_clusters);

  // Equal-width strata over the cluster variable.
  stats::Histogram hist = stats::Histogram::fit(cv, strata);
  std::vector<std::vector<std::size_t>> members(strata);
  for (std::size_t i = 0; i < cv.size(); ++i) {
    members[hist.bin_of(cv[i])].push_back(i);
  }

  // Proportional allocation.
  std::vector<double> quotas(strata);
  for (std::size_t s = 0; s < strata; ++s) {
    quotas[s] = static_cast<double>(k) *
                static_cast<double>(members[s].size()) /
                static_cast<double>(cv.size());
  }
  return allocate_and_draw(quotas, members, k, rng);
}

std::vector<std::size_t> LatinHypercubeSampler::select(
    const field::Hypercube& cube, const SamplerContext& ctx, Rng& rng) const {
  tally_read(ctx, cube, 1);
  const std::size_t n = cube.points();
  const std::size_t k = clamp_samples(cube, ctx);
  // The cube's points are ordered z-fastest over an (ex, ey, ez) lattice.
  // LHS on a lattice: permute k strata per axis and take the diagonal of
  // the permutations, mapping stratum s to a random cell inside it.
  // Recover edges from the cube size assuming the tiling's ordering.
  // For robustness against degenerate (flattened) cubes, operate on the
  // flat index: divide [0, n) into k strata and pick one point per stratum,
  // then shuffle. This retains LHS's one-sample-per-stratum marginal
  // property along the dominant axis ordering.
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    // Strata [s*n/k, (s+1)*n/k) are disjoint, so selections are distinct.
    const std::size_t b = s * n / k;
    const std::size_t e = std::max(b + 1, (s + 1) * n / k);
    out.push_back(b + rng.uniform_int(e - b));
  }
  return out;
}

std::vector<std::size_t> UipsSampler::select(const field::Hypercube& cube,
                                             const SamplerContext& ctx,
                                             Rng& rng) const {
  SICKLE_CHECK_MSG(!ctx.phase_variables.empty(),
                   "UIPS needs phase_variables");
  tally_read(ctx, cube, ctx.phase_variables.size());
  const std::size_t n = cube.points();
  const std::size_t k = clamp_samples(cube, ctx);
  const std::size_t d = ctx.phase_variables.size();

  // Assemble phase-space points.
  std::vector<const std::vector<double>*> cols;
  cols.reserve(d);
  for (const auto& var : ctx.phase_variables) {
    cols.push_back(&cube_column(cube, var));
  }
  std::vector<std::vector<double>> pts(n, std::vector<double>(d));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) pts[i][j] = (*cols[j])[i];
  }

  // Binned density estimate, then weights 1/p-hat.
  stats::HistogramND hist = stats::HistogramND::fit(
      std::span<const std::vector<double>>(pts), ctx.pdf_bins);
  std::vector<double> weights(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double density = hist.density_at(pts[i]);
    weights[i] = 1.0 / std::max(density, 1e-12);
  }
  if (ctx.energy != nullptr) {
    ctx.energy->add_flops(static_cast<double>(n) * static_cast<double>(d) *
                          4.0);
  }
  return weighted_sample_without_replacement(
      std::span<const double>(weights), k, rng);
}

std::vector<std::size_t> MaxEntSampler::select(const field::Hypercube& cube,
                                               const SamplerContext& ctx,
                                               Rng& rng) const {
  SICKLE_CHECK_MSG(!ctx.cluster_var.empty(), "MaxEnt needs cluster_var");
  const auto& cv = cube_column(cube, ctx.cluster_var);
  tally_read(ctx, cube, 2);
  const std::size_t n = cube.points();
  const std::size_t k = clamp_samples(cube, ctx);
  const std::size_t num_clusters =
      std::min<std::size_t>(std::max<std::size_t>(2, ctx.num_clusters), n);

  // 1. Cluster the target variable (1D).
  cluster::KMeansOptions opts;
  opts.k = num_clusters;
  opts.max_iterations = 50;
  cluster::KMeansResult clusters =
      cluster::minibatch_kmeans(std::span<const double>(cv), opts, rng);
  if (ctx.energy != nullptr) {
    ctx.energy->add_flops(static_cast<double>(n) *
                          static_cast<double>(num_clusters) *
                          static_cast<double>(clusters.iterations) * 3.0);
  }

  // 2. Per-cluster PMFs of the target variable over a shared binning.
  stats::Histogram global = stats::Histogram::fit(cv, kClusterPmfBins);
  std::vector<stats::Histogram> per_cluster(
      num_clusters,
      stats::Histogram(global.lo(), global.hi(), global.bins()));
  std::vector<std::vector<std::size_t>> members(num_clusters);
  for (std::size_t i = 0; i < n; ++i) {
    per_cluster[clusters.labels[i]].add(cv[i]);
    members[clusters.labels[i]].push_back(i);
  }
  std::vector<std::vector<double>> pmfs;
  pmfs.reserve(num_clusters);
  for (const auto& h : per_cluster) pmfs.push_back(h.pmf());

  // 3. KL adjacency (Eq. 2) and node strengths.
  const std::vector<double> adjacency =
      stats::kl_adjacency(std::span<const std::vector<double>>(pmfs));
  const std::vector<double> strengths = stats::node_strengths(
      std::span<const double>(adjacency), num_clusters);
  const std::vector<double> probs =
      stats::normalize_weights(std::span<const double>(strengths));

  // 4. Allocate samples across clusters by strength and draw randomly
  //    within each cluster.
  std::vector<double> quotas(num_clusters);
  for (std::size_t c = 0; c < num_clusters; ++c) {
    quotas[c] = static_cast<double>(k) * probs[c];
  }
  return allocate_and_draw(quotas, members, k, rng);
}

SamplerRegistry::SamplerRegistry() {
  register_sampler("random", [] { return std::make_unique<RandomSampler>(); });
  register_sampler("full", [] { return std::make_unique<FullSampler>(); });
  register_sampler("stratified",
                   [] { return std::make_unique<StratifiedSampler>(); });
  register_sampler("lhs",
                   [] { return std::make_unique<LatinHypercubeSampler>(); });
  register_sampler("uips", [] { return std::make_unique<UipsSampler>(); });
  register_sampler("maxent", [] { return std::make_unique<MaxEntSampler>(); });
}

SamplerRegistry& SamplerRegistry::instance() {
  static SamplerRegistry registry;
  return registry;
}

void SamplerRegistry::register_sampler(const std::string& name,
                                       Factory factory) {
  factories_[name] = std::move(factory);
}

std::unique_ptr<PointSampler> SamplerRegistry::create(
    const std::string& name) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    throw RuntimeError("unknown sampler: " + name);
  }
  return it->second();
}

std::vector<std::string> SamplerRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, _] : factories_) out.push_back(name);
  return out;
}

}  // namespace sickle::sampling
