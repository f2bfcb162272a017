// Unit + property tests: point samplers, weighted draws, hypercube
// selection, temporal sampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "cluster/kmeans.hpp"
#include "common/rng.hpp"
#include "field/field_source.hpp"
#include "field/hypercube.hpp"
#include "flow/spectral_turbulence.hpp"
#include "parallel/thread_pool.hpp"
#include "sampling/cube_scoring.hpp"
#include "sampling/hypercube_selector.hpp"
#include "sampling/point_samplers.hpp"
#include "sampling/temporal.hpp"
#include "stats/descriptive.hpp"
#include "stats/entropy.hpp"
#include "stats/histogram.hpp"

namespace sickle::sampling {
namespace {

/// A synthetic cube whose cluster variable is Gaussian with heavy outliers:
/// tail points are rare but information-rich — exactly the structure
/// MaxEnt is designed to find.
field::Hypercube make_test_cube(std::size_t n, std::uint64_t seed) {
  field::Hypercube cube;
  cube.variables = {"a", "b", "cv"};
  cube.values.resize(3);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    cube.indices.push_back(i);
    const bool outlier = rng.uniform() < 0.02;
    const double v = outlier ? rng.normal(8.0, 0.5) : rng.normal(0.0, 1.0);
    cube.values[0].push_back(rng.normal());
    cube.values[1].push_back(0.5 * v + rng.normal());
    cube.values[2].push_back(v);
  }
  return cube;
}

SamplerContext make_ctx(std::size_t k) {
  SamplerContext ctx;
  ctx.phase_variables = {"a", "b"};
  ctx.cluster_var = "cv";
  ctx.num_samples = k;
  ctx.num_clusters = 8;
  ctx.pdf_bins = 8;
  return ctx;
}

// ------------------------------------------------------------ shared sweep

class SamplerInvariants : public ::testing::TestWithParam<std::string> {};

TEST_P(SamplerInvariants, ReturnsRequestedCountOfDistinctValidIndices) {
  const auto cube = make_test_cube(2000, 1);
  const auto ctx = make_ctx(200);
  auto sampler = SamplerRegistry::instance().create(GetParam());
  Rng rng(7);
  const auto sel = sampler->select(cube, ctx, rng);
  const std::size_t expected =
      (GetParam() == "full") ? cube.points() : ctx.num_samples;
  EXPECT_EQ(sel.size(), expected);
  std::set<std::size_t> uniq(sel.begin(), sel.end());
  EXPECT_EQ(uniq.size(), sel.size()) << "duplicate selections";
  for (const auto i : sel) EXPECT_LT(i, cube.points());
}

TEST_P(SamplerInvariants, DeterministicGivenSeed) {
  const auto cube = make_test_cube(1000, 2);
  const auto ctx = make_ctx(100);
  auto sampler = SamplerRegistry::instance().create(GetParam());
  Rng r1(42), r2(42);
  EXPECT_EQ(sampler->select(cube, ctx, r1), sampler->select(cube, ctx, r2));
}

TEST_P(SamplerInvariants, OversizedRequestClampsToCube) {
  const auto cube = make_test_cube(50, 3);
  const auto ctx = make_ctx(500);  // more than the cube holds
  auto sampler = SamplerRegistry::instance().create(GetParam());
  Rng rng(1);
  const auto sel = sampler->select(cube, ctx, rng);
  EXPECT_EQ(sel.size(), 50u);
}

TEST_P(SamplerInvariants, TalliesEnergyBytes) {
  const auto cube = make_test_cube(500, 4);
  auto ctx = make_ctx(50);
  energy::EnergyCounter counter;
  ctx.energy = &counter;
  auto sampler = SamplerRegistry::instance().create(GetParam());
  Rng rng(1);
  (void)sampler->select(cube, ctx, rng);
  EXPECT_GT(counter.bytes(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllSamplers, SamplerInvariants,
                         ::testing::Values("random", "full", "stratified",
                                           "lhs", "uips", "maxent"),
                         [](const auto& info) { return info.param; });

// ------------------------------------------------------------- per-sampler

TEST(Registry, ListsBuiltins) {
  const auto names = SamplerRegistry::instance().names();
  for (const char* n : {"random", "full", "stratified", "lhs", "uips",
                        "maxent"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), n), names.end()) << n;
  }
}

TEST(Registry, UnknownSamplerThrows) {
  EXPECT_THROW(SamplerRegistry::instance().create("nope"), RuntimeError);
}

TEST(Registry, PluggableUserSampler) {
  // Contribution C1: user samplers register by name.
  class FirstK final : public PointSampler {
   public:
    [[nodiscard]] std::string name() const override { return "first_k"; }
    [[nodiscard]] std::vector<std::size_t> select(
        const field::Hypercube& cube, const SamplerContext& ctx,
        Rng&) const override {
      std::vector<std::size_t> out;
      for (std::size_t i = 0; i < std::min(ctx.num_samples, cube.points());
           ++i) {
        out.push_back(i);
      }
      return out;
    }
  };
  SamplerRegistry::instance().register_sampler(
      "first_k", [] { return std::make_unique<FirstK>(); });
  const auto cube = make_test_cube(100, 5);
  const auto ctx = make_ctx(10);
  Rng rng(1);
  const auto sel =
      SamplerRegistry::instance().create("first_k")->select(cube, ctx, rng);
  EXPECT_EQ(sel, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(WeightedSampling, RespectsWeightsWithoutReplacement) {
  Rng rng(1);
  const std::vector<double> w{10.0, 1.0, 1.0, 1.0};
  std::size_t first_selected = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    const auto sel = weighted_sample_without_replacement(w, 2, rng);
    EXPECT_EQ(sel.size(), 2u);
    EXPECT_NE(sel[0], sel[1]);
    if (sel[0] == 0 || sel[1] == 0) ++first_selected;
  }
  // Item 0 has ~96% inclusion probability at weight 10 vs 1,1,1.
  EXPECT_GT(first_selected, 900u);
}

TEST(WeightedSampling, ZeroWeightNeverSelected) {
  Rng rng(2);
  const std::vector<double> w{1.0, 0.0, 1.0, 1.0};
  for (int trial = 0; trial < 200; ++trial) {
    for (const auto i : weighted_sample_without_replacement(w, 3, rng)) {
      EXPECT_NE(i, 1u);
    }
  }
}

TEST(WeightedSampling, InsufficientPositiveWeightsThrows) {
  Rng rng(3);
  const std::vector<double> w{1.0, 0.0};
  EXPECT_THROW(weighted_sample_without_replacement(w, 2, rng), CheckError);
}

TEST(Stratified, ProportionalAllocation) {
  // 80/20 bimodal cluster variable -> strata draw should be ~80/20.
  field::Hypercube cube;
  cube.variables = {"cv"};
  cube.values.resize(1);
  Rng gen(4);
  for (std::size_t i = 0; i < 1000; ++i) {
    cube.indices.push_back(i);
    cube.values[0].push_back(i < 800 ? 0.0 + 0.01 * gen.normal()
                                     : 1.0 + 0.01 * gen.normal());
  }
  SamplerContext ctx;
  ctx.cluster_var = "cv";
  ctx.num_samples = 100;
  ctx.num_clusters = 2;
  StratifiedSampler sampler;
  Rng rng(5);
  const auto sel = sampler.select(cube, ctx, rng);
  std::size_t low = 0;
  for (const auto i : sel) {
    if (cube.values[0][i] < 0.5) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low), 80.0, 5.0);
}

TEST(Lhs, OnePointPerStratum) {
  field::Hypercube cube;
  cube.variables = {"cv"};
  cube.values.resize(1);
  for (std::size_t i = 0; i < 100; ++i) {
    cube.indices.push_back(i);
    cube.values[0].push_back(0.0);
  }
  SamplerContext ctx;
  ctx.num_samples = 10;
  LatinHypercubeSampler sampler;
  Rng rng(6);
  const auto sel = sampler.select(cube, ctx, rng);
  ASSERT_EQ(sel.size(), 10u);
  // Exactly one selection inside each decile of the flat index space.
  std::vector<int> strata(10, 0);
  for (const auto i : sel) ++strata[i / 10];
  for (const int c : strata) EXPECT_EQ(c, 1);
}

TEST(Uips, FlattensThePhaseSpacePdf) {
  // Data heavily concentrated near the origin of phase space; UIPS should
  // produce a flatter sampled distribution than random sampling.
  field::Hypercube cube;
  cube.variables = {"a", "b"};
  cube.values.resize(2);
  Rng gen(7);
  for (std::size_t i = 0; i < 8000; ++i) {
    cube.indices.push_back(i);
    // 90% in a tight core, 10% spread wide.
    const double s = (gen.uniform() < 0.9) ? 0.2 : 3.0;
    cube.values[0].push_back(s * gen.normal());
    cube.values[1].push_back(s * gen.normal());
  }
  SamplerContext ctx;
  ctx.phase_variables = {"a", "b"};
  ctx.num_samples = 800;
  ctx.pdf_bins = 10;

  Rng r1(8), r2(8);
  const auto uips_sel = UipsSampler().select(cube, ctx, r1);
  const auto rand_sel = RandomSampler().select(cube, ctx, r2);

  auto entropy_of = [&](const std::vector<std::size_t>& sel) {
    std::vector<double> a;
    for (const auto i : sel) a.push_back(cube.values[0][i]);
    return stats::shannon_entropy(
        std::span<const double>(stats::Histogram::fit(a, 20).pmf()));
  };
  // Flatter distribution == higher entropy of the sampled marginal.
  EXPECT_GT(entropy_of(uips_sel), entropy_of(rand_sel) + 0.2);
}

TEST(MaxEnt, CoversTailsBetterThanRandom) {
  // The Fig. 5 property: at a 10% sampling rate, MaxEnt should hold more
  // mass in the reference distribution's tails than random sampling.
  const auto cube = make_test_cube(10000, 9);
  auto ctx = make_ctx(1000);
  ctx.num_clusters = 10;
  Rng r1(10), r2(10);
  const auto maxent_sel = MaxEntSampler().select(cube, ctx, r1);
  const auto random_sel = RandomSampler().select(cube, ctx, r2);

  const auto& cv = cube.values[2];
  auto tail_frac = [&](const std::vector<std::size_t>& sel) {
    std::vector<double> vals;
    for (const auto i : sel) vals.push_back(cv[i]);
    return stats::tail_coverage(std::span<const double>(cv),
                                std::span<const double>(vals), 0.02);
  };
  EXPECT_GT(tail_frac(maxent_sel), 2.0 * tail_frac(random_sel));
}

TEST(MaxEnt, ReproducibleAcrossReplicatesThanRandomIsNot) {
  // Discussion §7: MaxEnt exhibits less seed-to-seed variance in what it
  // captures. Measure the std of the sampled cluster-variable mean across
  // seeds.
  const auto cube = make_test_cube(5000, 11);
  auto ctx = make_ctx(500);
  std::vector<double> maxent_means, random_means;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng r1(seed), r2(seed);
    for (const bool use_maxent : {true, false}) {
      const auto sel = use_maxent
                           ? MaxEntSampler().select(cube, ctx, r1)
                           : RandomSampler().select(cube, ctx, r2);
      double mean = 0.0;
      for (const auto i : sel) mean += std::abs(cube.values[2][i]);
      mean /= static_cast<double>(sel.size());
      (use_maxent ? maxent_means : random_means).push_back(mean);
    }
  }
  // Both produce stable statistics; this asserts the weaker, robust
  // property that MaxEnt's signature (high |cv| content) is consistently
  // above random's across every replicate.
  const double worst_maxent =
      *std::min_element(maxent_means.begin(), maxent_means.end());
  const double best_random =
      *std::max_element(random_means.begin(), random_means.end());
  EXPECT_GT(worst_maxent, best_random);
}

TEST(MaxEnt, RequiresClusterVariable) {
  const auto cube = make_test_cube(100, 12);
  SamplerContext ctx;
  ctx.num_samples = 10;
  MaxEntSampler sampler;
  Rng rng(1);
  EXPECT_THROW(sampler.select(cube, ctx, rng), CheckError);
}

TEST(Uips, RequiresPhaseVariables) {
  const auto cube = make_test_cube(100, 13);
  SamplerContext ctx;
  ctx.num_samples = 10;
  UipsSampler sampler;
  Rng rng(1);
  EXPECT_THROW(sampler.select(cube, ctx, rng), CheckError);
}

// ------------------------------------------------------ hypercube selector

field::Snapshot make_structured_snapshot() {
  // 32x32x16 grid, cluster variable mostly flat with one "interesting"
  // octant carrying a distinct distribution.
  field::Snapshot snap({32, 32, 16});
  auto& f = snap.add("cv");
  Rng rng(20);
  for (std::size_t ix = 0; ix < 32; ++ix) {
    for (std::size_t iy = 0; iy < 32; ++iy) {
      for (std::size_t iz = 0; iz < 16; ++iz) {
        const bool hot = ix < 8 && iy < 8;
        f.at(ix, iy, iz) = hot ? rng.normal(5.0, 2.0) : rng.normal(0.0, 0.2);
      }
    }
  }
  return snap;
}

TEST(HypercubeSelector, RandomSelectsRequestedCount) {
  const auto snap = make_structured_snapshot();
  field::CubeTiling tiling(snap.shape(), {8, 8, 8});
  HypercubeSelectorConfig cfg;
  cfg.method = "random";
  cfg.num_hypercubes = 6;
  cfg.cluster_var = "cv";
  const auto sel = select_hypercubes(snap, tiling, cfg);
  EXPECT_EQ(sel.size(), 6u);
  std::set<std::size_t> uniq(sel.begin(), sel.end());
  EXPECT_EQ(uniq.size(), 6u);
}

TEST(HypercubeSelector, MaxEntPrefersDistinctCubes) {
  const auto snap = make_structured_snapshot();
  field::CubeTiling tiling(snap.shape(), {8, 8, 8});
  // Strengths: the two "hot" cubes (ix<8, iy<8, both z-tiles) should carry
  // the largest node strengths. They are scored as the maxent selector
  // scores them: a k-means fit on the whole (small) snapshot, then label
  // counts, PMFs and KL node strengths.
  const auto cv = snap.get("cv").data();
  cluster::KMeansOptions opts;
  opts.k = 6;
  opts.max_iterations = 50;
  Rng rng(0, 0x4C);
  const auto clusters = cluster::minibatch_kmeans(cv, opts, rng);
  const auto counts =
      count_cube_labels(field::SnapshotSource(snap), tiling, clusters, "cv");
  const auto pmfs = pmfs_from_counts(std::span<const std::uint32_t>(counts),
                                     clusters.k, tiling.spec().points());
  const auto strengths = kl_node_strengths(std::span<const double>(pmfs),
                                           tiling.count(), clusters.k);
  ASSERT_EQ(strengths.size(), tiling.count());
  // Identify hot cube ids: cx = 0, cy = 0, any cz.
  std::vector<std::size_t> hot;
  for (std::size_t c = 0; c < tiling.count(); ++c) {
    const auto coord = tiling.coord(c);
    if (coord.cx == 0 && coord.cy == 0) hot.push_back(c);
  }
  double hot_min = 1e300, cold_max = -1e300;
  for (std::size_t c = 0; c < strengths.size(); ++c) {
    const bool is_hot =
        std::find(hot.begin(), hot.end(), c) != hot.end();
    if (is_hot) {
      hot_min = std::min(hot_min, strengths[c]);
    } else {
      cold_max = std::max(cold_max, strengths[c]);
    }
  }
  EXPECT_GT(hot_min, cold_max);
}

TEST(HypercubeSelector, DeterministicGivenSeed) {
  const auto snap = make_structured_snapshot();
  field::CubeTiling tiling(snap.shape(), {8, 8, 8});
  HypercubeSelectorConfig cfg;
  cfg.method = "maxent";
  cfg.num_hypercubes = 5;
  cfg.cluster_var = "cv";
  cfg.seed = 77;
  EXPECT_EQ(select_hypercubes(snap, tiling, cfg),
            select_hypercubes(snap, tiling, cfg));
}

TEST(HypercubeSelector, EntropyWeightingAblationRuns) {
  const auto snap = make_structured_snapshot();
  field::CubeTiling tiling(snap.shape(), {8, 8, 8});
  HypercubeSelectorConfig cfg;
  cfg.method = "entropy";
  cfg.num_hypercubes = 4;
  cfg.cluster_var = "cv";
  const auto sel = select_hypercubes(snap, tiling, cfg);
  EXPECT_EQ(sel.size(), 4u);
}

// ----------------------------------------------------- cube-scoring engine

TEST(CubeScoring, CountsMatchPerPointAssignment) {
  const auto snap = make_structured_snapshot();
  const field::SnapshotSource src(snap);
  const field::CubeTiling tiling(snap.shape(), {8, 8, 8});
  cluster::KMeansOptions opts;
  opts.k = 5;
  Rng rng(3);
  const auto& cv = snap.get("cv").data();
  const auto clusters =
      cluster::minibatch_kmeans(std::span<const double>(cv), opts, rng);

  // The nearest centroid by a plain scan: strict `<` from +inf in
  // ascending j, so the lowest index wins a tie.
  auto nearest = [&](double v) {
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < clusters.k; ++j) {
      const double diff = v - clusters.centroids[j];
      if (diff * diff < best_d) {
        best_d = diff * diff;
        best = j;
      }
    }
    return best;
  };
  const auto counts = count_cube_labels(src, tiling, clusters, "cv");
  ASSERT_EQ(counts.size(), tiling.count() * clusters.k);
  for (std::size_t c = 0; c < tiling.count(); ++c) {
    std::vector<std::uint32_t> expected(clusters.k, 0);
    for (const std::size_t p : tiling.point_indices(tiling.coord(c))) {
      ++expected[nearest(cv[p])];
    }
    for (std::size_t l = 0; l < clusters.k; ++l) {
      EXPECT_EQ(counts[c * clusters.k + l], expected[l])
          << "cube " << c << " label " << l;
    }
  }
}

TEST(CubeScoring, ParallelCountsAndStrengthsAreBitExact) {
  const auto snap = make_structured_snapshot();
  const field::SnapshotSource src(snap);
  const field::CubeTiling tiling(snap.shape(), {8, 8, 8});
  cluster::KMeansOptions opts;
  opts.k = 6;
  Rng rng(4);
  const auto& cv = snap.get("cv").data();
  const auto clusters =
      cluster::minibatch_kmeans(std::span<const double>(cv), opts, rng);

  ThreadPool pool(4);
  const auto serial = count_cube_labels(src, tiling, clusters, "cv");
  const auto parallel =
      count_cube_labels(src, tiling, clusters, "cv", &pool);
  EXPECT_EQ(serial, parallel);

  const auto pmfs = pmfs_from_counts(std::span<const std::uint32_t>(serial),
                                     clusters.k, tiling.spec().points());
  const auto s1 = kl_node_strengths(std::span<const double>(pmfs),
                                    tiling.count(), clusters.k);
  const auto s4 = kl_node_strengths(std::span<const double>(pmfs),
                                    tiling.count(), clusters.k, &pool);
  EXPECT_EQ(s1, s4);  // bitwise: each row is one task
}

TEST(CubeScoring, SubrangeCountsMatchFullScan) {
  const auto snap = make_structured_snapshot();
  const field::SnapshotSource src(snap);
  const field::CubeTiling tiling(snap.shape(), {8, 8, 8});
  cluster::KMeansOptions opts;
  opts.k = 4;
  Rng rng(5);
  const auto& cv = snap.get("cv").data();
  const auto clusters =
      cluster::minibatch_kmeans(std::span<const double>(cv), opts, rng);

  const auto full = count_cube_labels(src, tiling, clusters, "cv");
  const std::size_t begin = 2, end = 5;
  const auto part = count_cube_labels(src, tiling, clusters, "cv",
                                      /*pool=*/nullptr, begin, end);
  ASSERT_EQ(part.size(), (end - begin) * clusters.k);
  for (std::size_t i = 0; i < part.size(); ++i) {
    EXPECT_EQ(part[i], full[begin * clusters.k + i]);
  }
}

TEST(HypercubeSelector, PooledSelectionIsBitExactWithSerial) {
  const auto snap = make_structured_snapshot();
  const field::CubeTiling tiling(snap.shape(), {8, 8, 8});
  for (const char* method : {"maxent", "entropy"}) {
    HypercubeSelectorConfig cfg;
    cfg.method = method;
    cfg.num_hypercubes = 5;
    cfg.cluster_var = "cv";
    cfg.seed = 99;
    const auto serial = select_hypercubes(snap, tiling, cfg);
    ThreadPool pool(4);
    cfg.pool = &pool;
    EXPECT_EQ(select_hypercubes(snap, tiling, cfg), serial) << method;
  }
}

TEST(HypercubeSelector, UnknownMethodThrows) {
  const auto snap = make_structured_snapshot();
  field::CubeTiling tiling(snap.shape(), {8, 8, 8});
  HypercubeSelectorConfig cfg;
  cfg.method = "bogus";
  cfg.cluster_var = "cv";
  EXPECT_THROW(select_hypercubes(snap, tiling, cfg), CheckError);
}

// --------------------------------------------------------------- temporal

TEST(Temporal, PeriodicSnapshotsAreDiscarded) {
  // Snapshots alternate between two PDFs (period 2); asking for 2 of 8
  // should pick one from each phase, not two identical ones.
  field::Dataset ds("periodic");
  Rng rng(30);
  for (int t = 0; t < 8; ++t) {
    field::Snapshot snap({16, 16, 1}, t);
    auto& f = snap.add("u");
    const double center = (t % 2 == 0) ? 0.0 : 5.0;
    for (auto& x : f.data()) x = rng.normal(center, 0.5);
    ds.push(std::move(snap));
  }
  TemporalConfig cfg;
  cfg.variable = "u";
  cfg.num_snapshots = 2;
  const auto sel = select_snapshots(ds, cfg);
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_NE(sel[0] % 2, sel[1] % 2) << "picked two snapshots from one phase";
}

TEST(Temporal, NoveltyZeroAgainstSelf) {
  field::Dataset ds("d");
  Rng rng(31);
  for (int t = 0; t < 3; ++t) {
    field::Snapshot snap({8, 8, 1}, t);
    auto& f = snap.add("u");
    for (auto& x : f.data()) x = rng.normal();
    ds.push(std::move(snap));
  }
  TemporalConfig cfg;
  cfg.variable = "u";
  const auto pmfs = snapshot_pmfs(field::DatasetSeriesSource(ds), cfg);
  EXPECT_NEAR(stats::js_divergence(std::span<const double>(pmfs[1]),
                                   std::span<const double>(pmfs[1])),
              0.0, 1e-12);
}

TEST(Temporal, SeriesSourceOverloadMatchesDatasetOverload) {
  // The Dataset overload is a thin adapter over the shared SeriesSource
  // histogram kernel: both paths must agree exactly, and the exposed PMF
  // kernel must produce one normalized PMF per snapshot.
  field::Dataset ds("periodic");
  Rng rng(33);
  for (int t = 0; t < 6; ++t) {
    field::Snapshot snap({12, 12, 1}, t);
    auto& f = snap.add("u");
    for (auto& x : f.data()) x = rng.normal(t % 3, 0.5);
    ds.push(std::move(snap));
  }
  TemporalConfig cfg;
  cfg.variable = "u";
  cfg.num_snapshots = 3;
  cfg.bins = 24;
  const field::DatasetSeriesSource series(ds);
  EXPECT_EQ(select_snapshots(series, cfg), select_snapshots(ds, cfg));
  const auto pmfs = snapshot_pmfs(series, cfg);
  ASSERT_EQ(pmfs.size(), 6u);
  for (const auto& p : pmfs) {
    ASSERT_EQ(p.size(), 24u);
    double mass = 0.0;
    for (const double x : p) mass += x;
    EXPECT_NEAR(mass, 1.0, 1e-12);
  }
}

TEST(Temporal, SelectionCappedAtDatasetSize) {
  field::Dataset ds("d");
  Rng rng(32);
  for (int t = 0; t < 3; ++t) {
    field::Snapshot snap({8, 8, 1}, t);
    auto& f = snap.add("u");
    for (auto& x : f.data()) x = rng.normal(t, 1.0);
    ds.push(std::move(snap));
  }
  TemporalConfig cfg;
  cfg.variable = "u";
  cfg.num_snapshots = 10;
  EXPECT_EQ(select_snapshots(ds, cfg).size(), 3u);
}

}  // namespace
}  // namespace sickle::sampling
