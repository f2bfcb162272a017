// Integration tests: two-phase pipeline, serial vs SPMD equivalence.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "flow/spectral_turbulence.hpp"
#include "golden.hpp"
#include "parallel/world.hpp"
#include "sampling/pipeline.hpp"
#include "sickle/dataset_zoo.hpp"
#include "store/chunk_layout.hpp"

namespace sickle::sampling {
namespace {

field::Dataset small_stratified() {
  flow::StratifiedParams p;
  p.nx = p.ny = 32;
  p.nz = 16;
  p.snapshots = 2;
  p.seed = 3;
  flow::StratifiedProducer producer(p);
  return flow::materialize(producer, "SST");
}

PipelineConfig small_config() {
  PipelineConfig cfg;
  cfg.cube = {8, 8, 8};
  cfg.hypercube_method = "maxent";
  cfg.point_method = "maxent";
  cfg.num_hypercubes = 6;
  cfg.num_samples = 51;  // ~10% of 8^3
  cfg.num_clusters = 6;
  cfg.input_vars = {"u", "v", "w", "rho"};
  cfg.output_vars = {"p"};
  cfg.cluster_var = "pv";
  cfg.seed = 99;
  return cfg;
}

TEST(Pipeline, VariablesAreDeduplicated) {
  PipelineConfig cfg;
  cfg.input_vars = {"u", "v"};
  cfg.output_vars = {"v", "p"};
  cfg.cluster_var = "u";
  const auto vars = pipeline_variables(cfg);
  EXPECT_EQ(vars, (std::vector<std::string>{"u", "v", "p"}));
}

TEST(Pipeline, SnapshotRunProducesExpectedCubesAndSamples) {
  const auto ds = small_stratified();
  const auto cfg = small_config();
  const auto result = run_pipeline(ds.snapshot(0), cfg);
  EXPECT_EQ(result.cubes.size(), 6u);
  for (const auto& c : result.cubes) {
    EXPECT_EQ(c.samples.points(), 51u);
    EXPECT_EQ(c.samples.variables.size(), 6u);  // u v w rho p pv
    // Indices are valid grid indices.
    for (const auto i : c.samples.indices) {
      EXPECT_LT(i, ds.shape().size());
    }
  }
  EXPECT_EQ(result.total_points(), 6u * 51u);
  EXPECT_GT(result.energy.bytes(), 0.0);
  EXPECT_GT(result.sampling_seconds, 0.0);
}

TEST(Pipeline, FullMethodKeepsEveryCubePoint) {
  const auto ds = small_stratified();
  auto cfg = small_config();
  cfg.hypercube_method = "random";
  cfg.point_method = "full";
  const auto result = run_pipeline(ds.snapshot(0), cfg);
  for (const auto& c : result.cubes) {
    EXPECT_EQ(c.samples.points(), 8u * 8u * 8u);
  }
}

TEST(Pipeline, DatasetRunCoversAllSnapshots) {
  const auto ds = small_stratified();
  auto cfg = small_config();
  cfg.num_hypercubes = 3;
  const auto result = run_pipeline(ds, cfg);
  EXPECT_EQ(result.cubes.size(), 2u * 3u);
  std::set<std::size_t> snaps;
  for (const auto& c : result.cubes) snaps.insert(c.snapshot);
  EXPECT_EQ(snaps.size(), 2u);
}

TEST(Pipeline, DeterministicAcrossRuns) {
  const auto ds = small_stratified();
  const auto cfg = small_config();
  const auto a = run_pipeline(ds.snapshot(0), cfg);
  const auto b = run_pipeline(ds.snapshot(0), cfg);
  ASSERT_EQ(a.cubes.size(), b.cubes.size());
  for (std::size_t i = 0; i < a.cubes.size(); ++i) {
    EXPECT_EQ(a.cubes[i].cube_id, b.cubes[i].cube_id);
    EXPECT_EQ(a.cubes[i].samples.indices, b.cubes[i].samples.indices);
  }
}

TEST(Pipeline, MergedConcatenatesAllCubes) {
  const auto ds = small_stratified();
  const auto cfg = small_config();
  const auto result = run_pipeline(ds.snapshot(0), cfg);
  const auto merged = result.merged();
  EXPECT_EQ(merged.points(), result.total_points());
  EXPECT_EQ(merged.features.size(), merged.points() * merged.dims());
}

/// The shared-memory twin of the SPMD property below: `threads:` changes
/// wall-clock behavior only. The clustering fit and cube draw consume RNG
/// before the fan-out, each cube forks its own RNG, and all reductions
/// run in cube-id order, so every thread count produces the identical
/// result — samples and energy tallies alike.
TEST(Pipeline, ThreadCountDoesNotChangeResults) {
  const auto ds = small_stratified();
  auto cfg = small_config();
  cfg.threads = 1;
  const auto serial = run_pipeline(ds.snapshot(0), cfg);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    cfg.threads = threads;
    const auto pooled = run_pipeline(ds.snapshot(0), cfg);
    ASSERT_EQ(pooled.cubes.size(), serial.cubes.size());
    for (std::size_t i = 0; i < serial.cubes.size(); ++i) {
      EXPECT_EQ(pooled.cubes[i].cube_id, serial.cubes[i].cube_id);
      EXPECT_EQ(pooled.cubes[i].samples.indices,
                serial.cubes[i].samples.indices);
      EXPECT_EQ(pooled.cubes[i].samples.features,
                serial.cubes[i].samples.features);
    }
    EXPECT_DOUBLE_EQ(pooled.energy.flops(), serial.energy.flops());
    EXPECT_DOUBLE_EQ(pooled.energy.bytes(), serial.energy.bytes());
  }
}

/// The paper's key parallel property: SPMD runs produce the identical
/// sample set at any rank count (deterministic counter RNG per cube).
class PipelineSpmd : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PipelineSpmd, MatchesSerialAtAnyRankCount) {
  const auto ds = small_stratified();
  const auto cfg = small_config();
  const auto serial = run_pipeline(ds.snapshot(0), cfg);

  World world(GetParam());
  std::vector<PipelineResult> per_rank(GetParam());
  world.run([&](Comm& comm) {
    per_rank[comm.rank()] = run_pipeline(ds.snapshot(0), cfg, comm);
  });

  // Sort serial cubes by id for comparison (SPMD result is id-sorted).
  auto sorted = serial.cubes;
  std::sort(sorted.begin(), sorted.end(),
            [](const CubeSamples& a, const CubeSamples& b) {
              return a.cube_id < b.cube_id;
            });
  for (const auto& result : per_rank) {
    ASSERT_EQ(result.cubes.size(), sorted.size());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      EXPECT_EQ(result.cubes[i].cube_id, sorted[i].cube_id);
      EXPECT_EQ(result.cubes[i].samples.indices,
                sorted[i].samples.indices);
      EXPECT_EQ(result.cubes[i].samples.features,
                sorted[i].samples.features);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, PipelineSpmd,
                         ::testing::Values(1, 2, 4, 8),
                         [](const auto& info) {
                           return "ranks" + std::to_string(info.param);
                         });

TEST(PipelineSpmd, AllRanksAgree) {
  const auto ds = small_stratified();
  const auto cfg = small_config();
  World world(4);
  std::vector<std::size_t> totals(4, 0);
  world.run([&](Comm& comm) {
    const auto result = run_pipeline(ds.snapshot(0), cfg, comm);
    totals[comm.rank()] = result.total_points();
  });
  for (std::size_t r = 1; r < 4; ++r) {
    EXPECT_EQ(totals[r], totals[0]);
  }
}

TEST(SampleSet, ColumnExtractionAndAppend) {
  SampleSet a;
  a.variables = {"x", "y"};
  a.indices = {0, 1};
  a.features = {1.0, 10.0, 2.0, 20.0};
  EXPECT_EQ(a.column("y"), (std::vector<double>{10.0, 20.0}));
  EXPECT_THROW(a.column("z"), CheckError);

  SampleSet b;
  b.variables = {"x", "y"};
  b.indices = {2};
  b.features = {3.0, 30.0};
  a.append(b);
  EXPECT_EQ(a.points(), 3u);
  EXPECT_EQ(a.column("x"), (std::vector<double>{1.0, 2.0, 3.0}));

  SampleSet c;
  c.variables = {"other"};
  c.indices = {0};
  c.features = {0.0};
  EXPECT_THROW(a.append(c), CheckError);
}

// ------------------------------------------------------- sampling golden

/// Sampling may get faster, never different: the sample sets of the
/// ledger's three maxent shapes are pinned as one FNV-1a digest per run,
/// chained over every cube's snapshot, cube id, sampled indices and
/// sampled values. SST-P1F4 at scale 0.25 is the served dataset (16 x 16 x
/// 8, so k-means fits whole snapshots); GESTS-2048 at scale 1 (64^3)
/// makes the hypercube selector fit k-means on its 65,536-point
/// subsample. A change that moves a sample (a new clustering update rule,
/// say) re-pins them on purpose. Generation and the samplers go through
/// libm, so the generator probe guards the test as it guards
/// GeneratorGolden.
TEST(SamplingGolden, SampleSetsArePinned) {
  if (!golden::generator_libm_matches()) GTEST_SKIP();
  struct Golden {
    const char* dataset;
    double scale;
    std::uint64_t seed;
    const char* hypercubes;
    const char* points;
    std::size_t clusters;
    std::uint64_t digest;
  };
  const std::vector<Golden> goldens = {
      {"SST-P1F4", 0.25, 1, "maxent", "maxent", 8, 0x2679441bdbbf6d13ull},
      {"SST-P1F4", 0.25, 1, "random", "maxent", 3, 0x3a973f570177df8aull},
      {"SST-P1F4", 0.25, 1, "maxent", "uips", 8, 0x71e4103d557e7188ull},
      {"SST-P1F4", 0.25, 7, "maxent", "maxent", 8, 0x0be7c868c7d46e0bull},
      {"SST-P1F4", 0.25, 7, "random", "maxent", 3, 0xc500b454d632de72ull},
      {"SST-P1F4", 0.25, 7, "maxent", "uips", 8, 0xf8dc6534cc097680ull},
      {"GESTS-2048", 1.0, 1, "maxent", "maxent", 8, 0x259df954aaed3102ull},
  };
  for (const Golden& g : goldens) {
    const DatasetBundle data = make_dataset(g.dataset, g.seed, g.scale);
    PipelineConfig cfg;
    cfg.cube = {8, 8, 8};
    cfg.hypercube_method = g.hypercubes;
    cfg.point_method = g.points;
    cfg.num_hypercubes = 2;
    cfg.num_samples = 17;
    cfg.num_clusters = g.clusters;
    cfg.input_vars = data.input_vars;
    cfg.output_vars = data.output_vars;
    cfg.cluster_var = data.cluster_var;
    cfg.seed = g.seed;
    const auto result = run_pipeline(data.data, cfg);
    std::uint64_t h = store::kFnvOffsetBasis;
    for (const auto& c : result.cubes) {
      const std::size_t where[] = {c.snapshot, c.cube_id};
      h = golden::digest(std::span<const std::size_t>(where), h);
      h = golden::digest(std::span<const std::size_t>(c.samples.indices), h);
      h = golden::digest(std::span<const double>(c.samples.features), h);
    }
    EXPECT_EQ(h, g.digest) << g.dataset << " @ " << g.scale << " seed "
                           << g.seed << " " << g.hypercubes << "/" << g.points
                           << ": 0x" << std::hex << h;
  }
}

}  // namespace
}  // namespace sickle::sampling
