// Integration tests: dataset zoo + end-to-end case runner.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <tuple>

#include "sickle/case.hpp"
#include "sickle/dataset_zoo.hpp"

namespace sickle {
namespace {

TEST(DatasetZoo, AllLabelsGenerate) {
  for (const auto& label : dataset_labels()) {
    const auto b = make_dataset(label, 1, /*scale=*/0.25);
    EXPECT_GT(b.data.num_snapshots(), 0u) << label;
    EXPECT_FALSE(b.cluster_var.empty()) << label;
    EXPECT_FALSE(b.input_vars.empty()) << label;
    // Every advertised variable exists on the snapshots.
    const auto& snap = b.data.snapshot(0);
    for (const auto& v : b.input_vars) EXPECT_TRUE(snap.has(v)) << label;
    for (const auto& v : b.output_vars) EXPECT_TRUE(snap.has(v)) << label;
    EXPECT_TRUE(snap.has(b.cluster_var)) << label;
  }
}

TEST(DatasetZoo, UnknownLabelThrows) {
  EXPECT_THROW(make_dataset("NOPE"), RuntimeError);
}

TEST(DatasetZoo, Of2dCarriesDragTarget) {
  const auto b = make_dataset("OF2D", 1);
  EXPECT_EQ(b.scalar_target.size(), b.data.num_snapshots());
}

TEST(DatasetZoo, ProducerBundleMirrorsMaterializedBundle) {
  for (const auto& label : dataset_labels()) {
    ProducerBundle pb = make_dataset_producer(label, 1, /*scale=*/0.25);
    const auto b = make_dataset(label, 1, /*scale=*/0.25);
    EXPECT_EQ(pb.input_vars, b.input_vars) << label;
    EXPECT_EQ(pb.output_vars, b.output_vars) << label;
    EXPECT_EQ(pb.cluster_var, b.cluster_var) << label;
    EXPECT_EQ(pb.producer->num_snapshots(), b.data.num_snapshots()) << label;
    // Drain and compare the first snapshot's bits: the producer is the
    // source of truth for make_dataset, so these must be the same bytes.
    const auto first = pb.producer->next();
    ASSERT_TRUE(first.has_value()) << label;
    const auto& want = b.data.snapshot(0);
    ASSERT_EQ(first->names(), want.names()) << label;
    for (const auto& name : want.names()) {
      const auto a = first->get(name).data();
      const auto w = want.get(name).data();
      for (std::size_t i = 0; i < w.size(); ++i) {
        ASSERT_EQ(a[i], w[i]) << label << " " << name;
      }
    }
  }
  EXPECT_THROW(make_dataset_producer("NOPE"), RuntimeError);
}

TEST(Case, ProducerOverloadMaterializeMatchesDatasetOverload) {
  // ingest: materialize (the default) through the producer overload must
  // be byte-for-byte the legacy path.
  CaseConfig cfg;
  cfg.pipeline.cube = {8, 8, 8};
  cfg.pipeline.hypercube_method = "random";
  cfg.pipeline.point_method = "maxent";
  cfg.pipeline.num_hypercubes = 3;
  cfg.pipeline.num_samples = 51;
  cfg.pipeline.num_clusters = 5;
  cfg.pipeline.seed = 7;
  cfg.arch = "MLP_Transformer";
  cfg.train.epochs = 2;
  cfg.train.batch = 4;
  cfg.model_dim = 16;
  cfg.model_heads = 2;
  const auto direct = run_case(make_dataset("SST-P1F4", 3, 0.5), cfg);
  ProducerBundle bundle = make_dataset_producer("SST-P1F4", 3, 0.5);
  const auto via_producer = run_case(bundle, cfg);
  EXPECT_EQ(via_producer.sample_hash, direct.sample_hash);
  EXPECT_EQ(via_producer.sampled_points, direct.sampled_points);
  EXPECT_EQ(via_producer.train.test_loss, direct.train.test_loss);

  cfg.ingest = "teleport";
  ProducerBundle bad = make_dataset_producer("SST-P1F4", 3, 0.5);
  EXPECT_THROW((void)run_case(bad, cfg), CheckError);
}

TEST(DatasetZoo, SstIsAnisotropicGestsIsNot) {
  const auto sst = make_dataset("SST-P1F4", 2, 0.5);
  const auto gests = make_dataset("GESTS-2048", 2, 0.5);
  auto rms = [](std::span<const double> v) {
    double acc = 0.0;
    for (const double x : v) acc += x * x;
    return std::sqrt(acc / static_cast<double>(v.size()));
  };
  const auto& s0 = sst.data.snapshot(0);
  const auto& g0 = gests.data.snapshot(0);
  const double sst_ratio = rms(s0.get("w").data()) / rms(s0.get("u").data());
  const double gests_ratio = rms(g0.get("w").data()) / rms(g0.get("u").data());
  EXPECT_LT(sst_ratio, 0.7);
  EXPECT_NEAR(gests_ratio, 1.0, 0.1);
}

CaseConfig tiny_case(const std::string& arch) {
  CaseConfig cfg;
  cfg.pipeline.cube = {8, 8, 8};
  cfg.pipeline.hypercube_method = "random";
  cfg.pipeline.point_method = (arch == "CNN_Transformer") ? "full" : "maxent";
  cfg.pipeline.num_hypercubes = 4;
  cfg.pipeline.num_samples = 51;
  cfg.pipeline.num_clusters = 5;
  cfg.pipeline.seed = 7;
  cfg.arch = arch;
  cfg.train.epochs = 3;
  cfg.train.batch = 4;
  cfg.model_dim = 16;
  cfg.model_heads = 2;
  cfg.model_layers = 1;
  return cfg;
}

class CaseArch : public ::testing::TestWithParam<std::string> {};

TEST_P(CaseArch, EndToEndRuns) {
  const auto bundle = make_dataset("SST-P1F4", 3, 0.5);  // 32x32x16
  const auto report = run_case(bundle, tiny_case(GetParam()));
  EXPECT_GT(report.sampled_points, 0u);
  EXPECT_GT(report.sampling_kilojoules, 0.0);
  EXPECT_GT(report.training_kilojoules, 0.0);
  EXPECT_GT(report.train.parameters, 0u);
  EXPECT_EQ(report.train.epoch_losses.size(), 3u);
  EXPECT_TRUE(std::isfinite(report.train.test_loss));
  EXPECT_NEAR(report.total_kilojoules(),
              report.sampling_kilojoules + report.training_kilojoules,
              1e-12);
}

INSTANTIATE_TEST_SUITE_P(Archs, CaseArch,
                         ::testing::Values("MLP_Transformer",
                                           "CNN_Transformer", "Foundation"),
                         [](const auto& info) { return info.param; });

TEST(Case, SamplingReducesEnergyVsFull) {
  // The core Fig. 8 mechanism: a 10% sample moves ~10x less data than the
  // dense baseline during dataset construction + training.
  const auto bundle = make_dataset("SST-P1F4", 4, 0.5);
  auto sparse = tiny_case("MLP_Transformer");
  auto dense = tiny_case("CNN_Transformer");
  dense.pipeline.point_method = "full";
  const auto sparse_report = run_case(bundle, sparse);
  const auto dense_report = run_case(bundle, dense);
  EXPECT_LT(sparse_report.train.energy.flops(),
            dense_report.train.energy.flops());
}

// ------------------------------------- backend x ingest x temporal matrix

/// (backend, ingest, temporal stage on)
using MatrixParam = std::tuple<std::string, std::string, bool>;

class CaseMatrix : public ::testing::TestWithParam<MatrixParam> {};

CaseConfig matrix_case(const std::string& backend, const std::string& ingest,
                       bool temporal, const std::string& spill_dir) {
  CaseConfig cfg = tiny_case("MLP_Transformer");
  cfg.train.epochs = 1;
  cfg.backend = backend;
  cfg.ingest = ingest;
  cfg.store.chunk = {16, 16, 16};
  cfg.store.codec = "delta";
  cfg.store.write_budget_bytes = 1u << 20;
  cfg.spill_dir = spill_dir;
  if (temporal) {
    cfg.temporal.num_snapshots = 3;
    cfg.temporal.bins = 32;
  }
  return cfg;
}

/// Every backend x ingest combination, through both run_case overloads,
/// samples and trains bit-identically to the in-memory reference, leaves
/// no spill behind, and keeps the disk bound of the retention policy its
/// config implies.
TEST_P(CaseMatrix, MatchesMemoryReferenceAndHonorsRetention) {
  const auto& [backend, ingest, temporal] = GetParam();
  const auto spill =
      std::filesystem::temp_directory_path() /
      ("sickle_case_matrix_" + std::to_string(::getpid()) + "_" + backend +
       "_" + ingest + (temporal ? "_temporal" : ""));
  std::filesystem::remove_all(spill);
  std::filesystem::create_directories(spill);

  const auto reference =
      run_case(make_dataset("SST-P1F4", 5, 0.5),
               matrix_case("memory", "materialize", temporal, ""));
  ASSERT_NE(reference.sample_hash, 0u);
  EXPECT_EQ(reference.selected_snapshots.size(), temporal ? 3u : 0u);

  const CaseConfig cfg = matrix_case(backend, ingest, temporal, spill.string());
  ProducerBundle producer = make_dataset_producer("SST-P1F4", 5, 0.5);
  const CaseReport via_producer = run_case(producer, cfg);
  const CaseReport via_dataset = run_case(make_dataset("SST-P1F4", 5, 0.5), cfg);

  const bool rolling = backend == "skl2" && !temporal;
  for (const CaseReport* r : {&via_producer, &via_dataset}) {
    EXPECT_EQ(r->sample_hash, reference.sample_hash);
    EXPECT_EQ(r->train.test_loss, reference.train.test_loss);
    EXPECT_EQ(r->selected_snapshots, reference.selected_snapshots);
    if (backend == "memory") {
      EXPECT_EQ(r->ingest_peak_disk_bytes, 0u);
    } else if (rolling) {
      EXPECT_GT(r->ingest_peak_disk_bytes, 0u);
      EXPECT_LT(r->ingest_peak_disk_bytes, r->store_bytes);
    } else {
      EXPECT_EQ(r->ingest_peak_disk_bytes, r->store_bytes);
    }
  }
  EXPECT_TRUE(std::filesystem::is_empty(spill));
  std::filesystem::remove_all(spill);
}

INSTANTIATE_TEST_SUITE_P(
    BackendIngestTemporal, CaseMatrix,
    ::testing::Combine(::testing::Values("memory", "skl2", "series"),
                       ::testing::Values("materialize", "streaming"),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param) +
             (std::get<2>(info.param) ? "_temporal" : "");
    });

TEST(Case, BuildDragDatasetShapes) {
  const auto bundle = make_dataset("OF2D", 5);
  energy::EnergyCounter energy;
  const auto data = build_drag_dataset(bundle, "random", 64, 3, 11, &energy);
  // 100 snapshots, window 3 -> 98 examples.
  EXPECT_EQ(data.size(), 98u);
  EXPECT_EQ(data.input(0).shape(),
            (std::vector<std::size_t>{3, 2 * 64}));
  EXPECT_EQ(data.target(0).shape(), (std::vector<std::size_t>{1, 1}));
  EXPECT_GT(energy.bytes(), 0.0);
}

TEST(Case, BuildDragDatasetMethodsDiffer) {
  const auto bundle = make_dataset("OF2D", 6);
  const auto random = build_drag_dataset(bundle, "random", 32, 1, 3);
  const auto maxent = build_drag_dataset(bundle, "maxent", 32, 1, 3);
  // Different sensor placements -> different inputs.
  bool any_diff = false;
  for (std::size_t i = 0; i < random.input(0).size(); ++i) {
    if (random.input(0)[i] != maxent.input(0)[i]) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Case, BuildDragDatasetRequiresScalarTarget) {
  const auto bundle = make_dataset("GESTS-2048", 7, 0.5);
  EXPECT_THROW(build_drag_dataset(bundle, "random", 8, 1, 1), CheckError);
}

}  // namespace
}  // namespace sickle
