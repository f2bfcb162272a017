// Storage reduction: compare a dense DNS snapshot's raw f64 payload with
// two ways of writing it — chunked compressed SKL2 and a MaxEnt-sampled
// sparse subset. Also demonstrates out-of-core sampling straight from
// the compressed store.
#include <cstdio>
#include <filesystem>

#include "io/snapshot_io.hpp"
#include "sampling/pipeline.hpp"
#include "sickle/dataset_zoo.hpp"
#include "store/snapshot_store.hpp"

int main() {
  using namespace sickle;

  const DatasetBundle bundle = make_dataset("GESTS-2048", /*seed=*/42);
  const auto& snap = bundle.data.snapshot(0);
  const auto dir = std::filesystem::temp_directory_path();

  const std::size_t dense = snap.bytes();
  std::printf("dense snapshot:  %10zu bytes raw (%zu points x %zu vars)\n",
              dense, snap.shape().size(), snap.num_fields());

  // Chunked compressed stores: lossless delta and 1e-3-tolerance quant.
  store::StoreOptions sopts;
  sopts.chunk = {16, 16, 16};
  sopts.codec = "delta";
  const auto delta_report = store::write_store(
      snap, (dir / "gests_delta.skl2").string(), sopts);
  sopts.codec = "quant";
  sopts.tolerance = 1e-3;
  const auto quant_report = store::write_store(
      snap, (dir / "gests_quant.skl2").string(), sopts);
  std::printf("SKL2 delta:      %10zu bytes (lossless, %.2fx vs raw)\n",
              delta_report.file_bytes, delta_report.compression_ratio());
  std::printf("SKL2 quant 1e-3: %10zu bytes (lossy, %.2fx vs raw)\n",
              quant_report.file_bytes, quant_report.compression_ratio());

  sampling::PipelineConfig cfg;
  cfg.cube = {8, 8, 8};
  cfg.hypercube_method = "maxent";
  cfg.point_method = "maxent";
  cfg.num_hypercubes = field::CubeTiling(snap.shape(), cfg.cube).count();
  cfg.num_samples = 51;  // 10% of each cube
  cfg.num_clusters = 8;
  cfg.input_vars = bundle.input_vars;
  cfg.output_vars = bundle.output_vars;
  cfg.cluster_var = bundle.cluster_var;
  const auto result = run_pipeline(snap, cfg);
  const auto merged = result.merged();

  // The same sampling also runs out-of-core, streaming chunks from the
  // compressed store instead of touching the in-memory snapshot.
  const store::ChunkReader reader((dir / "gests_delta.skl2").string());
  const auto streamed = sampling::run_pipeline_streaming(reader, cfg).merged();
  std::printf("out-of-core:     sampled %zu points from the delta store "
              "(%s in-memory result)\n",
              streamed.points(),
              streamed.indices == merged.indices ? "identical to"
                                                 : "DIFFERS from");

  io::SampleFile file;
  file.variables = merged.variables;
  file.indices.assign(merged.indices.begin(), merged.indices.end());
  file.features = merged.features;
  const std::size_t sparse =
      io::save_samples(file, (dir / "gests_sparse.skl").string());
  std::printf("sparse subset:   %10zu bytes (%zu points, all variables + "
              "indices)\n",
              sparse, merged.points());
  std::printf("reduction:       %.1fx\n",
              static_cast<double>(dense) / static_cast<double>(sparse));

  std::filesystem::remove(dir / "gests_delta.skl2");
  std::filesystem::remove(dir / "gests_quant.skl2");
  std::filesystem::remove(dir / "gests_sparse.skl");
  return 0;
}
