/// @file dataset_zoo.hpp
/// @brief Dataset zoo: Table 1 of the paper, at single-node scale.
///
/// Each bundle carries the generated data plus the paper's variable roles
/// (K-means cluster variable, NN inputs/outputs). Grid sizes are scaled
/// down per DESIGN.md §2; `scale` >= 1 multiplies the default extents for
/// larger runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "field/field.hpp"
#include "flow/producer.hpp"

namespace sickle {

struct DatasetBundle {
  field::Dataset data{"empty"};
  std::vector<std::string> input_vars;
  std::vector<std::string> output_vars;
  std::string cluster_var;
  /// Per-snapshot scalar target for sample-single problems (OF2D drag);
  /// empty otherwise.
  std::vector<double> scalar_target;
  std::string paper_size;  ///< the size the paper reports for this dataset
};

/// A dataset's variable roles plus a snapshot-at-a-time producer — the
/// streaming-ingest form of DatasetBundle. run_case can consume this
/// without a full Dataset ever existing (backend skl2/series with
/// ingest: streaming); make_dataset materializes it for in-RAM work.
struct ProducerBundle {
  std::unique_ptr<flow::SnapshotProducer> producer;
  std::string name;  ///< Dataset name used when materializing
  std::vector<std::string> input_vars;
  std::vector<std::string> output_vars;
  std::string cluster_var;
  std::string paper_size;  ///< the size the paper reports for this dataset
};

/// Largest grid scale the zoo accepts. It takes the largest base extent
/// (128: SST-P1F100, GESTS-8192) to 2^20, so no grid extent or point count
/// can overflow. It bounds the arithmetic only, not the memory a case needs.
inline constexpr double kMaxDatasetScale = 8192.0;

/// Labels: "TC2D", "OF2D", "SST-P1F4", "SST-P1F100", "GESTS-2048",
/// "GESTS-8192". Throws RuntimeError for unknown labels, and ConfigError
/// on `shared.scale` unless 0 < scale <= kMaxDatasetScale. Materializes
/// make_dataset_producer, so streamed and materialized snapshots are
/// bit-identical by construction.
[[nodiscard]] DatasetBundle make_dataset(const std::string& label,
                                         std::uint64_t seed = 42,
                                         double scale = 1.0);

/// Streaming form of make_dataset: same labels, seeds, and scaling, but
/// snapshots are produced lazily one at a time.
[[nodiscard]] ProducerBundle make_dataset_producer(const std::string& label,
                                                   std::uint64_t seed = 42,
                                                   double scale = 1.0);

/// Drain a ProducerBundle into the equivalent DatasetBundle — the single
/// materialization point shared by make_dataset and run_case's
/// ingest: materialize path, so the two can never diverge field by field.
/// The producer is drained and destroyed.
[[nodiscard]] DatasetBundle materialize_bundle(ProducerBundle& bundle);

/// All known labels, in Table 1 order.
[[nodiscard]] std::vector<std::string> dataset_labels();

}  // namespace sickle
