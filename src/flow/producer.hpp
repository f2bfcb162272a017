/// @file producer.hpp
/// @brief Snapshot-at-a-time producer interface for out-of-core ingest.
///
/// The flow generators originally returned a fully materialized
/// field::Dataset, which caps the largest curatable case at generation-side
/// RAM even though selection/sampling already stream. SnapshotProducer is
/// the slab-at-a-time contract that closes that gap: a producer yields one
/// field::Snapshot per next() call, so the case orchestrator can run
/// simulate -> encode -> SeriesWriter::append -> drop and never hold more
/// than one snapshot, no matter how long the series. Materialized ingest
/// drains the same producer through materialize(), so streaming and
/// materialized runs produce identical stores, sample sets, and training
/// tensors.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "field/field.hpp"

namespace sickle::flow {

/// Pull-based snapshot generator: one field snapshot per next() call.
///
/// Producers are stateful (simulation state, RNG streams advance with
/// each snapshot); call next() until it returns nullopt. num_snapshots()
/// is known up front so consumers can size indexes and progress reporting
/// without buffering the series.
///
/// A producer is single-use: it yields its sequence once and cannot
/// rewind. To replay a series, build a fresh producer from the same
/// parameters (every generator is a pure function of its seed), or
/// materialize it once and replay the Dataset through DatasetProducer.
class SnapshotProducer {
 public:
  virtual ~SnapshotProducer() = default;

  /// Total snapshots this producer will yield.
  [[nodiscard]] virtual std::size_t num_snapshots() const = 0;

  /// Simulate and return the next snapshot; nullopt after the last.
  [[nodiscard]] virtual std::optional<field::Snapshot> next() = 0;

  /// Per-snapshot scalar targets (e.g. OF2D drag) accumulated for the
  /// snapshots produced so far; empty for field-to-field problems.
  [[nodiscard]] virtual std::vector<double> scalar_target() const {
    return {};
  }
};

/// Drain `producer` into an in-memory Dataset named `name` — the
/// materialized-ingest path, and the way to hold a whole generated series
/// in memory.
[[nodiscard]] field::Dataset materialize(SnapshotProducer& producer,
                                         std::string name);

/// Replay an existing in-memory Dataset one snapshot at a time (copies) —
/// glue for tests and for streaming-ingest code paths fed from RAM.
class DatasetProducer final : public SnapshotProducer {
 public:
  /// The dataset must outlive the producer.
  explicit DatasetProducer(const field::Dataset& data) noexcept
      : data_(&data) {}

  [[nodiscard]] std::size_t num_snapshots() const override {
    return data_->num_snapshots();
  }

  [[nodiscard]] std::optional<field::Snapshot> next() override {
    if (next_ >= data_->num_snapshots()) return std::nullopt;
    return data_->snapshot(next_++);
  }

 private:
  const field::Dataset* data_;
  std::size_t next_ = 0;
};

}  // namespace sickle::flow
