/// @file field_source.hpp
/// @brief Read-only field access abstraction for in-memory and out-of-core
/// snapshots.
///
/// The sampling pipeline only ever *gathers* variable values at grid
/// indices (k-means fit subsets, per-cube point sets); it never needs a
/// whole field span. FieldSource captures exactly that contract, so the
/// same selector/sampler code runs over an in-memory Snapshot
/// (SnapshotSource, zero-copy) or a chunked on-disk store
/// (store::ChunkReader, LRU-cached) without materializing the full grid.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "field/field.hpp"
#include "field/hypercube.hpp"

namespace sickle::field {

/// Read-only random access to named variables on a shared grid.
class FieldSource {
 public:
  virtual ~FieldSource() = default;

  [[nodiscard]] virtual const GridShape& shape() const noexcept = 0;

  /// Variable names, in a stable order.
  [[nodiscard]] virtual std::vector<std::string> variables() const = 0;

  [[nodiscard]] virtual bool has(const std::string& var) const = 0;

  /// Simulation time of the snapshot this source exposes. Sources without
  /// a time axis report 0.
  [[nodiscard]] virtual double time() const noexcept { return 0.0; }

  /// Optional zero-copy fast path: the whole field as one contiguous
  /// span, for sources that hold it in memory. Out-of-core sources
  /// return an empty span and callers fall back to batched gather()
  /// (see for_each_flat_batch). Throws for unknown variables.
  [[nodiscard]] virtual std::span<const double> contiguous(
      const std::string& var) const {
    (void)var;
    return {};
  }

  /// Gather `var` at arbitrary global flat indices: out[i] = var[idx[i]].
  /// `out.size()` must equal `idx.size()`. Throws for unknown variables.
  virtual void gather(const std::string& var,
                      std::span<const std::size_t> idx,
                      std::span<double> out) const = 0;

  /// Allocating convenience wrapper around gather().
  [[nodiscard]] std::vector<double> gather(
      const std::string& var, std::span<const std::size_t> idx) const {
    std::vector<double> out(idx.size());
    gather(var, idx, std::span<double>(out));
    return out;
  }
};

/// Zero-copy adapter presenting an in-memory Snapshot as a FieldSource.
/// The snapshot must outlive the source.
class SnapshotSource final : public FieldSource {
 public:
  explicit SnapshotSource(const Snapshot& snap) noexcept : snap_(&snap) {}

  [[nodiscard]] const GridShape& shape() const noexcept override {
    return snap_->shape();
  }
  [[nodiscard]] std::vector<std::string> variables() const override {
    return snap_->names();
  }
  [[nodiscard]] bool has(const std::string& var) const override {
    return snap_->has(var);
  }
  void gather(const std::string& var, std::span<const std::size_t> idx,
              std::span<double> out) const override;
  using field::FieldSource::gather;
  [[nodiscard]] double time() const noexcept override {
    return snap_->time();
  }
  [[nodiscard]] std::span<const double> contiguous(
      const std::string& var) const override {
    return snap_->get(var).data();
  }

  [[nodiscard]] const Snapshot& snapshot() const noexcept { return *snap_; }

 private:
  const Snapshot* snap_;
};

/// Exact [min, max] of one variable on one snapshot.
struct VarRange {
  double min = 0.0;
  double max = 0.0;
};

/// Bin count of the canonical per-snapshot coarse histogram summary
/// (SeriesSource::coarse_histogram, SKL3 index records). The contract
/// that makes index-resident and scanned counts interchangeable: counts
/// are accumulated by stats::Histogram over exactly
/// kCoarseHistogramBins equal-width bins spanning the snapshot's own
/// exact [min, max] (NaN-skipping, widened by +/-0.5 when degenerate,
/// all-zero when the range is non-finite). Integer counts are
/// batching-order-independent, so a writer-side whole-span pass and a
/// reader-side streamed scan produce bit-identical summaries for
/// lossless codecs.
inline constexpr std::size_t kCoarseHistogramBins = 64;

/// Read-only access to a time-ordered sequence of snapshots on a shared
/// grid — the temporal twin of FieldSource. Implementations: an in-memory
/// Dataset (DatasetSeriesSource, zero-copy), an SKL3 series container
/// (store::SeriesReader, LRU-cached out-of-core), or the case runner's
/// per-snapshot SKL2 spill adapter. Temporal snapshot selection
/// (sampling::select_snapshots) and the staged case orchestrator run over
/// this interface, so the same code path serves in-RAM and
/// larger-than-RAM series.
class SeriesSource {
 public:
  virtual ~SeriesSource() = default;

  [[nodiscard]] virtual std::size_t num_snapshots() const = 0;

  /// Borrow a per-snapshot view. The reference stays valid until the next
  /// source() call on the same SeriesSource (sequential drivers) or until
  /// destruction — in-memory and SKL3 implementations keep every view
  /// alive, but the SKL2 spill adapter recycles a single reader.
  [[nodiscard]] virtual const FieldSource& source(std::size_t t) const = 0;

  [[nodiscard]] virtual double time(std::size_t t) const {
    return source(t).time();
  }

  /// Precomputed value range of `var` on snapshot `t`, when the source
  /// carries one (the SKL3 reader's index-resident summaries; the
  /// in-memory and SKL2 spill sources carry none). nullopt means
  /// the caller must scan — consumers like temporal selection use the
  /// summary to skip a full range pass over the series, halving cold-store
  /// selection I/O. Ranges are exact for lossless codecs, so
  /// summary-driven and scan-driven statistics stay bit-identical.
  [[nodiscard]] virtual std::optional<VarRange> value_range(
      std::size_t t, const std::string& var) const {
    (void)t;
    (void)var;
    return std::nullopt;
  }

  /// Precomputed coarse histogram of `var` on snapshot `t` — counts of
  /// the canonical kCoarseHistogramBins-bin histogram over the snapshot's
  /// own exact range (see kCoarseHistogramBins for the exact contract) —
  /// when the source carries one (the SKL3 reader's index records; the
  /// in-memory and SKL2 spill sources carry none). nullopt means the
  /// caller must scan. Together with value_range this lets temporal
  /// selection seed its novelty ranking with ZERO payload decodes on a
  /// sealed series; only the selected candidates are refined with an
  /// exact streamed pass.
  [[nodiscard]] virtual std::optional<std::vector<std::uint64_t>>
  coarse_histogram(std::size_t t, const std::string& var) const {
    (void)t;
    (void)var;
    return std::nullopt;
  }
};

/// Zero-copy adapter presenting an in-memory Dataset as a SeriesSource.
/// The dataset must outlive the source.
class DatasetSeriesSource final : public SeriesSource {
 public:
  explicit DatasetSeriesSource(const Dataset& data);

  [[nodiscard]] std::size_t num_snapshots() const override {
    return views_.size();
  }
  [[nodiscard]] const FieldSource& source(std::size_t t) const override {
    SICKLE_CHECK(t < views_.size());
    return views_[t];
  }

 private:
  std::vector<SnapshotSource> views_;
};

/// Visit every value of `var` in global flat order, in bounded gather
/// batches — the streaming scan primitive behind temporal-selection
/// histograms and training-set scaler fits. The flat order matters:
/// accumulations see values in exactly the sequence an in-memory span
/// scan would, which keeps streamed statistics bit-identical to
/// in-memory ones. In-memory sources short-circuit through contiguous()
/// (one callback over the raw span, no index materialization); only
/// out-of-core sources pay the batched gather, at O(batch) memory.
template <typename Fn>
void for_each_flat_batch(const FieldSource& src, const std::string& var,
                         Fn&& fn, std::size_t batch = 1u << 15) {
  if (const auto span = src.contiguous(var); !span.empty()) {
    fn(span);
    return;
  }
  const std::size_t n = src.shape().size();
  std::vector<std::size_t> idx(std::min(n, std::max<std::size_t>(batch, 1)));
  std::vector<double> vals(idx.size());
  for (std::size_t begin = 0; begin < n; begin += idx.size()) {
    const std::size_t count = std::min(idx.size(), n - begin);
    for (std::size_t i = 0; i < count; ++i) idx[i] = begin + i;
    src.gather(var, std::span<const std::size_t>(idx.data(), count),
               std::span<double>(vals.data(), count));
    fn(std::span<const double>(vals.data(), count));
  }
}

/// Extract the named variables inside cube `c` from any FieldSource — the
/// out-of-core twin of extract_cube(Snapshot&, ...), which delegates here.
[[nodiscard]] Hypercube extract_cube(const FieldSource& src,
                                     const CubeTiling& tiling,
                                     const CubeCoord& c,
                                     std::span<const std::string> vars);

}  // namespace sickle::field
