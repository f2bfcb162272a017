/// @file temporal.hpp
/// @brief Temporal snapshot selection (paper §4.3).
///
/// Periodic flows (e.g. OF2D's vortex shedding) produce snapshots whose
/// input PDFs repeat; training on all of them adds no information. The
/// temporal sampler scores each snapshot's input PDF against the already
/// selected set and keeps only snapshots that expand coverage:
/// greedy max-min Jensen–Shannon selection.
///
/// Selection runs over any field::SeriesSource — an in-memory Dataset or
/// a chunked on-disk store::SeriesReader — through one shared histogram
/// kernel, so the streamed and in-memory paths return bit-identical
/// snapshot indices for equal data (the Dataset overload is a thin
/// adapter). Memory is O(bins * snapshots) plus one gather batch, never
/// the grid.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "field/field.hpp"
#include "field/field_source.hpp"

namespace sickle::sampling {

struct TemporalConfig {
  std::string variable;        ///< variable whose PDF drives novelty
  std::size_t num_snapshots = 10;  ///< snapshots to keep
  std::size_t bins = 100;
};

/// Shared-range per-snapshot PMFs of cfg.variable: all snapshots binned
/// over the global min/max so JS distances are comparable. The range comes
/// from the index when the source carries summaries
/// (SeriesSource::value_range, SKL3), else from one scan of each snapshot;
/// the bins then take one streamed pass in flat-order gather batches. For
/// lossless codecs both range sources give bit-identical PMFs, since the
/// summaries are exact min/max of the values the scan would see; for the
/// lossy quant codec summaries describe pre-encode values, so the shared
/// range (and hence the selection) may differ from a decoded-value scan
/// by up to the codec tolerance.
[[nodiscard]] std::vector<std::vector<double>> snapshot_pmfs(
    const field::SeriesSource& series, const TemporalConfig& cfg);

/// Greedy selection: start from the first snapshot, repeatedly add the
/// snapshot whose PDF is farthest (min-JS over selected) from the current
/// set. Returns selected snapshot indices in selection order.
///
/// One path for every source: (1) per-snapshot ranges, from the index
/// when the source carries them, else from one scan, form the shared
/// range; (2) when 2k candidates (k = num_snapshots) cannot cover the n
/// snapshots, a coarse seeding stage rebins each snapshot's canonical
/// coarse histogram (SeriesSource::coarse_histogram on SKL3: ZERO payload
/// decodes; else scanned) onto the shared range and an approximate
/// greedy keeps 2k candidates, otherwise every snapshot is a candidate;
/// (3) one exact streamed PMF pass over the candidates,
/// then the exact greedy over them picks the final k. Every stage is
/// deterministic and uses the same canonical kernels whether summaries
/// come from the index or a scan, so all backends (in-memory, SKL3, SKL2
/// spill) return identical indices for equal data under lossless codecs.
/// When the candidates cover the series the result is the plain greedy
/// over snapshot_pmfs.
[[nodiscard]] std::vector<std::size_t> select_snapshots(
    const field::SeriesSource& series, const TemporalConfig& cfg);

/// In-memory adapter: identical indices to the SeriesSource overload on
/// equal data (it delegates through field::DatasetSeriesSource).
[[nodiscard]] std::vector<std::size_t> select_snapshots(
    const field::Dataset& dataset, const TemporalConfig& cfg);

}  // namespace sickle::sampling
