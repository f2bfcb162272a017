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
/// snapshot indices for equal data (the Dataset overloads are thin
/// adapters). Memory is O(bins * snapshots) plus one gather batch, never
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
  /// Seed-and-refine candidate slack: the coarse seeding stage keeps
  /// min(n, max(k, refine_factor * k)) candidates for the exact
  /// refinement pass (k = num_snapshots). When the candidate set covers
  /// the whole series (refine_factor * k >= n) selection is exactly the
  /// legacy single-stage greedy; smaller candidate sets trade a slightly
  /// different (still deterministic, backend-independent) selection for
  /// proportionally less payload I/O.
  std::size_t refine_factor = 2;
};

/// Shared-range per-snapshot PMFs of cfg.variable: all snapshots binned
/// over the global min/max so JS distances are comparable. Streams each
/// snapshot in flat-order gather batches — the single histogram kernel
/// behind every select_snapshots overload. When the source carries
/// index-resident summaries (SeriesSource::value_range, SKL3), the
/// range pass reads metadata instead of the payload and the whole job is
/// ONE streaming pass; otherwise it is two (range, then bins). For
/// lossless codecs both paths produce bit-identical PMFs, since the
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
/// Runs as seed-then-refine (the exactness-vs-refinement contract):
/// (1) coarse per-snapshot histograms — read from the index when the
/// source carries them (SeriesSource::coarse_histogram + value_range,
/// SKL3: ZERO payload decodes), else streamed — are rebinned onto the
/// shared range and an approximate greedy keeps min(n, max(k,
/// refine_factor * k)) candidates; (2) one exact streamed PMF pass over
/// the candidates only, then the exact greedy restricted to them picks
/// the final k. Every stage is deterministic and uses the same canonical
/// coarse kernel whether summaries come from the index or a scan, so all
/// backends (in-memory, SKL3, SKL2 spill) return identical indices
/// for equal data under lossless codecs. When the candidate set covers
/// the series the result is bit-identical to the legacy single-stage
/// exact greedy.
[[nodiscard]] std::vector<std::size_t> select_snapshots(
    const field::SeriesSource& series, const TemporalConfig& cfg);

/// In-memory adapter: identical indices to the SeriesSource overload on
/// equal data (it delegates through field::DatasetSeriesSource).
[[nodiscard]] std::vector<std::size_t> select_snapshots(
    const field::Dataset& dataset, const TemporalConfig& cfg);

/// Per-snapshot novelty scores against a fixed reference snapshot's PDF
/// (exposed for diagnostics and tests).
[[nodiscard]] std::vector<double> snapshot_novelty(
    const field::SeriesSource& series, const TemporalConfig& cfg,
    std::size_t reference = 0);

[[nodiscard]] std::vector<double> snapshot_novelty(
    const field::Dataset& dataset, const TemporalConfig& cfg,
    std::size_t reference = 0);

}  // namespace sickle::sampling
