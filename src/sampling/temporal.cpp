#include "sampling/temporal.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "stats/entropy.hpp"
#include "stats/histogram.hpp"

namespace sickle::sampling {

namespace {

/// Candidate slack of the coarse seeding stage: it keeps 2k candidates
/// (k = num_snapshots) for the exact pass.
constexpr std::size_t kCandidatesPerPick = 2;

/// [lo, hi] widened by +/-0.5 when degenerate, so a Histogram over it is
/// well-defined.
field::VarRange widened(double lo, double hi) {
  if (!(hi > lo)) {
    lo -= 0.5;
    hi += 0.5;
  }
  return {lo, hi};
}

/// Exact [min, max] of `var` on snapshot t. Sources with index-resident
/// summaries (SKL3) answer from metadata; the others get one NaN-skipping
/// scan (an all-NaN snapshot scans to {+inf, -inf}). For lossless codecs
/// the summary min/max equal what the scan would compute, so every
/// downstream PMF is bit-identical; for quant the summary describes
/// pre-encode values (within codec tolerance; histogram binning clamps,
/// so PMFs stay well-defined).
field::VarRange snapshot_range(const field::SeriesSource& series,
                               std::size_t t, const std::string& var) {
  if (const auto r = series.value_range(t, var)) return *r;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  field::for_each_flat_batch(series.source(t), var,
                             [&](std::span<const double> vals) {
                               for (const double x : vals) {
                                 lo = std::min(lo, x);
                                 hi = std::max(hi, x);
                               }
                             });
  return {lo, hi};
}

/// The range every snapshot is binned over, so JS distances are
/// comparable across snapshots.
field::VarRange shared_range(const std::vector<field::VarRange>& ranges) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& r : ranges) {
    lo = std::min(lo, r.min);
    hi = std::max(hi, r.max);
  }
  return widened(lo, hi);
}

/// Exact PMF of snapshot t over `bins` bins of `range`, streamed in
/// flat-order gather batches.
std::vector<double> snapshot_pmf(const field::SeriesSource& series,
                                 std::size_t t, const std::string& var,
                                 const field::VarRange& range,
                                 std::size_t bins) {
  stats::Histogram h(range.min, range.max, bins);
  field::for_each_flat_batch(
      series.source(t), var,
      [&](std::span<const double> vals) { h.add(vals); });
  return h.pmf();
}

/// Canonical coarse histogram of snapshot t over its own exact `range`
/// (the field::kCoarseHistogramBins contract): read from the index when
/// the source carries it (SKL3, alongside the index range: zero payload
/// decodes), else scanned through the same stats::Histogram kernel the
/// writer used, so either path yields bit-identical counts under lossless
/// codecs.
std::vector<std::uint64_t> coarse_counts(const field::SeriesSource& series,
                                         std::size_t t, const std::string& var,
                                         const field::VarRange& range) {
  if (auto h = series.coarse_histogram(t, var)) return std::move(*h);
  const field::VarRange r = widened(range.min, range.max);
  if (!std::isfinite(r.min) || !std::isfinite(r.max) || !(r.max > r.min)) {
    return std::vector<std::uint64_t>(field::kCoarseHistogramBins, 0);
  }
  stats::Histogram h(r.min, r.max, field::kCoarseHistogramBins);
  field::for_each_flat_batch(
      series.source(t), var,
      [&](std::span<const double> vals) { h.add(vals); });
  const auto& c = h.counts();
  return std::vector<std::uint64_t>(c.begin(), c.end());
}

/// Farthest-point (max-min JS) greedy over a PMF set, starting at
/// position 0. Returns positions in selection order — the single greedy
/// kernel behind both the coarse seeding stage and the exact pass.
std::vector<std::size_t> greedy_maxmin(
    const std::vector<std::vector<double>>& pmfs, std::size_t k) {
  const std::size_t n = pmfs.size();
  std::vector<std::size_t> selected{0};
  std::vector<bool> taken(n, false);
  taken[0] = true;
  // min distance from each snapshot to the selected set
  std::vector<double> min_dist(n, 0.0);
  for (std::size_t t = 0; t < n; ++t) {
    if (!taken[t]) {
      min_dist[t] = stats::js_divergence(std::span<const double>(pmfs[t]),
                                         std::span<const double>(pmfs[0]));
    }
  }
  while (selected.size() < k) {
    std::size_t best = 0;
    double best_d = -1.0;
    for (std::size_t t = 0; t < n; ++t) {
      if (!taken[t] && min_dist[t] > best_d) {
        best_d = min_dist[t];
        best = t;
      }
    }
    taken[best] = true;
    selected.push_back(best);
    for (std::size_t t = 0; t < n; ++t) {
      if (taken[t]) continue;
      min_dist[t] = std::min(
          min_dist[t],
          stats::js_divergence(std::span<const double>(pmfs[t]),
                               std::span<const double>(pmfs[best])));
    }
  }
  return selected;
}

/// Coarse seeding stage: each snapshot's coarse counts, rebinned from its
/// own range onto the shared one by bin center, rank novelty
/// approximately; the greedy keeps m candidates, returned ascending.
std::vector<std::size_t> seed_candidates(
    const std::vector<std::vector<std::uint64_t>>& counts,
    const std::vector<field::VarRange>& ranges, const field::VarRange& shared,
    std::size_t bins, std::size_t m) {
  const std::size_t n = ranges.size();
  const stats::Histogram ref(shared.min, shared.max, bins);  // bins only
  std::vector<std::vector<double>> approx(n);
  for (std::size_t t = 0; t < n; ++t) {
    approx[t].assign(bins, 0.0);
    const field::VarRange own = widened(ranges[t].min, ranges[t].max);
    const double cw =
        (own.max - own.min) / static_cast<double>(field::kCoarseHistogramBins);
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts[t]) total += c;
    if (total == 0) continue;  // all-NaN snapshot: zero PMF, like a scan
    for (std::size_t i = 0; i < field::kCoarseHistogramBins; ++i) {
      if (counts[t][i] == 0) continue;
      const double center = own.min + (static_cast<double>(i) + 0.5) * cw;
      approx[t][ref.bin_of(center)] += static_cast<double>(counts[t][i]);
    }
    const double inv = 1.0 / static_cast<double>(total);
    for (double& p : approx[t]) p *= inv;
  }
  std::vector<std::size_t> candidates = greedy_maxmin(approx, m);
  // Ascending order makes the exact pass deterministic AND keeps snapshot
  // 0 (always seeded) at position 0, so the exact greedy starts there.
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

}  // namespace

std::vector<std::vector<double>> snapshot_pmfs(
    const field::SeriesSource& series, const TemporalConfig& cfg) {
  const std::size_t n = series.num_snapshots();
  SICKLE_CHECK_MSG(n > 0, "empty series");
  std::vector<field::VarRange> ranges(n);
  for (std::size_t t = 0; t < n; ++t) {
    ranges[t] = snapshot_range(series, t, cfg.variable);
  }
  const field::VarRange shared = shared_range(ranges);
  std::vector<std::vector<double>> pmfs;
  pmfs.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    pmfs.push_back(snapshot_pmf(series, t, cfg.variable, shared, cfg.bins));
  }
  return pmfs;
}

std::vector<std::size_t> select_snapshots(const field::SeriesSource& series,
                                          const TemporalConfig& cfg) {
  const std::size_t n = series.num_snapshots();
  SICKLE_CHECK_MSG(n > 0, "empty series");
  const std::size_t k = std::min(cfg.num_snapshots, n);
  const std::size_t m =
      std::min(n, std::max(k, kCandidatesPerPick * cfg.num_snapshots));
  // The coarse seeding stage runs only when its m candidates cannot cover
  // the series. Each snapshot's coarse counts are read right after its
  // range, while a scanning source still has that snapshot open.
  const bool seed = m < n;
  std::vector<field::VarRange> ranges(n);
  std::vector<std::vector<std::uint64_t>> counts(seed ? n : 0);
  for (std::size_t t = 0; t < n; ++t) {
    ranges[t] = snapshot_range(series, t, cfg.variable);
    if (seed) counts[t] = coarse_counts(series, t, cfg.variable, ranges[t]);
  }
  const field::VarRange shared = shared_range(ranges);
  std::vector<std::size_t> candidates(n);
  std::iota(candidates.begin(), candidates.end(), std::size_t{0});
  if (seed) candidates = seed_candidates(counts, ranges, shared, cfg.bins, m);

  // ONE exact streamed PMF pass over the candidates (the first payload
  // decodes on a sealed SKL3 series), then the exact greedy over them
  // picks the final k.
  std::vector<std::vector<double>> exact;
  exact.reserve(candidates.size());
  for (const std::size_t t : candidates) {
    exact.push_back(snapshot_pmf(series, t, cfg.variable, shared, cfg.bins));
  }
  const std::vector<std::size_t> picks = greedy_maxmin(exact, k);
  std::vector<std::size_t> selected;
  selected.reserve(picks.size());
  for (const std::size_t p : picks) selected.push_back(candidates[p]);
  return selected;
}

std::vector<std::size_t> select_snapshots(const field::Dataset& dataset,
                                          const TemporalConfig& cfg) {
  return select_snapshots(field::DatasetSeriesSource(dataset), cfg);
}

}  // namespace sickle::sampling
