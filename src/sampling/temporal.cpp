#include "sampling/temporal.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hpp"
#include "stats/entropy.hpp"
#include "stats/histogram.hpp"

namespace sickle::sampling {

std::vector<std::vector<double>> snapshot_pmfs(
    const field::SeriesSource& series, const TemporalConfig& cfg) {
  const std::size_t n = series.num_snapshots();
  SICKLE_CHECK_MSG(n > 0, "empty series");
  // Pass 1: global range, so JS distances are comparable across
  // snapshots. Sources with index-resident summaries (SKL3) answer
  // this from metadata, turning cold-store selection into a single pass
  // over the payload. For lossless codecs the summary min/max equal what
  // the scan would compute, so the range and every downstream PMF are
  // bit-identical; for quant the summary describes pre-encode values
  // (within codec tolerance — histogram binning clamps, so PMFs stay
  // well-defined). Sources without summaries fall back to the full scan.
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  bool summarized = true;
  for (std::size_t t = 0; t < n && summarized; ++t) {
    if (const auto r = series.value_range(t, cfg.variable)) {
      lo = std::min(lo, r->min);
      hi = std::max(hi, r->max);
    } else {
      summarized = false;
    }
  }
  if (!summarized) {
    lo = std::numeric_limits<double>::infinity();
    hi = -std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < n; ++t) {
      field::for_each_flat_batch(series.source(t), cfg.variable,
                                 [&](std::span<const double> vals) {
                                   for (const double x : vals) {
                                     lo = std::min(lo, x);
                                     hi = std::max(hi, x);
                                   }
                                 });
    }
  }
  if (!(hi > lo)) {
    lo -= 0.5;
    hi += 0.5;
  }
  // Pass 2: per-snapshot histograms over the shared range.
  std::vector<std::vector<double>> pmfs;
  pmfs.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    stats::Histogram h(lo, hi, cfg.bins);
    field::for_each_flat_batch(
        series.source(t), cfg.variable,
        [&](std::span<const double> vals) { h.add(vals); });
    pmfs.push_back(h.pmf());
  }
  return pmfs;
}

namespace {

/// Farthest-point (max-min JS) greedy over a PMF set, starting at
/// position 0. Returns positions in selection order — the single greedy
/// kernel behind both the coarse seeding stage and the exact refinement.
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

/// Per-snapshot exact range + canonical coarse histogram, answered from
/// the index (SKL3: zero payload decodes) or scanned through the
/// exact same stats::Histogram kernel the writer used — the
/// field::kCoarseHistogramBins contract — so either path yields
/// bit-identical counts under lossless codecs.
struct CoarseSummaries {
  std::vector<field::VarRange> ranges;
  std::vector<std::vector<std::uint64_t>> counts;
};

CoarseSummaries coarse_summaries(const field::SeriesSource& series,
                                 const std::string& var) {
  const std::size_t n = series.num_snapshots();
  CoarseSummaries out;
  out.ranges.resize(n);
  out.counts.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    const auto r = series.value_range(t, var);
    if (r) {
      if (auto h = series.coarse_histogram(t, var)) {
        out.ranges[t] = *r;
        out.counts[t] = std::move(*h);
        continue;
      }
    }
    // Scan fallback. The range comes from the index when available (ranges
    // only: one payload pass) or its own NaN-skipping scan (memory: two).
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    if (r) {
      lo = r->min;
      hi = r->max;
    } else {
      field::for_each_flat_batch(series.source(t), var,
                                 [&](std::span<const double> vals) {
                                   for (const double x : vals) {
                                     lo = std::min(lo, x);
                                     hi = std::max(hi, x);
                                   }
                                 });
    }
    out.ranges[t] = {lo, hi};
    if (!(hi > lo)) {
      lo -= 0.5;
      hi += 0.5;
    }
    if (std::isfinite(lo) && std::isfinite(hi) && hi > lo) {
      stats::Histogram h(lo, hi, field::kCoarseHistogramBins);
      field::for_each_flat_batch(
          series.source(t), var,
          [&](std::span<const double> vals) { h.add(vals); });
      out.counts[t].assign(h.counts().begin(), h.counts().end());
    } else {
      out.counts[t].assign(field::kCoarseHistogramBins, 0);
    }
  }
  return out;
}

}  // namespace

std::vector<std::size_t> select_snapshots(const field::SeriesSource& series,
                                          const TemporalConfig& cfg) {
  const std::size_t n = series.num_snapshots();
  SICKLE_CHECK_MSG(n > 0, "empty series");
  const std::size_t k = std::min(cfg.num_snapshots, n);
  const std::size_t m =
      std::min(n, std::max(k, cfg.refine_factor * cfg.num_snapshots));
  if (m >= n) {
    // Candidates cover the series: the refinement pass IS a full exact
    // pass, so run the legacy single-stage greedy directly (bit-identical
    // result, and snapshot_pmfs already exploits index ranges).
    return greedy_maxmin(snapshot_pmfs(series, cfg), k);
  }

  // Stage 1 — seed: coarse per-snapshot histograms (index-resident on
  // SKL3, else scanned), rebinned from each snapshot's own range onto
  // the shared global range by bin center, rank novelty approximately.
  const CoarseSummaries cs = coarse_summaries(series, cfg.variable);
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& r : cs.ranges) {
    lo = std::min(lo, r.min);
    hi = std::max(hi, r.max);
  }
  if (!(hi > lo)) {
    lo -= 0.5;
    hi += 0.5;
  }
  const stats::Histogram ref(lo, hi, cfg.bins);  // bin mapping only
  std::vector<std::vector<double>> approx(n);
  for (std::size_t t = 0; t < n; ++t) {
    approx[t].assign(cfg.bins, 0.0);
    double slo = cs.ranges[t].min;
    double shi = cs.ranges[t].max;
    if (!(shi > slo)) {
      slo -= 0.5;
      shi += 0.5;
    }
    const double cw =
        (shi - slo) / static_cast<double>(field::kCoarseHistogramBins);
    std::uint64_t total = 0;
    for (const std::uint64_t c : cs.counts[t]) total += c;
    if (total == 0) continue;  // all-NaN snapshot: zero PMF, like a scan
    for (std::size_t i = 0; i < field::kCoarseHistogramBins; ++i) {
      if (cs.counts[t][i] == 0) continue;
      const double center = slo + (static_cast<double>(i) + 0.5) * cw;
      approx[t][ref.bin_of(center)] +=
          static_cast<double>(cs.counts[t][i]);
    }
    const double inv = 1.0 / static_cast<double>(total);
    for (double& p : approx[t]) p *= inv;
  }
  std::vector<std::size_t> candidates = greedy_maxmin(approx, m);
  // Ascending order makes the refinement deterministic AND keeps snapshot
  // 0 (always seeded) at position 0 so the exact greedy starts there,
  // matching the legacy algorithm's anchor.
  std::sort(candidates.begin(), candidates.end());

  // Stage 2 — refine: ONE exact streamed PMF pass over the candidates
  // only (the first payload decodes on a sealed SKL3 series), then the
  // exact greedy restricted to them picks the final k.
  std::vector<std::vector<double>> exact;
  exact.reserve(candidates.size());
  for (const std::size_t t : candidates) {
    stats::Histogram h(lo, hi, cfg.bins);
    field::for_each_flat_batch(
        series.source(t), cfg.variable,
        [&](std::span<const double> vals) { h.add(vals); });
    exact.push_back(h.pmf());
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

std::vector<double> snapshot_novelty(const field::SeriesSource& series,
                                     const TemporalConfig& cfg,
                                     std::size_t reference) {
  const auto pmfs = snapshot_pmfs(series, cfg);
  SICKLE_CHECK(reference < pmfs.size());
  std::vector<double> out;
  out.reserve(pmfs.size());
  for (const auto& p : pmfs) {
    out.push_back(stats::js_divergence(std::span<const double>(p),
                                       std::span<const double>(pmfs[reference])));
  }
  return out;
}

std::vector<double> snapshot_novelty(const field::Dataset& dataset,
                                     const TemporalConfig& cfg,
                                     std::size_t reference) {
  return snapshot_novelty(field::DatasetSeriesSource(dataset), cfg,
                          reference);
}

}  // namespace sickle::sampling
