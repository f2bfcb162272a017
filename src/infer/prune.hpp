// Magnitude pruning for compiled LSTM surrogates: the neural-pruning
// candidate search (drop the smallest-magnitude hidden channel, re-measure
// RMS error on a held-out probe set, accept while under threshold) applied
// to infer::Engine. Each accepted step re-packs the engine one hidden
// channel smaller.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "infer/engine.hpp"

namespace sickle::infer {

struct PruneOptions {
  /// Maximum probe RMS deviation from the *unpruned* engine's predictions
  /// a pruned engine may accumulate. The search stops at the first
  /// candidate exceeding it, so the returned engine always satisfies
  /// final_rms <= rms_threshold.
  double rms_threshold = 0.0;
  /// Hard floor on the hidden size; an engine keeps at least one channel.
  std::size_t min_hidden = 2;
  /// Stop after this many accepted channels; 0 = threshold-bounded only.
  /// Lets benches prune to an exact target size with a large threshold.
  std::size_t max_channels = 0;
};

/// One accepted pruning step. Channel indices refer to the hidden layout
/// *at the time of the step* (each step renumbers the survivors).
struct PruneStep {
  std::size_t channel1 = 0;  ///< pruned hidden channel of the first LSTM
  std::size_t channel2 = 0;  ///< pruned hidden channel of the second LSTM
  double rms = 0.0;  ///< probe RMS vs the original engine after this step
};

struct PruneReport {
  std::vector<PruneStep> accepted;
  std::size_t initial_hidden = 0;
  std::size_t final_hidden = 0;
  /// Probe RMS of the final engine vs the original (0 when nothing was
  /// pruned).
  double final_rms = 0.0;
  /// True when the search stopped because the best remaining candidate
  /// exceeded rms_threshold (as opposed to hitting min_hidden or
  /// max_channels).
  bool refused = false;
};

/// The smallest-magnitude hidden channel of each LSTM layer (mean |w|
/// over the channel's gate rows, recurrent column, bias gates, and its
/// fan-out into the next layer) — the next candidate prune() would try.
[[nodiscard]] std::pair<std::size_t, std::size_t> find_pruning_candidate(
    const Engine& engine);

/// Greedy magnitude pruning of a compiled LSTM surrogate. `probes` holds
/// `num_probes` held-out input windows, flattened back to back (each
/// window a whole number of timesteps of engine.input_features()
/// channels). Error is always measured against the predictions of the
/// engine as passed in, so thresholds compose: the final engine's probe
/// RMS never exceeds opts.rms_threshold. Gauges `infer.pruned_channels`
/// and `infer.engine.hidden` record the outcome when obs is enabled.
PruneReport prune(Engine& engine, std::span<const float> probes,
                  std::size_t num_probes, const PruneOptions& opts);

}  // namespace sickle::infer
