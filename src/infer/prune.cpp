#include "infer/prune.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sickle::infer {

namespace {

/// Drop hidden channel j's four gate rows from a gate-major [4H x cols]
/// matrix -> [4(H-1) x cols], preserving gate-major order.
[[nodiscard]] std::vector<float> drop_gate_rows(
    const std::vector<float>& m, std::size_t H, std::size_t cols,
    std::size_t j) {
  std::vector<float> out;
  out.reserve(4 * (H - 1) * cols);
  for (std::size_t g = 0; g < 4; ++g) {
    for (std::size_t r = 0; r < H; ++r) {
      if (r == j) continue;
      const float* row = m.data() + (g * H + r) * cols;
      out.insert(out.end(), row, row + cols);
    }
  }
  return out;
}

/// Drop one column from a row-major [rows x cols] matrix.
[[nodiscard]] std::vector<float> drop_col(const std::vector<float>& m,
                                          std::size_t rows,
                                          std::size_t cols, std::size_t c) {
  std::vector<float> out;
  out.reserve(rows * (cols - 1));
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = m.data() + r * cols;
    out.insert(out.end(), row, row + c);
    out.insert(out.end(), row + c + 1, row + cols);
  }
  return out;
}

/// Drop hidden channel j's four gate entries from a [4H] bias.
[[nodiscard]] std::vector<float> drop_gate_entries(
    const std::vector<float>& b, std::size_t H, std::size_t j) {
  std::vector<float> out;
  out.reserve(4 * (H - 1));
  for (std::size_t g = 0; g < 4; ++g) {
    for (std::size_t r = 0; r < H; ++r) {
      if (r != j) out.push_back(b[g * H + r]);
    }
  }
  return out;
}

/// Remove hidden channel c1 of the first LSTM and c2 of the second from
/// the canonical weights: the channels' gate rows, recurrent columns,
/// bias gates, and their fan-out into the consuming layer all go.
[[nodiscard]] LstmWeights remove_channel(const LstmWeights& w,
                                         std::size_t c1, std::size_t c2) {
  const std::size_t H = w.hidden;
  LstmWeights out;
  out.in = w.in;
  out.hidden = H - 1;
  out.horizon = w.horizon;
  out.out_channels = w.out_channels;
  out.wx1 = drop_gate_rows(w.wx1, H, w.in, c1);
  out.wh1 = drop_col(drop_gate_rows(w.wh1, H, H, c1), 4 * (H - 1), H, c1);
  out.b1 = drop_gate_entries(w.b1, H, c1);
  // lstm2 consumes lstm1's hidden: its input columns track c1, its own
  // hidden rows/columns track c2.
  out.wx2 = drop_col(drop_gate_rows(w.wx2, H, H, c2), 4 * (H - 1), H, c1);
  out.wh2 = drop_col(drop_gate_rows(w.wh2, H, H, c2), 4 * (H - 1), H, c2);
  out.b2 = drop_gate_entries(w.b2, H, c2);
  out.head = w.head;
  PackedDense& d1 = out.head.front();
  d1.w = drop_col(d1.w, d1.out, d1.in, c2);
  d1.in -= 1;
  return out;
}

struct MagnitudeAcc {
  double sum = 0.0;
  std::size_t count = 0;
  void add(const float* p, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) sum += std::abs(p[i]);
    count += n;
  }
  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Mean |w| of hidden channel j across everything it touches: its gate
/// rows in w_x/w_h, the recurrent column reading it, its bias gates, and
/// its fan-out columns into the consuming layer.
[[nodiscard]] double channel_magnitude(const LstmWeights& w, int layer,
                                       std::size_t j) {
  const std::size_t H = w.hidden;
  MagnitudeAcc acc;
  const std::vector<float>& wx = (layer == 1) ? w.wx1 : w.wx2;
  const std::vector<float>& wh = (layer == 1) ? w.wh1 : w.wh2;
  const std::vector<float>& b = (layer == 1) ? w.b1 : w.b2;
  const std::size_t in = (layer == 1) ? w.in : H;
  for (std::size_t g = 0; g < 4; ++g) {
    acc.add(wx.data() + (g * H + j) * in, in);
    acc.add(wh.data() + (g * H + j) * H, H);
    const float bias = b[g * H + j];
    acc.add(&bias, 1);
  }
  for (std::size_t r = 0; r < 4 * H; ++r) {
    const float v = wh[r * H + j];
    acc.add(&v, 1);
  }
  if (layer == 1) {
    for (std::size_t r = 0; r < 4 * H; ++r) {
      const float v = w.wx2[r * H + j];
      acc.add(&v, 1);
    }
  } else {
    const PackedDense& d1 = w.head.front();
    for (std::size_t r = 0; r < d1.out; ++r) {
      const float v = d1.w[r * d1.in + j];
      acc.add(&v, 1);
    }
  }
  return acc.mean();
}

[[nodiscard]] std::size_t argmin_channel(const LstmWeights& w, int layer) {
  std::size_t best = 0;
  double best_mag = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < w.hidden; ++j) {
    const double mag = channel_magnitude(w, layer, j);
    if (mag < best_mag) {
      best_mag = mag;
      best = j;
    }
  }
  return best;
}

/// RMS deviation of `engine` from `ref` over the probe set.
[[nodiscard]] double probe_rms(Engine& engine,
                               std::span<const float> probes,
                               std::size_t num_probes,
                               std::span<const float> ref) {
  const std::size_t probe_len = probes.size() / num_probes;
  const std::size_t out_f = engine.output_features();
  std::vector<float> out(out_f);
  double sq = 0.0;
  for (std::size_t p = 0; p < num_probes; ++p) {
    engine.predict(probes.subspan(p * probe_len, probe_len), out);
    for (std::size_t o = 0; o < out_f; ++o) {
      const double d = static_cast<double>(out[o]) -
                       static_cast<double>(ref[p * out_f + o]);
      sq += d * d;
    }
  }
  return std::sqrt(sq / static_cast<double>(num_probes * out_f));
}

}  // namespace

std::pair<std::size_t, std::size_t> find_pruning_candidate(
    const Engine& engine) {
  SICKLE_CHECK_MSG(engine.arch() == Engine::Arch::kLstmSurrogate,
                   "infer: pruning targets LSTM surrogate engines");
  const LstmWeights& w = engine.lstm_weights();
  return {argmin_channel(w, 1), argmin_channel(w, 2)};
}

PruneReport prune(Engine& engine, std::span<const float> probes,
                  std::size_t num_probes, const PruneOptions& opts) {
  obs::Span span("infer.prune", "infer");
  SICKLE_CHECK_MSG(engine.arch() == Engine::Arch::kLstmSurrogate,
                   "infer: pruning targets LSTM surrogate engines");
  SICKLE_CHECK_MSG(num_probes > 0 && probes.size() % num_probes == 0,
                   "infer: probes must hold num_probes equal windows");
  const std::size_t probe_len = probes.size() / num_probes;
  SICKLE_CHECK_MSG(
      probe_len >= engine.input_features() &&
          probe_len % engine.input_features() == 0,
      "infer: each probe must be whole timesteps of input_features()");

  PruneReport report;
  report.initial_hidden = engine.hidden();
  report.final_hidden = engine.hidden();

  // Reference predictions of the engine as handed in: every candidate is
  // scored against these, so accepted error never compounds past the
  // threshold.
  const std::size_t out_f = engine.output_features();
  std::vector<float> ref(num_probes * out_f);
  for (std::size_t p = 0; p < num_probes; ++p) {
    engine.predict(probes.subspan(p * probe_len, probe_len),
                   std::span<float>(ref).subspan(p * out_f, out_f));
  }

  const std::size_t floor_hidden = std::max<std::size_t>(opts.min_hidden, 1);
  while (engine.hidden() > floor_hidden &&
         (opts.max_channels == 0 ||
          report.accepted.size() < opts.max_channels)) {
    const auto [c1, c2] = find_pruning_candidate(engine);
    Engine candidate =
        Engine::from_weights(remove_channel(engine.lstm_weights(), c1, c2));
    const double rms =
        probe_rms(candidate, probes, num_probes,
                  std::span<const float>(ref));
    if (!(rms <= opts.rms_threshold)) {
      report.refused = true;
      break;
    }
    engine = std::move(candidate);
    report.accepted.push_back(PruneStep{c1, c2, rms});
    report.final_rms = rms;
    report.final_hidden = engine.hidden();
  }

  if (obs::enabled()) {
    obs::MetricsRegistry::global()
        .gauge("infer.pruned_channels")
        .set(static_cast<double>(report.accepted.size()));
    obs::MetricsRegistry::global()
        .gauge("infer.engine.hidden")
        .set(static_cast<double>(report.final_hidden));
  }
  return report;
}

}  // namespace sickle::infer
