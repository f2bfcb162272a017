#include "infer/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "ml/layers_basic.hpp"
#include "ml/models.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sickle::infer {

namespace {

constexpr std::uint32_t kMagic = 0x534B4946;  // "SKIF"
constexpr std::uint32_t kVersion = 1;

[[nodiscard]] std::vector<float> to_vec(const ml::Tensor& t) {
  return {t.raw(), t.raw() + t.size()};
}

[[nodiscard]] Act map_act(ml::Activation a) {
  switch (a) {
    case ml::Activation::kRelu: return Act::kRelu;
    case ml::Activation::kTanh: return Act::kTanh;
    case ml::Activation::kGelu: return Act::kGelu;
    case ml::Activation::kSigmoid: return Act::kSigmoid;
  }
  throw RuntimeError("infer: unknown activation kind");
}

/// Walk a Sequential of Dense/Activation layers into a packed chain;
/// activations fold onto the preceding dense layer.
[[nodiscard]] std::vector<PackedDense> pack_dense_chain(
    ml::Sequential& seq) {
  std::vector<PackedDense> chain;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    ml::Module& m = seq.at(i);
    if (auto* d = dynamic_cast<ml::Dense*>(&m)) {
      if (!chain.empty() && chain.back().out != d->in_features()) {
        throw RuntimeError("infer: dense chain width mismatch");
      }
      PackedDense p;
      p.in = d->in_features();
      p.out = d->out_features();
      p.w = to_vec(d->weight());
      if (d->has_bias()) p.b = to_vec(d->bias());
      chain.push_back(std::move(p));
    } else if (auto* a = dynamic_cast<ml::ActivationLayer*>(&m)) {
      if (chain.empty() || chain.back().act != Act::kIdentity) {
        throw RuntimeError(
            "infer: activation layer without a preceding dense layer");
      }
      chain.back().act = map_act(a->kind());
    } else {
      throw RuntimeError("infer: unsupported layer in dense chain: " +
                         m.name());
    }
  }
  if (chain.empty()) {
    throw RuntimeError("infer: empty dense chain");
  }
  return chain;
}

/// True when a vector of `size` elements holds exactly rows x cols, tested
/// by division so that no product of untrusted extents can wrap.
[[nodiscard]] bool holds(std::size_t size, std::size_t rows,
                         std::size_t cols) noexcept {
  return rows != 0 && size % rows == 0 && size / rows == cols;
}

/// A dense chain with nonzero widths, weights and biases of its widths,
/// and each layer consuming its predecessor's output.
void validate_chain(const std::vector<PackedDense>& chain) {
  if (chain.empty()) {
    throw RuntimeError("infer: empty dense chain");
  }
  for (std::size_t l = 0; l < chain.size(); ++l) {
    const PackedDense& d = chain[l];
    if (d.in == 0 || !holds(d.w.size(), d.out, d.in) ||
        (!d.b.empty() && d.b.size() != d.out)) {
      throw RuntimeError("infer: dense extents inconsistent");
    }
    if (l > 0 && chain[l - 1].out != d.in) {
      throw RuntimeError("infer: dense chain width mismatch");
    }
  }
}

/// Every extent of the canonical weights, checked by division before any
/// product is formed; the vectors' own sizes are then what bounds them.
void validate_weights(const LstmWeights& w) {
  const std::size_t H = w.hidden;
  if (H == 0 || w.in == 0 || w.horizon == 0 || w.out_channels == 0) {
    throw RuntimeError("infer: degenerate surrogate extents");
  }
  // b1 holds 4H, so G = 4H is a vector size and cannot have wrapped.
  const std::size_t G = w.b1.size();
  if (!holds(G, 4, H) || !holds(w.wx1.size(), G, w.in) ||
      !holds(w.wh1.size(), G, H) || !holds(w.wx2.size(), G, H) ||
      !holds(w.wh2.size(), G, H) || w.b2.size() != G) {
    throw RuntimeError("infer: LSTM weight extents do not match config");
  }
  validate_chain(w.head);
  if (w.head.front().in != H) {
    throw RuntimeError("infer: head does not consume the hidden state");
  }
  if (!holds(w.head.back().out, w.horizon, w.out_channels)) {
    throw RuntimeError("infer: head output does not match horizon");
  }
}

/// Room for the widest layer of a dense chain.
[[nodiscard]] std::size_t widest(const std::vector<PackedDense>& chain) {
  std::size_t n = 1;
  for (const auto& d : chain) n = std::max(n, d.out);
  return n;
}

// --- binary checkpoint helpers -------------------------------------------

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void write_bytes(std::FILE* f, const void* p, std::size_t n) {
  if (std::fwrite(p, 1, n, f) != n) {
    throw RuntimeError("infer: engine checkpoint write failed");
  }
}
void read_bytes(std::FILE* f, void* p, std::size_t n) {
  if (std::fread(p, 1, n, f) != n) {
    throw RuntimeError("infer: engine checkpoint truncated");
  }
}
void write_u32(std::FILE* f, std::uint32_t v) { write_bytes(f, &v, 4); }
void write_u64(std::FILE* f, std::uint64_t v) { write_bytes(f, &v, 8); }
void write_u8(std::FILE* f, std::uint8_t v) { write_bytes(f, &v, 1); }
[[nodiscard]] std::uint32_t read_u32(std::FILE* f) {
  std::uint32_t v = 0;
  read_bytes(f, &v, 4);
  return v;
}
[[nodiscard]] std::uint64_t read_u64(std::FILE* f) {
  std::uint64_t v = 0;
  read_bytes(f, &v, 8);
  return v;
}
[[nodiscard]] std::uint8_t read_u8(std::FILE* f) {
  std::uint8_t v = 0;
  read_bytes(f, &v, 1);
  return v;
}
void write_floats(std::FILE* f, const std::vector<float>& v) {
  write_u64(f, v.size());
  write_bytes(f, v.data(), v.size() * sizeof(float));
}
[[nodiscard]] std::vector<float> read_floats(std::FILE* f) {
  const std::uint64_t n = read_u64(f);
  // 1 GiB of floats is far beyond any surrogate a case trains — reject
  // early instead of letting a corrupt length drive a huge alloc.
  if (n > (1u << 28)) {
    throw RuntimeError("infer: engine checkpoint corrupt (vector length)");
  }
  std::vector<float> v(static_cast<std::size_t>(n));
  read_bytes(f, v.data(), v.size() * sizeof(float));
  return v;
}
void write_dense(std::FILE* f, const PackedDense& d) {
  write_u64(f, d.in);
  write_u64(f, d.out);
  write_u8(f, static_cast<std::uint8_t>(d.act));
  write_floats(f, d.w);
  write_floats(f, d.b);
}
[[nodiscard]] PackedDense read_dense(std::FILE* f) {
  PackedDense d;
  d.in = static_cast<std::size_t>(read_u64(f));
  d.out = static_cast<std::size_t>(read_u64(f));
  const std::uint8_t act = read_u8(f);
  if (act > static_cast<std::uint8_t>(Act::kSigmoid)) {
    throw RuntimeError("infer: engine checkpoint corrupt (activation)");
  }
  d.act = static_cast<Act>(act);
  d.w = read_floats(f);
  d.b = read_floats(f);
  return d;
}

}  // namespace

Engine Engine::from_weights(LstmWeights w) {
  validate_weights(w);
  Engine e;
  e.arch_ = Arch::kLstmSurrogate;
  e.lw_ = std::move(w);
  const LstmWeights& lw = e.lw_;
  e.lstm1_.pack(lw.in, lw.hidden, lw.wx1.data(), lw.wh1.data(),
                lw.b1.data());
  e.lstm2_.pack(lw.hidden, lw.hidden, lw.wx2.data(), lw.wh2.data(),
                lw.b2.data());
  e.scratch0_.assign(widest(lw.head), 0.0f);
  e.scratch1_.assign(widest(lw.head), 0.0f);
  return e;
}

Engine Engine::from_mlp(std::vector<PackedDense> layers) {
  validate_chain(layers);
  Engine e;
  e.arch_ = Arch::kMlp;
  e.mlp_ = std::move(layers);
  e.scratch0_.assign(widest(e.mlp_), 0.0f);
  e.scratch1_.assign(widest(e.mlp_), 0.0f);
  return e;
}

std::size_t Engine::input_features() const noexcept {
  if (arch_ == Arch::kLstmSurrogate) return lw_.in;
  if (arch_ == Arch::kMlp) return mlp_.front().in;
  return 0;
}

std::size_t Engine::output_features() const noexcept {
  if (arch_ == Arch::kLstmSurrogate) return lw_.head.back().out;
  if (arch_ == Arch::kMlp) return mlp_.back().out;
  return 0;
}

std::size_t Engine::num_parameters() const noexcept {
  std::size_t n = 0;
  if (arch_ == Arch::kLstmSurrogate) {
    n = lw_.wx1.size() + lw_.wh1.size() + lw_.b1.size() + lw_.wx2.size() +
        lw_.wh2.size() + lw_.b2.size();
    for (const auto& d : lw_.head) n += d.w.size() + d.b.size();
  } else {
    for (const auto& d : mlp_) n += d.w.size() + d.b.size();
  }
  return n;
}

void Engine::predict(std::span<const float> input, std::span<float> out) {
  obs::Span span("infer.forward", "infer");
  if (obs::enabled()) {
    static obs::Counter& forwards =
        obs::MetricsRegistry::global().counter("infer.forward.count");
    forwards.add();
  }
  SICKLE_CHECK_MSG(compiled(), "infer: predict on an empty engine");
  SICKLE_CHECK_MSG(out.size() == output_features(),
                   "infer: output span size mismatch");
  const float* cur = input.data();
  if (arch_ == Arch::kLstmSurrogate) {
    SICKLE_CHECK_MSG(
        input.size() >= lw_.in && input.size() % lw_.in == 0,
        "infer: LSTM input must be a whole number of timesteps");
    const std::size_t steps = input.size() / lw_.in;
    lstm1_.reset();
    lstm2_.reset();
    // The first (wide-input) layer sees the whole window up front, so its
    // input-weight matrix is streamed once for all timesteps; the second
    // layer's input is h_t of the first — recurrent-dependent — so it
    // runs the fused per-step path.
    lstm1_.precompute_inputs(cur, steps);
    for (std::size_t t = 0; t < steps; ++t) {
      lstm1_.step_pre(t);
      lstm2_.step(lstm1_.h.data());
    }
    cur = lstm2_.h.data();
  } else {
    SICKLE_CHECK_MSG(input.size() == mlp_.front().in,
                     "infer: MLP input size mismatch");
  }
  const std::vector<PackedDense>& chain =
      arch_ == Arch::kLstmSurrogate ? lw_.head : mlp_;
  for (std::size_t l = 0; l < chain.size(); ++l) {
    float* dst = (l + 1 == chain.size()) ? out.data()
                 : (l % 2 == 0)          ? scratch0_.data()
                                         : scratch1_.data();
    chain[l].forward(cur, dst);
    cur = dst;
  }
}

void Engine::save(const std::string& path) const {
  SICKLE_CHECK_MSG(compiled(), "infer: save on an empty engine");
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) {
    throw RuntimeError("infer: cannot open " + path + " for writing");
  }
  write_u32(f.get(), kMagic);
  write_u32(f.get(), kVersion);
  write_u8(f.get(), static_cast<std::uint8_t>(arch_));
  if (arch_ == Arch::kLstmSurrogate) {
    write_u64(f.get(), lw_.in);
    write_u64(f.get(), lw_.hidden);
    write_u64(f.get(), lw_.horizon);
    write_u64(f.get(), lw_.out_channels);
    write_floats(f.get(), lw_.wx1);
    write_floats(f.get(), lw_.wh1);
    write_floats(f.get(), lw_.b1);
    write_floats(f.get(), lw_.wx2);
    write_floats(f.get(), lw_.wh2);
    write_floats(f.get(), lw_.b2);
    write_u64(f.get(), lw_.head.size());
    for (const auto& d : lw_.head) write_dense(f.get(), d);
  } else {
    write_u64(f.get(), mlp_.size());
    for (const auto& d : mlp_) write_dense(f.get(), d);
  }
  if (std::fflush(f.get()) != 0) {
    throw RuntimeError("infer: engine checkpoint write failed");
  }
}

Engine Engine::load(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    throw RuntimeError("infer: cannot open " + path);
  }
  if (read_u32(f.get()) != kMagic) {
    throw RuntimeError("infer: " + path + " is not an engine checkpoint");
  }
  if (read_u32(f.get()) != kVersion) {
    throw RuntimeError("infer: unsupported engine checkpoint version");
  }
  const std::uint8_t arch = read_u8(f.get());
  if (arch == static_cast<std::uint8_t>(Arch::kLstmSurrogate)) {
    LstmWeights w;
    w.in = static_cast<std::size_t>(read_u64(f.get()));
    w.hidden = static_cast<std::size_t>(read_u64(f.get()));
    w.horizon = static_cast<std::size_t>(read_u64(f.get()));
    w.out_channels = static_cast<std::size_t>(read_u64(f.get()));
    w.wx1 = read_floats(f.get());
    w.wh1 = read_floats(f.get());
    w.b1 = read_floats(f.get());
    w.wx2 = read_floats(f.get());
    w.wh2 = read_floats(f.get());
    w.b2 = read_floats(f.get());
    const std::uint64_t nd = read_u64(f.get());
    if (nd > 64) {
      throw RuntimeError("infer: engine checkpoint corrupt (head depth)");
    }
    for (std::uint64_t i = 0; i < nd; ++i) {
      w.head.push_back(read_dense(f.get()));
    }
    return from_weights(std::move(w));  // re-validates every extent
  }
  if (arch == static_cast<std::uint8_t>(Arch::kMlp)) {
    const std::uint64_t nd = read_u64(f.get());
    if (nd > 64) {
      throw RuntimeError("infer: engine checkpoint corrupt (depth)");
    }
    std::vector<PackedDense> layers;
    for (std::uint64_t i = 0; i < nd; ++i) {
      layers.push_back(read_dense(f.get()));
    }
    return from_mlp(std::move(layers));
  }
  throw RuntimeError("infer: engine checkpoint corrupt (arch)");
}

Engine compile(ml::LstmModel& model) {
  obs::Span span("infer.compile", "infer");
  const ml::LstmModelConfig& cfg = model.config();
  const std::size_t H = cfg.hidden;
  const ml::Lstm& l1 = model.lstm1();
  const ml::Lstm& l2 = model.lstm2();
  // Belt and braces: the config and the live layer extents must agree
  // before the weights are reinterpreted into the packed layout.
  if (l1.input_size() != cfg.in_channels || l1.hidden_size() != H ||
      l2.input_size() != H || l2.hidden_size() != H) {
    throw RuntimeError("infer: LstmModel layers disagree with its config");
  }
  LstmWeights w;
  w.in = cfg.in_channels;
  w.hidden = H;
  w.horizon = cfg.horizon;
  w.out_channels = cfg.out_channels;
  w.wx1 = to_vec(l1.w_x());
  w.wh1 = to_vec(l1.w_h());
  w.b1 = to_vec(l1.bias());
  w.wx2 = to_vec(l2.w_x());
  w.wh2 = to_vec(l2.w_h());
  w.b2 = to_vec(l2.bias());
  w.head = pack_dense_chain(model.head());
  Engine e = Engine::from_weights(std::move(w));
  if (obs::enabled()) {
    obs::MetricsRegistry::global().counter("infer.compile.count").add();
    obs::MetricsRegistry::global()
        .gauge("infer.engine.hidden")
        .set(static_cast<double>(H));
  }
  return e;
}

Engine compile(ml::Sequential& mlp) {
  obs::Span span("infer.compile", "infer");
  Engine e = Engine::from_mlp(pack_dense_chain(mlp));
  if (obs::enabled()) {
    obs::MetricsRegistry::global().counter("infer.compile.count").add();
  }
  return e;
}

}  // namespace sickle::infer
