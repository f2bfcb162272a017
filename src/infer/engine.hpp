// The microsecond surrogate inference engine (ROADMAP D3).
//
// Training (src/ml/) runs every prediction through the dynamic Tensor
// path — per-layer heap allocation, shape checks, virtual dispatch, and
// activation caching for a backward pass that inference never takes.
// This module compiles a trained checkpoint once into a packed,
// compile-time-specialized form and serves batch-1 forwards from it:
//
//   ml::LstmModel / ml::Sequential
//        --compile()-->  infer::Engine      (validates shapes, packs
//                                            weights, builds the variant)
//        --prune()---->  smaller Engine     (magnitude pruning, prune.hpp)
//        --predict()-->  output             (allocation-free, simd dots)
//
// The LSTM surrogate dispatches through ModelVariant — a std::variant
// over SurrogateT<H> for every hidden size H in [kMinHidden, kMaxHidden],
// built by template recursion (the RTNeural ModelT/Model_Variant_Builder
// idiom): one std::visit at the predict boundary, then a fully-specialized
// forward with statically-known recurrent extents. The one-step ladder
// exists because magnitude pruning removes a single hidden channel at a
// time, so every intermediate size must be dispatchable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "infer/layers.hpp"

namespace sickle::infer {

/// Hidden-size ladder the variant is instantiated over. Checkpoints with
/// hidden sizes outside [kMinHidden, kMaxHidden] are rejected by
/// compile() with a typed error; widen the ladder here if a case needs a
/// bigger surrogate (compile time grows linearly with the span).
inline constexpr int kMinHidden = 2;
inline constexpr int kMaxHidden = 32;

/// Canonical runtime-extent form of a compiled LSTM drag surrogate:
/// two stacked LSTM layers sharing one hidden size plus a dense head.
/// This is the form pruning does index surgery on and save()/load()
/// serialize; the packed variant is always re-derived from it.
/// Layouts match ml::Lstm: gate-major [4H, *] row-major, gate order
/// i|f|g|o.
struct LstmWeights {
  std::size_t in = 0;      ///< input channels per timestep
  std::size_t hidden = 0;  ///< H of both LSTM layers
  std::size_t horizon = 1;
  std::size_t out_channels = 1;
  std::vector<float> wx1, wh1, b1;  ///< [4H*in], [4H*H], [4H]
  std::vector<float> wx2, wh2, b2;  ///< [4H*H], [4H*H], [4H]
  std::vector<PackedDense> head;    ///< dense stack fed the last hidden
};

/// Fully-specialized surrogate for one compile-time hidden size.
template <int H>
struct SurrogateT {
  static constexpr int kHidden = H;
  LstmLayerT<H> lstm1;
  LstmLayerT<H> lstm2;
  std::vector<PackedDense> head;
  std::vector<float> scratch0, scratch1;

  void pack(const LstmWeights& w) {
    lstm1.pack(w.in, w.wx1.data(), w.wh1.data(), w.b1.data());
    lstm2.pack(static_cast<std::size_t>(H), w.wx2.data(), w.wh2.data(),
               w.b2.data());
    head = w.head;
    std::size_t widest = 1;
    for (const auto& d : head) widest = std::max(widest, d.out);
    scratch0.assign(widest, 0.0f);
    scratch1.assign(widest, 0.0f);
  }

  void forward(const float* x, std::size_t steps, float* out) {
    lstm1.reset();
    lstm2.reset();
    // The first (wide-input) layer sees the whole window up front, so its
    // input-weight matrix is streamed once for all timesteps; the second
    // layer's input is h_t of the first — recurrent-dependent — so it
    // runs the fused per-step path.
    lstm1.precompute_inputs(x, steps);
    for (std::size_t t = 0; t < steps; ++t) {
      lstm1.step_pre(t);
      lstm2.step(lstm1.h());
    }
    const float* cur = lstm2.h();
    for (std::size_t l = 0; l < head.size(); ++l) {
      float* dst = (l + 1 == head.size()) ? out
                   : (l % 2 == 0)         ? scratch0.data()
                                          : scratch1.data();
      head[l].forward(cur, dst);
      cur = dst;
    }
  }
};

namespace detail {

template <typename V, typename T>
struct append_variant;
template <typename... Ts, typename T>
struct append_variant<std::variant<Ts...>, T> {
  using type = std::variant<Ts..., T>;
};

/// Template recursion over the hidden-size ladder: ladder<H> is the
/// variant of every SurrogateT from kMinHidden up to H (plus monostate
/// for the empty engine).
template <int H>
struct ladder {
  using type =
      typename append_variant<typename ladder<H - 1>::type,
                              SurrogateT<H>>::type;
};
template <>
struct ladder<kMinHidden> {
  using type = std::variant<std::monostate, SurrogateT<kMinHidden>>;
};

}  // namespace detail

/// variant<monostate, SurrogateT<2>, ..., SurrogateT<kMaxHidden>>.
using ModelVariant = typename detail::ladder<kMaxHidden>::type;

/// A compiled model ready to serve batch-1 predictions. Engines are
/// cheap to copy and single-threaded by design (the recurrent state and
/// head scratch live inside); clone one per thread for concurrent
/// serving.
class Engine {
 public:
  enum class Arch : std::uint8_t { kNone = 0, kLstmSurrogate = 1, kMlp = 2 };

  Engine() = default;

  /// Build from canonical surrogate weights: validates every extent,
  /// packs the matching SurrogateT<H>. Throws RuntimeError on any
  /// inconsistency (including hidden outside the ladder).
  [[nodiscard]] static Engine from_weights(LstmWeights w);

  /// Build a plain MLP engine from a packed dense chain.
  [[nodiscard]] static Engine from_mlp(std::vector<PackedDense> layers);

  [[nodiscard]] bool compiled() const noexcept {
    return arch_ != Arch::kNone;
  }
  [[nodiscard]] Arch arch() const noexcept { return arch_; }
  /// Recurrent hidden size (0 for MLP engines).
  [[nodiscard]] std::size_t hidden() const noexcept { return lw_.hidden; }
  /// Per-timestep input features (LSTM) or total input features (MLP).
  [[nodiscard]] std::size_t input_features() const noexcept;
  [[nodiscard]] std::size_t output_features() const noexcept;
  [[nodiscard]] std::size_t num_parameters() const noexcept;

  /// Canonical weights (empty unless arch() == kLstmSurrogate).
  [[nodiscard]] const LstmWeights& lstm_weights() const noexcept {
    return lw_;
  }

  /// Batch-1 forward. LSTM surrogates take a flattened [steps, in] window
  /// (steps = input.size() / in, validated); MLPs take [in]. `out` must
  /// hold output_features(). Allocation-free once the per-window-length
  /// scratch is warm (the first call with a longer window grows it); not
  /// thread-safe (recurrent state lives in the engine — clone per
  /// thread).
  void predict(std::span<const float> input, std::span<float> out);

  /// Binary checkpoint round-trip: load(save(x)) serves bit-identical
  /// predictions (test-asserted).
  void save(const std::string& path) const;
  [[nodiscard]] static Engine load(const std::string& path);

 private:
  Arch arch_ = Arch::kNone;
  LstmWeights lw_;                 ///< canonical form (kLstmSurrogate)
  ModelVariant model_;             ///< packed specialization
  std::vector<PackedDense> mlp_;   ///< dense chain (kMlp)
  std::vector<float> scratch0_, scratch1_;  ///< MLP activations
};

// Forward declarations of the training-side types compile() converts;
// keeps this header light for serving-only consumers.
}  // namespace sickle::infer

namespace sickle::ml {
class LstmModel;
class Sequential;
}  // namespace sickle::ml

namespace sickle::infer {

/// Compile a trained drag surrogate: validates the checkpoint's shapes
/// against its config, copies the weights into the packed layout, and
/// dispatches the matching variant. Traced as `infer.compile`.
[[nodiscard]] Engine compile(ml::LstmModel& model);

/// Compile a plain Dense/Activation stack (anything else is rejected).
[[nodiscard]] Engine compile(ml::Sequential& mlp);

}  // namespace sickle::infer
