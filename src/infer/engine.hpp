// The microsecond surrogate inference engine (ROADMAP D3).
//
// Training (src/ml/) runs every prediction through the dynamic Tensor
// path — per-layer heap allocation, shape checks, virtual dispatch, and
// activation caching for a backward pass that inference never takes.
// This module compiles a trained checkpoint once into a packed form and
// serves batch-1 forwards from it:
//
//   ml::LstmModel / ml::Sequential
//        --compile()-->  infer::Engine      (validates shapes, packs
//                                            weights)
//        --prune()---->  smaller Engine     (magnitude pruning, prune.hpp)
//        --predict()-->  output             (allocation-free, simd dots)
//
// The LSTM surrogate is two runtime-extent LstmLayers (layers.hpp) and a
// dense head, so one code path serves every hidden size, including each
// size pruning passes through on its way down one channel at a time.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "infer/layers.hpp"

namespace sickle::infer {

/// Canonical runtime-extent form of a compiled LSTM drag surrogate:
/// two stacked LSTM layers sharing one hidden size plus a dense head.
/// This is the form pruning does index surgery on and save()/load()
/// serialize; the packed layers are always re-derived from it.
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

/// A compiled model ready to serve batch-1 predictions. Engines are
/// cheap to copy and single-threaded by design (the recurrent state and
/// head scratch live inside); clone one per thread for concurrent
/// serving.
class Engine {
 public:
  enum class Arch : std::uint8_t { kNone = 0, kLstmSurrogate = 1, kMlp = 2 };

  Engine() = default;

  /// Build from canonical surrogate weights: validates every extent,
  /// then packs both LSTM layers. Throws RuntimeError on any
  /// inconsistency.
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
  LstmWeights lw_;                ///< canonical form (kLstmSurrogate)
  LstmLayer lstm1_, lstm2_;       ///< packed from lw_
  std::vector<PackedDense> mlp_;  ///< dense chain (kMlp)
  /// Activations between dense layers (MLP or surrogate head).
  std::vector<float> scratch0_, scratch1_;
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
/// against its config and copies the weights into the packed layout.
/// Traced as `infer.compile`.
[[nodiscard]] Engine compile(ml::LstmModel& model);

/// Compile a plain Dense/Activation stack (anything else is rejected).
[[nodiscard]] Engine compile(ml::Sequential& mlp);

}  // namespace sickle::infer
