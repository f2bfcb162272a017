// Inference kernels: the flat-storage building blocks the compiled engine
// (engine.hpp) is assembled from.
//
// Everything here is allocation-free after construction and built around
// two ideas the training path cannot use:
//
//  1. Vector re-association. The training matmuls accumulate floats in
//     strict left-to-right order (bit-reproducibility across thread
//     counts), which the compiler must not vectorize. The inference
//     kernels carry explicit `#pragma omp simd reduction` annotations
//     licensing reordered sums, and the wide input layer batches up to
//     four timesteps per weight-column sweep so each weight is streamed
//     once per block instead of once per timestep.
//  2. Batched polynomial transcendentals. libm's expf/tanhf are called
//     once per gate scalar on the training path and dominate small-model
//     forwards. Here all 4H gate activations of a timestep are computed
//     as array operations over a degree-5 polynomial exp (Cephes
//     coefficients, absolute error ~1e-7) that vectorizes cleanly.
//
// Both change float results only at the ~1e-7 level; the engine's parity
// with the training forward is asserted at 1e-6 RMS in tests/test_infer.cpp.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace sickle::infer {

/// Dot product with vector re-association.
[[nodiscard]] inline float dot(const float* a, const float* b,
                               std::size_t n) noexcept {
  float acc = 0.0f;
#pragma omp simd reduction(+ : acc)
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

/// Branch-free expf for one lane of a vectorized loop: Cephes-style
/// degree-5 polynomial on the reduced range with two-part ln2, scaled by
/// 2^k through exponent-bit assembly. Absolute error ~1e-7 relative over
/// the clamped domain; round-to-nearest reduction via the 1.5*2^23 magic
/// constant (simd-friendly, no branches).
[[nodiscard]] inline float exp_lane(float v) noexcept {
  constexpr float kLog2e = 1.44269504088896341f;
  constexpr float kC1 = 0.693359375f;           // ln2 high part
  constexpr float kC2 = -2.12194440e-4f;        // ln2 low part
  constexpr float kMagic = 12582912.0f;         // 1.5 * 2^23
  v = v > 88.0f ? 88.0f : v;
  v = v < -87.0f ? -87.0f : v;
  const float t = v * kLog2e + kMagic;
  const float k = t - kMagic;  // round-to-nearest(v * log2e)
  const float x = (v - k * kC1) - k * kC2;
  float p = 1.9875691500e-4f;
  p = p * x + 1.3981999507e-3f;
  p = p * x + 8.3334519073e-3f;
  p = p * x + 4.1665795894e-2f;
  p = p * x + 1.6666665459e-1f;
  p = p * x + 5.0000001201e-1f;
  p = p * x * x + x + 1.0f;
  const auto bits = std::bit_cast<std::uint32_t>(t);  // low bits hold k
  const std::uint32_t scale = (bits + 127u) << 23;    // 2^k as a float
  return p * std::bit_cast<float>(scale);
}

/// x[i] = sigmoid(x[i]) = 1 / (1 + exp(-x[i])).
inline void sigmoid_inplace(float* x, std::size_t n) noexcept {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 1.0f / (1.0f + exp_lane(-x[i]));
  }
}

/// x[i] = tanh(x[i]) = 1 - 2 / (exp(2 x[i]) + 1). The subtraction form
/// keeps the absolute error at the exp level (~1e-7) everywhere,
/// including the saturated tails.
inline void tanh_inplace(float* x, std::size_t n) noexcept {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 1.0f - 2.0f / (exp_lane(2.0f * x[i]) + 1.0f);
  }
}

/// Activation kinds the packed dense layer supports; mirrors
/// ml::Activation plus an explicit identity for un-activated heads.
enum class Act : std::uint8_t {
  kIdentity = 0,
  kRelu = 1,
  kTanh = 2,
  kGelu = 3,
  kSigmoid = 4,
};

/// Elementwise activation, formulas matching ml::ActivationLayer (GELU is
/// the same tanh approximation with the same float constants; tanh and
/// sigmoid go through the batched polynomial exp).
inline void apply_act(Act act, float* x, std::size_t n) noexcept {
  switch (act) {
    case Act::kIdentity:
      break;
    case Act::kRelu:
      for (std::size_t i = 0; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
      break;
    case Act::kTanh:
      tanh_inplace(x, n);
      break;
    case Act::kGelu:
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i) {
        const float c = 0.7978845608f;  // sqrt(2/pi), as in layers_basic
        const float u = c * (x[i] + 0.044715f * x[i] * x[i] * x[i]);
        x[i] = x[i] * (1.0f - 1.0f / (exp_lane(2.0f * u) + 1.0f));
      }
      break;
    case Act::kSigmoid:
      sigmoid_inplace(x, n);
      break;
  }
}

/// Runtime-extent packed dense layer: y = x W^T + b then activation,
/// W row-major [out, in] exactly like ml::Dense. Used for MLP engines
/// and the surrogate head, whose widths decouple from the recurrent
/// hidden size once pruning shrinks it.
struct PackedDense {
  std::size_t in = 0, out = 0;
  std::vector<float> w;  ///< [out * in]
  std::vector<float> b;  ///< [out]; empty = no bias
  Act act = Act::kIdentity;

  void forward(const float* x, float* y) const noexcept {
    for (std::size_t o = 0; o < out; ++o) {
      y[o] = dot(x, w.data() + o * in, in) + (b.empty() ? 0.0f : b[o]);
    }
    apply_act(act, y, out);
  }
};

/// Allocator whose blocks start on a 64-byte cache line, so that no
/// 64-byte vector load from the start of a column splits a line.
template <typename T>
struct LineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kLine{64};
  LineAllocator() = default;
  template <typename U>
  LineAllocator(const LineAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kLine));
  }
  void deallocate(T* p, std::size_t) noexcept { ::operator delete(p, kLine); }
  bool operator==(const LineAllocator&) const noexcept { return true; }
};
using LineFloats = std::vector<float, LineAllocator<float>>;

/// One LSTM layer with runtime extents, `in` input channels per timestep
/// and `hidden` recurrent channels. Semantics replicate ml::Lstm: gate
/// order i|f|g|o, zero initial state,
///   c = f*c_prev + i*g;  h = o*tanh(c)
/// with sums re-associated and activations through the polynomial exp
/// (both ~1e-7 deviations; parity is asserted at the engine level).
///
/// Weights are stored COLUMN-major: wt[j * rows + r] holds input j's
/// coefficient for gate row r, with the recurrent block appended as
/// columns [in, in + hidden). Every matvec is then an axpy sweep over
/// columns — gates[r] += column_j[r] * z_j — whose inner loop runs down
/// the gate rows. That kills the per-row horizontal reductions of the
/// dot-product form, which dominate at LSTM row lengths (a [4H=64, H=16]
/// recurrent update measures ~20x faster column-major: 64 16-float dots
/// are almost all reduction latency, 16 64-float axpys are almost all FMA
/// throughput).
///
/// The arithmetic contract of the kernels (layers.cpp):
///  - Same bits. Each gate row starts from its bias, or from its bias plus
///    the window precompute's input term, and adds its columns in
///    ascending j: input columns first, then recurrent columns. The
///    precompute sums a row's input columns from zero, four timesteps per
///    column sweep, and adds the bias once. The activations are the
///    exp_lane polynomials. The compiler may contract a multiply-add to an
///    FMA; it contracts every row the same way, so a row's bits do not
///    depend on the tile that sweeps it (InferGolden pins them).
///  - Accumulators stay in registers. The 4*hidden gate rows are
///    zero-padded to `rows`, a whole number of 16-row tiles, and swept in
///    tiles of compile-time width: 64 rows, then 32, then 16. Each tile's
///    accumulators are a fixed set of vector registers across its whole
///    column sweep; a loop over a runtime row count that accumulates in
///    memory ran 2-3x slower (docs/PERF.md).
///  - Loads stay within a line. `wt` and `gx` start on a cache line and
///    every column is a multiple of 16 floats, so each tile's loads are
///    whole lines; left to the heap's placement, split loads moved a
///    prediction's latency by up to 1.4x.
///  - The kernels compile once, in sickle_infer with its flags.
///  - Allocation-free once warm: only precompute_inputs grows its scratch,
///    the first time it sees a longer window.
struct LstmLayer {
  std::size_t in = 0;      ///< input channels per timestep
  std::size_t hidden = 0;  ///< recurrent channels
  std::size_t rows = 0;    ///< 4 * hidden rounded up to a 16-row tile
  LineFloats wt;           ///< column-major [in + hidden, rows]
  std::vector<float> bias;   ///< [rows]; padding rows are zero
  std::vector<float> h, c;   ///< recurrent state, [hidden] each
  std::vector<float> gates;  ///< [rows] pre-activations, then activations
  LineFloats gx;  ///< [steps, rows] bias plus input term per step

  /// Transpose row-major w_x [4H, in] / w_h [4H, H] into the padded
  /// column-major layout, and size the state for H = hidden_size.
  void pack(std::size_t input_width, std::size_t hidden_size,
            const float* w_x, const float* w_h, const float* b);

  void reset() noexcept;

  /// One timestep fed x [in]: sweeps the input and recurrent columns.
  void step(const float* x) noexcept;

  /// The bias plus input term of every timestep of a [steps, in] window,
  /// in one pass: each weight column is loaded once for up to four
  /// timesteps instead of once per timestep, so the sweep runs at FMA
  /// throughput and the sequential recurrent loop touches only the small
  /// [H, 4H] block. This is the wide-input layer's fast path (drag
  /// surrogates: in = 2*ns sensor channels >> H).
  void precompute_inputs(const float* x, std::size_t steps);

  /// One timestep consuming precompute_inputs' result: only the recurrent
  /// columns are swept inside the sequential loop.
  void step_pre(std::size_t t) noexcept;

 private:
  /// Gate activations and the c/h update shared by both step flavors.
  void finish_step() noexcept;
};

}  // namespace sickle::infer
