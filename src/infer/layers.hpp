// Compile-time-sized inference kernels: the flat-storage building blocks
// the surrogate variant ladder (engine.hpp) is assembled from.
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

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
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

/// Scalar reference sigmoid (libm), used where bit-parity with the
/// training path matters more than throughput.
[[nodiscard]] inline float sigmoidf(float x) noexcept {
  return 1.0f / (1.0f + std::exp(-x));
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

/// One LSTM layer with a statically-known hidden extent H: the recurrent
/// state and the gate scratch live in flat std::arrays sized at compile
/// time, so the update loops have constant trip counts and the state
/// stays in L1 across timesteps. The input extent stays dynamic — drag
/// surrogates see 2*ns sensor channels, which varies per case.
///
/// Weights are stored COLUMN-major: wt[j * 4H + r] holds input j's
/// coefficient for gate row r, with the recurrent block appended as
/// columns [in, in+H). Every matvec is then an axpy sweep over columns —
/// gates[0..4H) += column_j * z_j — whose inner loop is the compile-time
/// 4H gate dimension. That kills the per-row horizontal reductions of
/// the dot-product form, which dominate at LSTM row lengths (a [4H=64,
/// H=16] recurrent update measures ~20x faster column-major: 64
/// 16-float dots are almost all reduction latency, 16 64-float axpys
/// are almost all FMA throughput).
///
/// Semantics replicate ml::Lstm: gate order i|f|g|o, zero initial state,
///   c = f*c_prev + i*g;  h = o*tanh(c)
/// with sums re-associated and activations through the polynomial exp
/// (both ~1e-7 deviations; parity is asserted at the engine level).
template <int H>
struct LstmLayerT {
  static_assert(H >= 1);
  static constexpr int R = 4 * H;  ///< gate rows
  std::vector<float> wt;  ///< column-major [in + H, 4H]; cols [in,in+H) = w_h
  std::array<float, R> bias{};
  std::size_t in = 0;

  std::array<float, H> hst{};  ///< hidden state h_t
  std::array<float, H> c{};
  std::array<float, R> gates{};
  std::array<float, H> h_tanh{};  ///< tanh(c) scratch

  /// Transpose row-major w_x [4H, in] / w_h [4H, H] into the fused
  /// column-major layout.
  void pack(std::size_t input_width, const float* w_x, const float* w_h,
            const float* b) {
    in = input_width;
    wt.assign((in + H) * R, 0.0f);
    for (std::size_t r = 0; r < static_cast<std::size_t>(R); ++r) {
      for (std::size_t j = 0; j < in; ++j) {
        wt[j * R + r] = w_x[r * in + j];
      }
      for (std::size_t j = 0; j < static_cast<std::size_t>(H); ++j) {
        wt[(in + j) * R + r] = w_h[r * H + j];
      }
    }
    for (std::size_t r = 0; r < static_cast<std::size_t>(R); ++r) {
      bias[r] = b[r];
    }
  }

  [[nodiscard]] const float* h() const noexcept { return hst.data(); }

  void reset() noexcept {
    hst.fill(0.0f);
    c.fill(0.0f);
  }

  void step(const float* x) noexcept {
    float acc[R];
    for (int k = 0; k < R; ++k) acc[k] = bias[k];
    axpy_cols(acc, wt.data(), x, in);
    axpy_cols(acc, wt.data() + in * R, hst.data(),
              static_cast<std::size_t>(H));
    std::copy(acc, acc + R, gates.data());
    finish_step();
  }

  /// Input-weight contributions for a whole [steps, in] window in one
  /// pass: gx[t * 4H + r] = w_x row r . x_t. Each weight column is
  /// loaded once for up to four timesteps instead of once per timestep,
  /// so the sweep runs at FMA throughput; the sequential recurrent loop
  /// then touches only the small [H, 4H] block. This is the wide-input
  /// layer's fast path (drag surrogates: in = 2*ns sensor channels
  /// >> H).
  void precompute_inputs(const float* x, std::size_t steps) {
    if (gx.size() < steps * R) gx.resize(steps * R);
    std::size_t t = 0;
    for (; t + 4 <= steps; t += 4) {
      pre_block<4>(x + t * in, gx.data() + t * R);
    }
    switch (steps - t) {
      case 3: pre_block<3>(x + t * in, gx.data() + t * R); break;
      case 2: pre_block<2>(x + t * in, gx.data() + t * R); break;
      case 1: pre_block<1>(x + t * in, gx.data() + t * R); break;
      default: break;
    }
  }

  /// One timestep consuming precompute_inputs' result: only the
  /// recurrent columns are swept inside the sequential loop.
  void step_pre(std::size_t t) noexcept {
    float acc[R];
    const float* gxt = gx.data() + t * R;
    for (int k = 0; k < R; ++k) acc[k] = bias[k] + gxt[k];
    axpy_cols(acc, wt.data() + in * R, hst.data(),
              static_cast<std::size_t>(H));
    std::copy(acc, acc + R, gates.data());
    finish_step();
  }

 private:
  std::vector<float> gx;  ///< [steps, 4H] input-gate pre-activations

  /// acc[0..4H) += sum_j cols[j] * z[j]; the accumulators live in
  /// registers across the whole sweep (4H floats = a handful of vector
  /// registers).
  static void axpy_cols(float* acc, const float* cols, const float* z,
                        std::size_t n) noexcept {
    for (std::size_t j = 0; j < n; ++j) {
      const float zj = z[j];
      const float* wc = cols + j * R;
#pragma omp simd
      for (int k = 0; k < R; ++k) acc[k] += wc[k] * zj;
    }
  }

  /// T timesteps' input contributions in one weight sweep: T*4H
  /// accumulators (T <= 4 keeps them in registers), each column loaded
  /// once and fused against T broadcast input scalars.
  template <int T>
  void pre_block(const float* x, float* out) noexcept {
    float acc[T][R] = {};
    for (std::size_t j = 0; j < in; ++j) {
      const float* wc = wt.data() + j * R;
      for (int tt = 0; tt < T; ++tt) {
        const float xt = x[static_cast<std::size_t>(tt) * in + j];
#pragma omp simd
        for (int k = 0; k < R; ++k) acc[tt][k] += wc[k] * xt;
      }
    }
    for (int tt = 0; tt < T; ++tt) {
      std::copy(acc[tt], acc[tt] + R, out + tt * R);
    }
  }

  /// Gate activations and the c/h update shared by both step flavors.
  void finish_step() noexcept {
    float* ig = gates.data();
    float* fg = ig + H;
    float* gg = fg + H;
    float* og = gg + H;
    sigmoid_inplace(ig, 2 * H);  // i and f are adjacent segments
    tanh_inplace(gg, H);
    sigmoid_inplace(og, H);
#pragma omp simd
    for (std::size_t j = 0; j < static_cast<std::size_t>(H); ++j) {
      c[j] = fg[j] * c[j] + ig[j] * gg[j];
      h_tanh[j] = c[j];
    }
    tanh_inplace(h_tanh.data(), H);
#pragma omp simd
    for (std::size_t j = 0; j < static_cast<std::size_t>(H); ++j) {
      hst[j] = og[j] * h_tanh[j];
    }
  }
};

}  // namespace sickle::infer
