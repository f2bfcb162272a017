// The LSTM layer's kernels. They compile here once, with sickle_infer's
// flags, so every engine runs the same machine code whatever includes
// layers.hpp.
#include "infer/layers.hpp"

#include <algorithm>

namespace sickle::infer {

namespace {

constexpr std::size_t kMinTile = 16;  ///< `rows` is a multiple of this

/// Gate rows [r, r + W) of one timestep, for each whole W-row tile left
/// from r: out = init, plus the nx columns of `cols` against x, then the
/// next nh columns against h, each in ascending j. Advances r past the
/// tiles done.
template <std::size_t W>
void sweep_tiles(std::size_t& r, std::size_t rows, const float* init,
                 const float* cols, const float* x, std::size_t nx,
                 const float* h, std::size_t nh, float* out) noexcept {
  for (; r + W <= rows; r += W) {
    float acc[W];
    std::copy(init + r, init + r + W, acc);
    for (std::size_t j = 0; j < nx; ++j) {
      const float* wc = cols + j * rows + r;
      const float zj = x[j];
#pragma omp simd
      for (std::size_t k = 0; k < W; ++k) acc[k] += wc[k] * zj;
    }
    for (std::size_t j = 0; j < nh; ++j) {
      const float* wc = cols + (nx + j) * rows + r;
      const float zj = h[j];
#pragma omp simd
      for (std::size_t k = 0; k < W; ++k) acc[k] += wc[k] * zj;
    }
    std::copy(acc, acc + W, out + r);
  }
}

/// All `rows` gate rows of one timestep, widest tiles first.
void sweep(std::size_t rows, const float* init, const float* cols,
           const float* x, std::size_t nx, const float* h, std::size_t nh,
           float* out) noexcept {
  std::size_t r = 0;
  sweep_tiles<64>(r, rows, init, cols, x, nx, h, nh, out);
  sweep_tiles<32>(r, rows, init, cols, x, nx, h, nh, out);
  sweep_tiles<kMinTile>(r, rows, init, cols, x, nx, h, nh, out);
}

/// T timesteps' input terms for each whole W-row tile left from r: T*W
/// accumulators, each weight column loaded once and fused against T
/// broadcast input scalars; the bias is added once at the end.
template <std::size_t T, std::size_t W>
void pre_tiles(std::size_t& r, const LstmLayer& l, const float* x,
               float* out) noexcept {
  for (; r + W <= l.rows; r += W) {
    float acc[T][W] = {};
    for (std::size_t j = 0; j < l.in; ++j) {
      const float* wc = l.wt.data() + j * l.rows + r;
      for (std::size_t tt = 0; tt < T; ++tt) {
        const float xt = x[tt * l.in + j];
#pragma omp simd
        for (std::size_t k = 0; k < W; ++k) acc[tt][k] += wc[k] * xt;
      }
    }
    for (std::size_t tt = 0; tt < T; ++tt) {
      for (std::size_t k = 0; k < W; ++k) {
        out[tt * l.rows + r + k] = l.bias[r + k] + acc[tt][k];
      }
    }
  }
}

/// T timesteps' gx rows, widest tiles first.
template <std::size_t T>
void pre_block(const LstmLayer& l, const float* x, float* out) noexcept {
  std::size_t r = 0;
  pre_tiles<T, 64>(r, l, x, out);
  pre_tiles<T, 32>(r, l, x, out);
  pre_tiles<T, kMinTile>(r, l, x, out);
}

}  // namespace

void LstmLayer::pack(std::size_t input_width, std::size_t hidden_size,
                     const float* w_x, const float* w_h, const float* b) {
  in = input_width;
  hidden = hidden_size;
  const std::size_t R = 4 * hidden;
  rows = (R + kMinTile - 1) / kMinTile * kMinTile;
  wt.assign((in + hidden) * rows, 0.0f);
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t j = 0; j < in; ++j) {
      wt[j * rows + r] = w_x[r * in + j];
    }
    for (std::size_t j = 0; j < hidden; ++j) {
      wt[(in + j) * rows + r] = w_h[r * hidden + j];
    }
  }
  bias.assign(rows, 0.0f);
  std::copy(b, b + R, bias.begin());
  h.assign(hidden, 0.0f);
  c.assign(hidden, 0.0f);
  gates.assign(rows, 0.0f);
  gx.clear();
}

void LstmLayer::reset() noexcept {
  std::fill(h.begin(), h.end(), 0.0f);
  std::fill(c.begin(), c.end(), 0.0f);
}

void LstmLayer::step(const float* x) noexcept {
  sweep(rows, bias.data(), wt.data(), x, in, h.data(), hidden,
        gates.data());
  finish_step();
}

void LstmLayer::precompute_inputs(const float* x, std::size_t steps) {
  if (gx.size() < steps * rows) gx.resize(steps * rows);
  std::size_t t = 0;
  for (; t + 4 <= steps; t += 4) {
    pre_block<4>(*this, x + t * in, gx.data() + t * rows);
  }
  // Remainders get their own instantiations: a data-dependent timestep
  // count defeats the vectorizer.
  switch (steps - t) {
    case 3: pre_block<3>(*this, x + t * in, gx.data() + t * rows); break;
    case 2: pre_block<2>(*this, x + t * in, gx.data() + t * rows); break;
    case 1: pre_block<1>(*this, x + t * in, gx.data() + t * rows); break;
    default: break;
  }
}

void LstmLayer::step_pre(std::size_t t) noexcept {
  sweep(rows, gx.data() + t * rows, wt.data() + in * rows, nullptr, 0,
        h.data(), hidden, gates.data());
  finish_step();
}

void LstmLayer::finish_step() noexcept {
  const std::size_t H = hidden;
  float* ig = gates.data();
  float* fg = ig + H;
  float* gg = fg + H;
  float* og = gg + H;
  sigmoid_inplace(ig, 2 * H);  // i and f are adjacent segments
  tanh_inplace(gg, H);
  sigmoid_inplace(og, H);
#pragma omp simd
  for (std::size_t j = 0; j < H; ++j) {
    c[j] = fg[j] * c[j] + ig[j] * gg[j];
    gg[j] = c[j];  // the spent g gate takes tanh(c)
  }
  tanh_inplace(gg, H);
#pragma omp simd
  for (std::size_t j = 0; j < H; ++j) h[j] = og[j] * gg[j];
}

}  // namespace sickle::infer
