#include "ml/conv3d.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace sickle::ml {

namespace {

struct Dims {
  std::size_t b, c, d, h, w;
  [[nodiscard]] std::size_t volume() const { return d * h * w; }
};

Dims dims_of(const Tensor& t) {
  SICKLE_CHECK_MSG(t.rank() == 5, "conv layers expect [B, C, D, H, W]");
  return {t.dim(0), t.dim(1), t.dim(2), t.dim(3), t.dim(4)};
}

inline std::size_t vox(const Dims& s, std::size_t b, std::size_t c,
                       std::size_t z, std::size_t y, std::size_t x) {
  return (((b * s.c + c) * s.d + z) * s.h + y) * s.w + x;
}

/// The kernel taps [lo, hi) of one axis that land inside [0, extent) from
/// coordinate `at`, where tap t lands on at * stride + t - pad; `first` is
/// where tap lo lands. Empty when no tap lands inside.
struct Taps {
  std::size_t lo = 0, hi = 0, first = 0;
};

Taps clip(std::size_t at, std::size_t stride, std::size_t pad,
          std::size_t kernel, std::size_t extent) {
  const auto start = static_cast<std::ptrdiff_t>(at * stride) -
                     static_cast<std::ptrdiff_t>(pad);
  const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, -start);
  const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(
      static_cast<std::ptrdiff_t>(kernel),
      static_cast<std::ptrdiff_t>(extent) - start);
  if (hi <= lo) return {};
  return {static_cast<std::size_t>(lo), static_cast<std::size_t>(hi),
          static_cast<std::size_t>(start + lo)};
}

/// dst[o][c][r] = src[o][r][c]: moves channels last (rows = channels) and
/// back (cols = channels).
void transpose(const float* src, std::size_t outer, std::size_t rows,
               std::size_t cols, float* dst) {
  for (std::size_t o = 0; o < outer; ++o) {
    const float* s = src + o * rows * cols;
    float* d = dst + o * rows * cols;
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) d[c * rows + r] = s[r * cols + c];
    }
  }
}

std::vector<float> transposed(const Tensor& src, std::size_t outer,
                              std::size_t rows, std::size_t cols) {
  std::vector<float> dst(src.size());
  transpose(src.raw(), outer, rows, cols, dst.data());
  return dst;
}

}  // namespace

Conv3D::Conv3D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding,
               Rng& rng)
    : cin_(in_channels),
      cout_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_("weight",
              Tensor::randn(
                  {out_channels, in_channels, kernel, kernel, kernel}, rng,
                  static_cast<float>(std::sqrt(
                      2.0 / static_cast<double>(in_channels * kernel *
                                                kernel * kernel))))),
      bias_("bias", Tensor::zeros({out_channels})) {
  SICKLE_CHECK(kernel >= 1 && stride >= 1);
  own(weight_);
  own(bias_);
}

Tensor Conv3D::forward(const Tensor& input) {
  const Dims in = dims_of(input);
  SICKLE_CHECK_MSG(in.c == cin_, "Conv3D channel mismatch");
  cached_input_ = input;
  const Dims out{in.b, cout_, out_extent(in.d), out_extent(in.h),
                 out_extent(in.w)};
  Tensor y({out.b, out.c, out.d, out.h, out.w});

  const std::size_t k = kernel_;
  // wt[ic][kz][ky][kx][oc]: each tap's weights across output channels.
  const std::vector<float> wt = transposed(weight_.value, 1, cout_,
                                           cin_ * k * k * k);
  std::vector<float> acc(cout_);
  for (std::size_t b = 0; b < in.b; ++b) {
    for (std::size_t oz = 0; oz < out.d; ++oz) {
      const Taps tz = clip(oz, stride_, padding_, k, in.d);
      for (std::size_t oy = 0; oy < out.h; ++oy) {
        const Taps ty = clip(oy, stride_, padding_, k, in.h);
        for (std::size_t ox = 0; ox < out.w; ++ox) {
          const Taps tx = clip(ox, stride_, padding_, k, in.w);
          std::copy_n(bias_.value.raw(), cout_, acc.data());
          for (std::size_t ic = 0; ic < cin_; ++ic) {
            for (std::size_t kz = tz.lo; kz < tz.hi; ++kz) {
              const std::size_t iz = tz.first + kz - tz.lo;
              for (std::size_t ky = ty.lo; ky < ty.hi; ++ky) {
                const std::size_t iy = ty.first + ky - ty.lo;
                const float* xrow =
                    input.raw() + vox(in, b, ic, iz, iy, tx.first);
                const float* w =
                    wt.data() + (((ic * k + kz) * k + ky) * k) * cout_;
                for (std::size_t kx = tx.lo; kx < tx.hi; ++kx) {
                  const float x = xrow[kx - tx.lo];
                  const float* wk = w + kx * cout_;
#pragma omp simd
                  for (std::size_t oc = 0; oc < cout_; ++oc) {
                    acc[oc] += wk[oc] * x;
                  }
                }
              }
            }
          }
          for (std::size_t oc = 0; oc < cout_; ++oc) {
            y[vox(out, b, oc, oz, oy, ox)] = acc[oc];
          }
        }
      }
    }
  }
  last_flops_ = 2.0 * static_cast<double>(y.size()) *
                static_cast<double>(cin_ * k * k * k) * 3.0;
  return y;
}

Tensor Conv3D::backward(const Tensor& grad_output) {
  const Dims in = dims_of(cached_input_);
  const Dims out = dims_of(grad_output);
  Tensor grad_in({in.b, in.c, in.d, in.h, in.w});
  const std::size_t k = kernel_;
  const std::size_t taps = k * k * k;
  const std::size_t in_vol = in.volume();

  // Channel-last scratch, [b][z][y][x][ic] and [oc][kz][ky][kx][ic], so
  // each tap runs across input channels. The weight gradient is copied in
  // and back out, so its addends keep their order across calls.
  const std::vector<float> xt = transposed(cached_input_, in.b, cin_, in_vol);
  const std::vector<float> wt = transposed(weight_.value, cout_, cin_, taps);
  std::vector<float> gwt = transposed(weight_.grad, cout_, cin_, taps);
  std::vector<float> gxt(xt.size(), 0.0f);
  for (std::size_t b = 0; b < in.b; ++b) {
    for (std::size_t oc = 0; oc < cout_; ++oc) {
      for (std::size_t oz = 0; oz < out.d; ++oz) {
        const Taps tz = clip(oz, stride_, padding_, k, in.d);
        for (std::size_t oy = 0; oy < out.h; ++oy) {
          const Taps ty = clip(oy, stride_, padding_, k, in.h);
          for (std::size_t ox = 0; ox < out.w; ++ox) {
            const float g = grad_output[vox(out, b, oc, oz, oy, ox)];
            if (g == 0.0f) continue;
            bias_.grad[oc] += g;
            // A clipped kx range reaches consecutive input x, so its
            // (kx, ic) lanes are one contiguous run in all four arrays.
            const Taps tx = clip(ox, stride_, padding_, k, in.w);
            const std::size_t run = (tx.hi - tx.lo) * cin_;
            for (std::size_t kz = tz.lo; kz < tz.hi; ++kz) {
              const std::size_t iz = tz.first + kz - tz.lo;
              for (std::size_t ky = ty.lo; ky < ty.hi; ++ky) {
                const std::size_t iy = ty.first + ky - ty.lo;
                const std::size_t at =
                    (b * in_vol + (iz * in.h + iy) * in.w + tx.first) * cin_;
                const std::size_t wat =
                    (oc * taps + (kz * k + ky) * k + tx.lo) * cin_;
                const float* x = xt.data() + at;
                float* gx = gxt.data() + at;
                const float* w = wt.data() + wat;
                float* gw = gwt.data() + wat;
#pragma omp simd
                for (std::size_t i = 0; i < run; ++i) {
                  gw[i] += g * x[i];
                  gx[i] += g * w[i];
                }
              }
            }
          }
        }
      }
    }
  }
  transpose(gwt.data(), cout_, taps, cin_, weight_.grad.raw());
  transpose(gxt.data(), in.b, in_vol, cin_, grad_in.raw());
  return grad_in;
}

double Conv3D::flops() const { return last_flops_; }

ConvTranspose3D::ConvTranspose3D(std::size_t in_channels,
                                 std::size_t out_channels, std::size_t kernel,
                                 std::size_t stride, std::size_t padding,
                                 Rng& rng)
    : cin_(in_channels),
      cout_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_("weight",
              Tensor::randn(
                  {in_channels, out_channels, kernel, kernel, kernel}, rng,
                  static_cast<float>(std::sqrt(
                      2.0 / static_cast<double>(in_channels * kernel *
                                                kernel * kernel))))),
      bias_("bias", Tensor::zeros({out_channels})) {
  SICKLE_CHECK(kernel >= 1 && stride >= 1);
  SICKLE_CHECK_MSG(kernel >= 2 * padding, "transpose conv: kernel < 2*pad");
  own(weight_);
  own(bias_);
}

Tensor ConvTranspose3D::forward(const Tensor& input) {
  const Dims in = dims_of(input);
  SICKLE_CHECK_MSG(in.c == cin_, "ConvTranspose3D channel mismatch");
  cached_input_ = input;
  const Dims out{in.b, cout_, out_extent(in.d), out_extent(in.h),
                 out_extent(in.w)};
  Tensor y({out.b, out.c, out.d, out.h, out.w});
  const std::size_t k = kernel_;
  const std::size_t out_vol = out.volume();

  // Channel-last output [b][z][y][x][oc] and weights [ic][kz][ky][kx][oc].
  // A clipped kx range lands on consecutive output x, so its (kx, oc)
  // outputs are one contiguous run in both.
  std::vector<float> yt(y.size());
  for (std::size_t i = 0; i < out.b * out_vol; ++i) {
    std::copy_n(bias_.value.raw(), cout_, yt.data() + i * cout_);
  }
  const std::vector<float> wt = transposed(weight_.value, cin_, cout_,
                                           k * k * k);
  // Scatter: each input voxel contributes a k^3 patch to the output.
  for (std::size_t b = 0; b < in.b; ++b) {
    for (std::size_t ic = 0; ic < cin_; ++ic) {
      for (std::size_t iz = 0; iz < in.d; ++iz) {
        const Taps tz = clip(iz, stride_, padding_, k, out.d);
        for (std::size_t iy = 0; iy < in.h; ++iy) {
          const Taps ty = clip(iy, stride_, padding_, k, out.h);
          for (std::size_t ix = 0; ix < in.w; ++ix) {
            const float x = input[vox(in, b, ic, iz, iy, ix)];
            if (x == 0.0f) continue;
            const Taps tx = clip(ix, stride_, padding_, k, out.w);
            const std::size_t run = (tx.hi - tx.lo) * cout_;
            for (std::size_t kz = tz.lo; kz < tz.hi; ++kz) {
              const std::size_t oz = tz.first + kz - tz.lo;
              for (std::size_t ky = ty.lo; ky < ty.hi; ++ky) {
                const std::size_t oy = ty.first + ky - ty.lo;
                float* yrow =
                    yt.data() +
                    (((b * out.d + oz) * out.h + oy) * out.w + tx.first) *
                        cout_;
                const float* w =
                    wt.data() +
                    (((ic * k + kz) * k + ky) * k + tx.lo) * cout_;
#pragma omp simd
                for (std::size_t i = 0; i < run; ++i) yrow[i] += x * w[i];
              }
            }
          }
        }
      }
    }
  }
  transpose(yt.data(), out.b, out_vol, cout_, y.raw());
  last_flops_ = 2.0 * static_cast<double>(input.size()) *
                static_cast<double>(cout_ * k * k * k) * 3.0;
  return y;
}

Tensor ConvTranspose3D::backward(const Tensor& grad_output) {
  const Dims in = dims_of(cached_input_);
  const Dims out{in.b, cout_, out_extent(in.d), out_extent(in.h),
                 out_extent(in.w)};
  Tensor grad_in({in.b, in.c, in.d, in.h, in.w});
  const std::size_t k = kernel_;
  const std::size_t taps = k * k * k;
  const std::size_t in_vol = in.volume();

  // Bias grad: sum over all output voxels per channel.
  for (std::size_t b = 0; b < out.b; ++b) {
    for (std::size_t oc = 0; oc < cout_; ++oc) {
      const float* base = grad_output.raw() + vox(out, b, oc, 0, 0, 0);
      const std::size_t n = out.volume();
      float acc = 0.0f;
      for (std::size_t i = 0; i < n; ++i) acc += base[i];
      bias_.grad[oc] += acc;
    }
  }

  // Channel-last scratch, [b][z][y][x][ic] and [oc][kz][ky][kx][ic], so
  // each tap runs across input channels. The weight gradient is copied in
  // and back out, so its addends keep their order across calls.
  const std::vector<float> xt = transposed(cached_input_, in.b, cin_, in_vol);
  const std::vector<float> wt = transposed(weight_.value, 1, cin_,
                                           cout_ * taps);
  std::vector<float> gwt = transposed(weight_.grad, 1, cin_, cout_ * taps);
  std::vector<float> dx(cin_);
  for (std::size_t b = 0; b < in.b; ++b) {
    for (std::size_t iz = 0; iz < in.d; ++iz) {
      const Taps tz = clip(iz, stride_, padding_, k, out.d);
      for (std::size_t iy = 0; iy < in.h; ++iy) {
        const Taps ty = clip(iy, stride_, padding_, k, out.h);
        for (std::size_t ix = 0; ix < in.w; ++ix) {
          const Taps tx = clip(ix, stride_, padding_, k, out.w);
          const float* x =
              xt.data() + (b * in_vol + (iz * in.h + iy) * in.w + ix) * cin_;
          std::fill(dx.begin(), dx.end(), 0.0f);
          for (std::size_t oc = 0; oc < cout_; ++oc) {
            for (std::size_t kz = tz.lo; kz < tz.hi; ++kz) {
              const std::size_t oz = tz.first + kz - tz.lo;
              for (std::size_t ky = ty.lo; ky < ty.hi; ++ky) {
                const std::size_t oy = ty.first + ky - ty.lo;
                const float* grow =
                    grad_output.raw() + vox(out, b, oc, oz, oy, tx.first);
                for (std::size_t kx = tx.lo; kx < tx.hi; ++kx) {
                  const float g = grow[kx - tx.lo];
                  const std::size_t wat =
                      (oc * taps + (kz * k + ky) * k + kx) * cin_;
                  const float* w = wt.data() + wat;
                  float* gw = gwt.data() + wat;
#pragma omp simd
                  for (std::size_t ic = 0; ic < cin_; ++ic) {
                    dx[ic] += g * w[ic];
                    gw[ic] += g * x[ic];
                  }
                }
              }
            }
          }
          for (std::size_t ic = 0; ic < cin_; ++ic) {
            grad_in[vox(in, b, ic, iz, iy, ix)] = dx[ic];
          }
        }
      }
    }
  }
  transpose(gwt.data(), 1, cout_ * taps, cin_, weight_.grad.raw());
  return grad_in;
}

double ConvTranspose3D::flops() const { return last_flops_; }

}  // namespace sickle::ml
