#include "ml/conv3d.hpp"

#include <cmath>

namespace sickle::ml {

namespace {

struct Dims {
  std::size_t b, c, d, h, w;
};

Dims dims_of(const Tensor& t) {
  SICKLE_CHECK_MSG(t.rank() == 5, "conv layers expect [B, C, D, H, W]");
  return {t.dim(0), t.dim(1), t.dim(2), t.dim(3), t.dim(4)};
}

inline std::size_t vox(const Dims& s, std::size_t b, std::size_t c,
                       std::size_t z, std::size_t y, std::size_t x) {
  return (((b * s.c + c) * s.d + z) * s.h + y) * s.w + x;
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
  const auto p = static_cast<std::ptrdiff_t>(padding_);
  for (std::size_t b = 0; b < in.b; ++b) {
    for (std::size_t oc = 0; oc < cout_; ++oc) {
      for (std::size_t oz = 0; oz < out.d; ++oz) {
        for (std::size_t oy = 0; oy < out.h; ++oy) {
          for (std::size_t ox = 0; ox < out.w; ++ox) {
            float acc = bias_.value[oc];
            for (std::size_t ic = 0; ic < cin_; ++ic) {
              for (std::size_t kz = 0; kz < k; ++kz) {
                const std::ptrdiff_t iz =
                    static_cast<std::ptrdiff_t>(oz * stride_ + kz) - p;
                if (iz < 0 || iz >= static_cast<std::ptrdiff_t>(in.d))
                  continue;
                for (std::size_t ky = 0; ky < k; ++ky) {
                  const std::ptrdiff_t iy =
                      static_cast<std::ptrdiff_t>(oy * stride_ + ky) - p;
                  if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in.h))
                    continue;
                  for (std::size_t kx = 0; kx < k; ++kx) {
                    const std::ptrdiff_t ix =
                        static_cast<std::ptrdiff_t>(ox * stride_ + kx) - p;
                    if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(in.w))
                      continue;
                    acc += weight_.value[(((oc * cin_ + ic) * k + kz) * k +
                                          ky) * k + kx] *
                           input[vox(in, b, ic, static_cast<std::size_t>(iz),
                                     static_cast<std::size_t>(iy),
                                     static_cast<std::size_t>(ix))];
                  }
                }
              }
            }
            y[vox(out, b, oc, oz, oy, ox)] = acc;
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
  const auto p = static_cast<std::ptrdiff_t>(padding_);

  for (std::size_t b = 0; b < in.b; ++b) {
    for (std::size_t oc = 0; oc < cout_; ++oc) {
      for (std::size_t oz = 0; oz < out.d; ++oz) {
        for (std::size_t oy = 0; oy < out.h; ++oy) {
          for (std::size_t ox = 0; ox < out.w; ++ox) {
            const float g = grad_output[vox(out, b, oc, oz, oy, ox)];
            if (g == 0.0f) continue;
            bias_.grad[oc] += g;
            for (std::size_t ic = 0; ic < cin_; ++ic) {
              for (std::size_t kz = 0; kz < k; ++kz) {
                const std::ptrdiff_t iz =
                    static_cast<std::ptrdiff_t>(oz * stride_ + kz) - p;
                if (iz < 0 || iz >= static_cast<std::ptrdiff_t>(in.d))
                  continue;
                for (std::size_t ky = 0; ky < k; ++ky) {
                  const std::ptrdiff_t iy =
                      static_cast<std::ptrdiff_t>(oy * stride_ + ky) - p;
                  if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in.h))
                    continue;
                  for (std::size_t kx = 0; kx < k; ++kx) {
                    const std::ptrdiff_t ix =
                        static_cast<std::ptrdiff_t>(ox * stride_ + kx) - p;
                    if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(in.w))
                      continue;
                    const std::size_t widx =
                        (((oc * cin_ + ic) * k + kz) * k + ky) * k + kx;
                    const std::size_t iidx =
                        vox(in, b, ic, static_cast<std::size_t>(iz),
                            static_cast<std::size_t>(iy),
                            static_cast<std::size_t>(ix));
                    weight_.grad[widx] += g * cached_input_[iidx];
                    grad_in[iidx] += g * weight_.value[widx];
                  }
                }
              }
            }
          }
        }
      }
    }
  }
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
  for (std::size_t b = 0; b < out.b; ++b) {
    for (std::size_t oc = 0; oc < cout_; ++oc) {
      float* base = y.raw() + vox(out, b, oc, 0, 0, 0);
      const std::size_t n = out.d * out.h * out.w;
      for (std::size_t i = 0; i < n; ++i) base[i] = bias_.value[oc];
    }
  }

  const std::size_t k = kernel_;
  const auto p = static_cast<std::ptrdiff_t>(padding_);
  // Scatter: each input voxel contributes a k^3 patch to the output.
  for (std::size_t b = 0; b < in.b; ++b) {
    for (std::size_t ic = 0; ic < cin_; ++ic) {
      for (std::size_t iz = 0; iz < in.d; ++iz) {
        for (std::size_t iy = 0; iy < in.h; ++iy) {
          for (std::size_t ix = 0; ix < in.w; ++ix) {
            const float x = cached_input_[vox(in, b, ic, iz, iy, ix)];
            if (x == 0.0f) continue;
            for (std::size_t oc = 0; oc < cout_; ++oc) {
              for (std::size_t kz = 0; kz < k; ++kz) {
                const std::ptrdiff_t oz =
                    static_cast<std::ptrdiff_t>(iz * stride_ + kz) - p;
                if (oz < 0 || oz >= static_cast<std::ptrdiff_t>(out.d))
                  continue;
                for (std::size_t ky = 0; ky < k; ++ky) {
                  const std::ptrdiff_t oy =
                      static_cast<std::ptrdiff_t>(iy * stride_ + ky) - p;
                  if (oy < 0 || oy >= static_cast<std::ptrdiff_t>(out.h))
                    continue;
                  for (std::size_t kx = 0; kx < k; ++kx) {
                    const std::ptrdiff_t ox =
                        static_cast<std::ptrdiff_t>(ix * stride_ + kx) - p;
                    if (ox < 0 || ox >= static_cast<std::ptrdiff_t>(out.w))
                      continue;
                    y[vox(out, b, oc, static_cast<std::size_t>(oz),
                          static_cast<std::size_t>(oy),
                          static_cast<std::size_t>(ox))] +=
                        x * weight_.value[(((ic * cout_ + oc) * k + kz) * k +
                                           ky) * k + kx];
                  }
                }
              }
            }
          }
        }
      }
    }
  }
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
  const auto p = static_cast<std::ptrdiff_t>(padding_);

  // Bias grad: sum over all output voxels per channel.
  for (std::size_t b = 0; b < out.b; ++b) {
    for (std::size_t oc = 0; oc < cout_; ++oc) {
      const float* base = grad_output.raw() + vox(out, b, oc, 0, 0, 0);
      const std::size_t n = out.d * out.h * out.w;
      float acc = 0.0f;
      for (std::size_t i = 0; i < n; ++i) acc += base[i];
      bias_.grad[oc] += acc;
    }
  }

  for (std::size_t b = 0; b < in.b; ++b) {
    for (std::size_t ic = 0; ic < cin_; ++ic) {
      for (std::size_t iz = 0; iz < in.d; ++iz) {
        for (std::size_t iy = 0; iy < in.h; ++iy) {
          for (std::size_t ix = 0; ix < in.w; ++ix) {
            const std::size_t iidx = vox(in, b, ic, iz, iy, ix);
            const float x = cached_input_[iidx];
            float dx = 0.0f;
            for (std::size_t oc = 0; oc < cout_; ++oc) {
              for (std::size_t kz = 0; kz < k; ++kz) {
                const std::ptrdiff_t oz =
                    static_cast<std::ptrdiff_t>(iz * stride_ + kz) - p;
                if (oz < 0 || oz >= static_cast<std::ptrdiff_t>(out.d))
                  continue;
                for (std::size_t ky = 0; ky < k; ++ky) {
                  const std::ptrdiff_t oy =
                      static_cast<std::ptrdiff_t>(iy * stride_ + ky) - p;
                  if (oy < 0 || oy >= static_cast<std::ptrdiff_t>(out.h))
                    continue;
                  for (std::size_t kx = 0; kx < k; ++kx) {
                    const std::ptrdiff_t ox =
                        static_cast<std::ptrdiff_t>(ix * stride_ + kx) - p;
                    if (ox < 0 || ox >= static_cast<std::ptrdiff_t>(out.w))
                      continue;
                    const std::size_t widx =
                        (((ic * cout_ + oc) * k + kz) * k + ky) * k + kx;
                    const float g =
                        grad_output[vox(out, b, oc,
                                        static_cast<std::size_t>(oz),
                                        static_cast<std::size_t>(oy),
                                        static_cast<std::size_t>(ox))];
                    dx += g * weight_.value[widx];
                    weight_.grad[widx] += g * x;
                  }
                }
              }
            }
            grad_in[iidx] = dx;
          }
        }
      }
    }
  }
  return grad_in;
}

double ConvTranspose3D::flops() const { return last_flops_; }

}  // namespace sickle::ml
