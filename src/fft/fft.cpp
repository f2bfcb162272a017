#include "fft/fft.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/mathx.hpp"

namespace sickle::fft {

namespace {

/// Bit-reversal permutation for a power-of-two length.
void bit_reverse(std::span<cplx> a) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
}

}  // namespace

void transform(std::span<cplx> data, bool inverse) {
  const std::size_t n = data.size();
  SICKLE_CHECK_MSG(is_pow2(n), "FFT length must be a power of two");
  if (n <= 1) return;
  bit_reverse(data);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const cplx wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      cplx w(1.0, 0.0);
      for (std::size_t j = 0; j < len / 2; ++j) {
        const cplx u = data[i + j];
        const cplx v = data[i + j + len / 2] * w;
        data[i + j] = u + v;
        data[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& x : data) x *= inv_n;
  }
}

namespace {

/// Strided transform used to build the 3D FFT: transforms `count` lines
/// of length n with stride `stride`, starting at offsets
/// 0..count-1 * `dist`.
void transform_lines(cplx* data, std::size_t n, std::size_t stride,
                     std::size_t count, std::size_t dist, bool inverse) {
  std::vector<cplx> line(n);
  for (std::size_t c = 0; c < count; ++c) {
    cplx* base = data + c * dist;
    if (stride == 1) {
      transform(std::span<cplx>(base, n), inverse);
    } else {
      for (std::size_t i = 0; i < n; ++i) line[i] = base[i * stride];
      transform(std::span<cplx>(line), inverse);
      for (std::size_t i = 0; i < n; ++i) base[i * stride] = line[i];
    }
  }
}

}  // namespace

void transform_3d(std::span<cplx> data, std::size_t nx, std::size_t ny,
                  std::size_t nz, bool inverse) {
  SICKLE_CHECK(data.size() == nx * ny * nz);
  // z lines: contiguous, one per (ix, iy).
  transform_lines(data.data(), nz, 1, nx * ny, nz, inverse);
  // y lines: stride nz, one per (ix, iz).
  for (std::size_t ix = 0; ix < nx; ++ix) {
    for (std::size_t iz = 0; iz < nz; ++iz) {
      transform_lines(data.data() + ix * ny * nz + iz, ny, nz, 1, 0, inverse);
    }
  }
  // x lines: stride ny*nz, one per (iy, iz).
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t iz = 0; iz < nz; ++iz) {
      transform_lines(data.data() + iy * nz + iz, nx, ny * nz, 1, 0, inverse);
    }
  }
}

std::vector<double> poisson_solve_3d(std::span<const double> rhs,
                                     std::size_t nx, std::size_t ny,
                                     std::size_t nz) {
  SICKLE_CHECK(rhs.size() == nx * ny * nz);
  std::vector<cplx> hat(rhs.size());
  for (std::size_t i = 0; i < rhs.size(); ++i) hat[i] = cplx(rhs[i], 0.0);
  transform_3d(std::span<cplx>(hat), nx, ny, nz, false);

  for (std::size_t ix = 0; ix < nx; ++ix) {
    const double kx = wavenumber(ix, nx);
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const double ky = wavenumber(iy, ny);
      for (std::size_t iz = 0; iz < nz; ++iz) {
        const double kz = wavenumber(iz, nz);
        const double k2 = kx * kx + ky * ky + kz * kz;
        const std::size_t idx = (ix * ny + iy) * nz + iz;
        // Gauge: zero-mean solution (k = 0 mode removed).
        hat[idx] = (k2 > 0.0) ? hat[idx] / (-k2) : cplx(0.0, 0.0);
      }
    }
  }

  transform_3d(std::span<cplx>(hat), nx, ny, nz, true);
  std::vector<double> out(rhs.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = hat[i].real();
  return out;
}

std::vector<double> spectral_derivative_3d(std::span<const double> field,
                                           std::size_t nx, std::size_t ny,
                                           std::size_t nz, int axis) {
  SICKLE_CHECK(field.size() == nx * ny * nz);
  SICKLE_CHECK(axis >= 0 && axis <= 2);
  std::vector<cplx> hat(field.size());
  for (std::size_t i = 0; i < field.size(); ++i) hat[i] = cplx(field[i], 0.0);
  transform_3d(std::span<cplx>(hat), nx, ny, nz, false);

  const cplx I(0.0, 1.0);
  for (std::size_t ix = 0; ix < nx; ++ix) {
    const double kx = wavenumber(ix, nx);
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const double ky = wavenumber(iy, ny);
      for (std::size_t iz = 0; iz < nz; ++iz) {
        const double kz = wavenumber(iz, nz);
        const double k = (axis == 0) ? kx : (axis == 1) ? ky : kz;
        const std::size_t idx = (ix * ny + iy) * nz + iz;
        hat[idx] *= I * k;
      }
    }
  }
  // The Nyquist mode of an odd operator (i*k) must be zeroed for a real
  // result; wavenumber() maps it to -n/2 which is fine for magnitude but
  // the derivative of a real signal at Nyquist is ambiguous. Zero it.
  auto zero_nyquist = [&](int ax) {
    const std::size_t n = (ax == 0) ? nx : (ax == 1) ? ny : nz;
    if (n < 2) return;
    const std::size_t half = n / 2;
    for (std::size_t ix = 0; ix < nx; ++ix) {
      for (std::size_t iy = 0; iy < ny; ++iy) {
        for (std::size_t iz = 0; iz < nz; ++iz) {
          const std::size_t i_ax = (ax == 0) ? ix : (ax == 1) ? iy : iz;
          if (i_ax == half) hat[(ix * ny + iy) * nz + iz] = cplx(0.0, 0.0);
        }
      }
    }
  };
  zero_nyquist(axis);

  transform_3d(std::span<cplx>(hat), nx, ny, nz, true);
  std::vector<double> out(field.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = hat[i].real();
  return out;
}

}  // namespace sickle::fft
