// Minimal self-contained FFT for spectral turbulence synthesis.
//
// The paper's GESTS substrate is a Fourier pseudo-spectral DNS code; our
// synthetic isotropic/stratified generators and the spectral pressure
// Poisson solve need multidimensional FFTs. FFTW is not available offline,
// so this module implements an iterative radix-2 Cooley–Tukey transform —
// all SICKLE grids are power-of-two sized by construction.
//
// Conventions: forward transform has no normalization; inverse divides by N
// (so inverse(forward(x)) == x).
#pragma once

#include <array>
#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace sickle::fft {

using cplx = std::complex<double>;

/// In-place forward/inverse radix-2 FFT. data.size() must be a power of two.
void transform(std::span<cplx> data, bool inverse);

/// Convenience forward/inverse wrappers.
inline void forward(std::span<cplx> data) { transform(data, false); }
inline void inverse(std::span<cplx> data) { transform(data, true); }

/// 3D FFT over a contiguous nz-fastest array: index = (ix*ny + iy)*nz + iz.
/// All three extents must be powers of two.
void transform_3d(std::span<cplx> data, std::size_t nx, std::size_t ny,
                  std::size_t nz, bool inverse);

/// Signed integer wavenumber for FFT bin i of an n-point transform:
/// 0,1,...,n/2-1, -n/2, ..., -1.
[[nodiscard]] inline double wavenumber(std::size_t i, std::size_t n) noexcept {
  return (i <= n / 2 - 1 || n <= 1) ? static_cast<double>(i)
                                    : static_cast<double>(i) -
                                          static_cast<double>(n);
}

/// Solve the periodic Poisson equation lap(u) = rhs on an nx*ny*nz grid of
/// physical extent (2*pi)^3 via diagonalization in Fourier space. The mean
/// mode is gauged to zero. rhs and the result are real fields stored
/// nz-fastest.
[[nodiscard]] std::vector<double> poisson_solve_3d(std::span<const double> rhs,
                                                   std::size_t nx,
                                                   std::size_t ny,
                                                   std::size_t nz);

/// Spectral derivative of a real periodic field along the given axis
/// (0 = x slowest, 2 = z fastest); domain extent 2*pi per axis.
[[nodiscard]] std::vector<double> spectral_derivative_3d(
    std::span<const double> field, std::size_t nx, std::size_t ny,
    std::size_t nz, int axis);

}  // namespace sickle::fft
