// Minimal self-contained FFT for spectral turbulence synthesis.
//
// The paper's GESTS substrate is a Fourier pseudo-spectral DNS code; our
// synthetic isotropic/stratified generators and the spectral pressure
// Poisson solve need multidimensional FFTs. FFTW is not available offline,
// so this module implements an iterative radix-2 Cooley–Tukey transform —
// all SICKLE grids are power-of-two sized by construction.
//
// Conventions: forward transform has no normalization; inverse divides by N
// (so inverse(forward(x)) == x). transform_3d divides by each axis's
// length in turn.
//
// Kernel: transform_3d moves 8 adjacent lines at a time into split real
// and imaginary scratch (element i of line l at [i * 8 + l], gathered in
// bit-reversed order) and runs every butterfly across all 8, on each of
// the three axes; the 1-D transform runs the same butterflies on one
// line. The bit-reversal permutation and each stage's twiddles are a plan
// built once per (length, direction). Plans and scratch live in one
// thread_local workspace that only grows, so a transform allocates nothing
// once its lengths have been seen, and concurrent callers share no state.
//
// Arithmetic contract: results are bit-identical to the textbook in-place
// loop over std::complex<double>. Each butterfly does the same operations
// on the same operands: v = b * w written out as (ac - bd, ad + bc), which
// is what std::complex computes for finite operands; u + v and u - v; and
// the inverse's x *= 1/n. Twiddles come from the same w *= wlen
// recurrence, and the multiply by w = 1 is kept, since skipping it can
// flip the sign of a zero. This holds only while sickle_fft builds without
// -ffast-math, -march or FMA contraction.
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

/// Spectral gradient of a real periodic field: {d/dx, d/dy, d/dz} (x
/// slowest, z fastest), domain extent 2*pi per axis. One forward transform
/// serves all three inverse ones.
[[nodiscard]] std::array<std::vector<double>, 3> spectral_gradient_3d(
    std::span<const double> field, std::size_t nx, std::size_t ny,
    std::size_t nz);

}  // namespace sickle::fft
