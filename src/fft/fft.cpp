#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numbers>

#include "common/error.hpp"
#include "common/mathx.hpp"

namespace sickle::fft {

namespace {

/// Lines one 3-D batch transforms together.
constexpr std::size_t kLanes = 8;

/// The tables of one radix-2 transform: where bit reversal sends each
/// element, and every stage's twiddles.
struct Plan {
  std::size_t n = 0;
  bool inverse = false;
  std::vector<std::size_t> rev;  ///< element i lands at rev[i]
  /// Twiddles w^j of the stage whose butterflies span `half` elements
  /// start at index half - 1 (1 + 2 + ... + half/2 entries precede them).
  std::vector<double> wr, wi;
};

Plan make_plan(std::size_t n, bool inverse) {
  Plan p;
  p.n = n;
  p.inverse = inverse;
  p.rev.assign(n, 0);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    p.rev[i] = j;
  }
  // The same w *= wlen recurrence the butterflies always used, so every
  // twiddle carries the same rounding.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const cplx wlen(std::cos(ang), std::sin(ang));
    cplx w(1.0, 0.0);
    for (std::size_t j = 0; j < len / 2; ++j) {
      p.wr.push_back(w.real());
      p.wi.push_back(w.imag());
      w *= wlen;
    }
  }
  return p;
}

/// One thread's plans and split real/imaginary scratch. Both only grow,
/// so a transform allocates nothing once its lengths have been seen, and
/// no two threads share either.
struct Workspace {
  std::deque<Plan> plans;  ///< a deque: references survive later plans
  std::vector<double> re, im;

  const Plan& plan(std::size_t n, bool inverse) {
    for (const Plan& p : plans) {
      if (p.n == n && p.inverse == inverse) return p;
    }
    return plans.emplace_back(make_plan(n, inverse));
  }
};

Workspace& workspace() {
  thread_local Workspace ws;
  return ws;
}

/// Every butterfly of `plan` across W lines held side by side: element i
/// of line l sits at re/im[i * W + l], already in bit-reversed order.
template <std::size_t W>
void butterflies(double* re, double* im, const Plan& plan) {
  const std::size_t n = plan.n;
  for (std::size_t half = 1; half < n; half <<= 1) {
    const double* wr = plan.wr.data() + (half - 1);
    const double* wi = plan.wi.data() + (half - 1);
    for (std::size_t i = 0; i < n; i += 2 * half) {
      for (std::size_t j = 0; j < half; ++j) {
        double* __restrict ar = re + (i + j) * W;
        double* __restrict ai = im + (i + j) * W;
        double* __restrict br = ar + half * W;
        double* __restrict bi = ai + half * W;
        // Every multiply stays, w = 1 included: skipping one can flip the
        // sign of a zero.
        const double c = wr[j];
        const double d = wi[j];
        // The lanes are independent lines: vectorizing across them runs
        // the same operations on each.
#pragma omp simd
        for (std::size_t l = 0; l < W; ++l) {
          // v = b * w as std::complex computes it for finite operands.
          const double vr = br[l] * c - bi[l] * d;
          const double vi = br[l] * d + bi[l] * c;
          const double ur = ar[l];
          const double ui = ai[l];
          ar[l] = ur + vr;
          ai[l] = ui + vi;
          br[l] = ur - vr;
          bi[l] = ui - vi;
        }
      }
    }
  }
}

/// Transforms `lines` (at most W) lines of length plan.n in place: element
/// i of line l is data[l * lane_dist + i * stride]. Lanes past `lines`
/// run on zeros and are dropped.
template <std::size_t W>
void transform_batch(cplx* data, std::size_t lines, std::size_t lane_dist,
                     std::size_t stride, const Plan& plan, Workspace& ws) {
  const std::size_t n = plan.n;
  double* re = ws.re.data();
  double* im = ws.im.data();
  for (std::size_t i = 0; i < n; ++i) {
    const cplx* src = data + i * stride;
    double* dr = re + plan.rev[i] * W;
    double* di = im + plan.rev[i] * W;
    for (std::size_t l = 0; l < lines; ++l) {
      dr[l] = src[l * lane_dist].real();
      di[l] = src[l * lane_dist].imag();
    }
    for (std::size_t l = lines; l < W; ++l) dr[l] = di[l] = 0.0;
  }
  butterflies<W>(re, im, plan);
  // The inverse scales each axis by 1/n, as x *= 1/n on a complex does.
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    cplx* dst = data + i * stride;
    const double* sr = re + i * W;
    const double* si = im + i * W;
    for (std::size_t l = 0; l < lines; ++l) {
      dst[l * lane_dist] = plan.inverse ? cplx(sr[l] * inv_n, si[l] * inv_n)
                                        : cplx(sr[l], si[l]);
    }
  }
}

/// Transforms `count` lines of length n: line c's element i is
/// data[c * lane_dist + i * stride]. Adjacent lines go kLanes at a time.
void transform_lines(cplx* data, std::size_t n, std::size_t stride,
                     std::size_t count, std::size_t lane_dist, bool inverse,
                     Workspace& ws) {
  if (n <= 1) return;
  const Plan& plan = ws.plan(n, inverse);
  for (std::size_t c = 0; c < count; c += kLanes) {
    transform_batch<kLanes>(data + c * lane_dist,
                            std::min(kLanes, count - c), lane_dist, stride,
                            plan, ws);
  }
}

/// Grows the scratch to hold kLanes lines of length n.
void reserve_scratch(Workspace& ws, std::size_t n) {
  if (ws.re.size() < n * kLanes) {
    ws.re.resize(n * kLanes);
    ws.im.resize(n * kLanes);
  }
}

}  // namespace

void transform(std::span<cplx> data, bool inverse) {
  const std::size_t n = data.size();
  SICKLE_CHECK_MSG(is_pow2(n), "FFT length must be a power of two");
  if (n <= 1) return;
  Workspace& ws = workspace();
  reserve_scratch(ws, n);
  transform_batch<1>(data.data(), 1, 0, 1, ws.plan(n, inverse), ws);
}

void transform_3d(std::span<cplx> data, std::size_t nx, std::size_t ny,
                  std::size_t nz, bool inverse) {
  SICKLE_CHECK(data.size() == nx * ny * nz);
  SICKLE_CHECK_MSG(is_pow2(nx) && is_pow2(ny) && is_pow2(nz),
                   "FFT length must be a power of two");
  Workspace& ws = workspace();
  reserve_scratch(ws, std::max({nx, ny, nz}));
  // z lines: contiguous, one per (ix, iy); a batch is 8 consecutive rows.
  transform_lines(data.data(), nz, 1, nx * ny, nz, inverse, ws);
  // y lines: stride nz, one per (ix, iz); a batch is 8 adjacent iz.
  for (std::size_t ix = 0; ix < nx; ++ix) {
    transform_lines(data.data() + ix * ny * nz, ny, nz, nz, 1, inverse, ws);
  }
  // x lines: stride ny*nz, one per (iy, iz); a batch is 8 adjacent columns.
  transform_lines(data.data(), nx, ny * nz, ny * nz, 1, inverse, ws);
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

std::array<std::vector<double>, 3> spectral_gradient_3d(
    std::span<const double> field, std::size_t nx, std::size_t ny,
    std::size_t nz) {
  SICKLE_CHECK(field.size() == nx * ny * nz);
  std::vector<cplx> hat(field.size());
  for (std::size_t i = 0; i < field.size(); ++i) hat[i] = cplx(field[i], 0.0);
  transform_3d(std::span<cplx>(hat), nx, ny, nz, false);

  std::array<std::vector<double>, 3> out;
  const cplx I(0.0, 1.0);
  for (int axis = 0; axis < 3; ++axis) {
    // One buffer per axis, not one kept across the axes: the kept buffer
    // left glibc holding ~11 MB more at the ledger's curate-series peak
    // (152-154 instead of 142 MiB in most runs).
    std::vector<cplx> d(hat.size());
    // The grid as (outer, n, inner) around the axis: bin i of line (o, r)
    // sits at (o * n + i) * inner + r.
    const std::size_t n = (axis == 0) ? nx : (axis == 1) ? ny : nz;
    const std::size_t inner = (axis == 0) ? ny * nz : (axis == 1) ? nz : 1;
    const std::size_t outer = (axis == 0) ? 1 : (axis == 1) ? nx : nx * ny;
    // The Nyquist mode of an odd operator (i*k) must be zeroed for a real
    // result: wavenumber() maps it to -n/2, but the derivative of a real
    // signal at Nyquist is ambiguous. An extent of 1 has no Nyquist bin.
    const std::size_t nyquist = (n < 2) ? n : n / 2;
    for (std::size_t o = 0; o < outer; ++o) {
      for (std::size_t i = 0; i < n; ++i) {
        const cplx ik = I * wavenumber(i, n);
        cplx* dst = d.data() + (o * n + i) * inner;
        const cplx* src = hat.data() + (o * n + i) * inner;
        for (std::size_t r = 0; r < inner; ++r) {
          dst[r] = (i == nyquist) ? cplx(0.0, 0.0) : src[r] * ik;
        }
      }
    }
    transform_3d(std::span<cplx>(d), nx, ny, nz, true);
    out[axis].resize(field.size());
    for (std::size_t i = 0; i < d.size(); ++i) out[axis][i] = d[i].real();
  }
  return out;
}

}  // namespace sickle::fft
