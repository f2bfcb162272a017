// Unit tests: FFT, Poisson solve, spectral derivatives.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fft/fft.hpp"

namespace sickle::fft {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(Fft, RoundTripIdentity) {
  Rng rng(1);
  std::vector<cplx> data(256);
  for (auto& x : data) x = cplx(rng.normal(), rng.normal());
  auto copy = data;
  forward(std::span<cplx>(data));
  inverse(std::span<cplx>(data));
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), copy[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag(), copy[i].imag(), 1e-10);
  }
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<cplx> data(12);
  EXPECT_THROW(forward(std::span<cplx>(data)), CheckError);
}

TEST(Fft, DeltaTransformsToConstant) {
  std::vector<cplx> data(64, cplx(0, 0));
  data[0] = cplx(1, 0);
  forward(std::span<cplx>(data));
  for (const auto& x : data) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SinusoidPeaksAtItsFrequency) {
  const std::size_t n = 128;
  std::vector<cplx> data(n);
  const int k = 5;
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = cplx(std::cos(2.0 * kPi * k * static_cast<double>(i) / n), 0.0);
  }
  forward(std::span<cplx>(data));
  // cos -> two peaks of magnitude n/2 at bins k and n-k.
  EXPECT_NEAR(std::abs(data[k]), n / 2.0, 1e-8);
  EXPECT_NEAR(std::abs(data[n - k]), n / 2.0, 1e-8);
  for (std::size_t i = 0; i < n; ++i) {
    if (i != static_cast<std::size_t>(k) && i != n - k) {
      EXPECT_LT(std::abs(data[i]), 1e-8);
    }
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(2);
  const std::size_t n = 512;
  std::vector<cplx> data(n);
  double time_energy = 0.0;
  for (auto& x : data) {
    x = cplx(rng.normal(), 0.0);
    time_energy += std::norm(x);
  }
  forward(std::span<cplx>(data));
  double freq_energy = 0.0;
  for (const auto& x : data) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-6);
}

TEST(Fft, RoundTrip3D) {
  Rng rng(4);
  const std::size_t nx = 8, ny = 4, nz = 16;
  std::vector<cplx> data(nx * ny * nz);
  for (auto& x : data) x = cplx(rng.normal(), 0.0);
  auto copy = data;
  transform_3d(std::span<cplx>(data), nx, ny, nz, false);
  transform_3d(std::span<cplx>(data), nx, ny, nz, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), copy[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag(), 0.0, 1e-10);
  }
}

TEST(Fft, WavenumberMapping) {
  EXPECT_DOUBLE_EQ(wavenumber(0, 8), 0.0);
  EXPECT_DOUBLE_EQ(wavenumber(3, 8), 3.0);
  EXPECT_DOUBLE_EQ(wavenumber(4, 8), -4.0);
  EXPECT_DOUBLE_EQ(wavenumber(7, 8), -1.0);
}

TEST(Fft, SpectralDerivativeOfSine) {
  const std::size_t n = 32;
  std::vector<double> f(n * n * n);
  for (std::size_t ix = 0; ix < n; ++ix) {
    const double x = 2.0 * kPi * static_cast<double>(ix) / n;
    for (std::size_t iy = 0; iy < n; ++iy) {
      for (std::size_t iz = 0; iz < n; ++iz) {
        f[(ix * n + iy) * n + iz] = std::sin(2.0 * x);
      }
    }
  }
  const auto df = spectral_derivative_3d(f, n, n, n, 0);
  for (std::size_t ix = 0; ix < n; ++ix) {
    const double x = 2.0 * kPi * static_cast<double>(ix) / n;
    EXPECT_NEAR(df[(ix * n) * n], 2.0 * std::cos(2.0 * x), 1e-8);
  }
}

TEST(Fft, PoissonSolveInvertsLaplacian) {
  // u = sin(x) cos(2y) => lap u = -(1 + 4) u = -5u. Feed rhs = -5u and
  // expect u back (zero-mean gauge holds since u has no k=0 component).
  const std::size_t n = 16;
  std::vector<double> u(n * n * n), rhs(n * n * n);
  for (std::size_t ix = 0; ix < n; ++ix) {
    const double x = 2.0 * kPi * static_cast<double>(ix) / n;
    for (std::size_t iy = 0; iy < n; ++iy) {
      const double y = 2.0 * kPi * static_cast<double>(iy) / n;
      for (std::size_t iz = 0; iz < n; ++iz) {
        const std::size_t idx = (ix * n + iy) * n + iz;
        u[idx] = std::sin(x) * std::cos(2.0 * y);
        rhs[idx] = -5.0 * u[idx];
      }
    }
  }
  const auto solved = poisson_solve_3d(rhs, n, n, n);
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(solved[i], u[i], 1e-8);
  }
}

TEST(Fft, PoissonZeroRhsGivesZero) {
  const std::size_t n = 8;
  const std::vector<double> rhs(n * n * n, 0.0);
  const auto solved = poisson_solve_3d(rhs, n, n, n);
  for (const double v : solved) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Fft, PoissonGaugesOutMean) {
  // Constant rhs has only a k=0 component, which the solver gauges away.
  const std::size_t n = 8;
  const std::vector<double> rhs(n * n * n, 3.0);
  const auto solved = poisson_solve_3d(rhs, n, n, n);
  for (const double v : solved) EXPECT_NEAR(v, 0.0, 1e-10);
}

}  // namespace
}  // namespace sickle::fft
