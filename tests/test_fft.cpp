// Unit tests: FFT, Poisson solve, spectral derivatives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <thread>
#include <vector>

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
  const auto grad = spectral_gradient_3d(f, n, n, n);
  for (std::size_t ix = 0; ix < n; ++ix) {
    const double x = 2.0 * kPi * static_cast<double>(ix) / n;
    EXPECT_NEAR(grad[0][(ix * n) * n], 2.0 * std::cos(2.0 * x), 1e-8);
  }
  // f does not vary along y or z.
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_NEAR(grad[1][i], 0.0, 1e-8);
    EXPECT_NEAR(grad[2][i], 0.0, 1e-8);
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

/// Transforms keep their plans and scratch per thread, so concurrent
/// callers share no state: 4 threads running mixed lengths (8-64) in both
/// directions, each in its own order, must return the serial bits.
TEST(Fft, ConcurrentTransformsMatchSerial) {
  struct Job {
    std::size_t nx, ny, nz;  ///< ny == nz == 0: the 1-D transform of nx
    bool inverse;
    std::vector<cplx> input, want;
  };
  const std::size_t shapes[][3] = {{8, 16, 32}, {64, 8, 8}, {16, 64, 8},
                                   {32, 32, 16}, {8, 8, 64}, {8, 0, 0},
                                   {16, 0, 0},  {32, 0, 0}, {64, 0, 0}};
  auto run = [](const Job& job, std::vector<cplx>& data) {
    if (job.ny == 0) {
      transform(std::span<cplx>(data), job.inverse);
    } else {
      transform_3d(std::span<cplx>(data), job.nx, job.ny, job.nz,
                   job.inverse);
    }
  };
  Rng rng(31);
  std::vector<Job> jobs;
  for (const auto& s : shapes) {
    for (const bool inverse : {false, true}) {
      Job job{s[0], s[1], s[2], inverse, {}, {}};
      job.input.resize(s[0] * std::max<std::size_t>(1, s[1] * s[2]));
      for (auto& x : job.input) x = cplx(rng.normal(), rng.normal());
      job.want = job.input;
      run(job, job.want);
      jobs.push_back(std::move(job));
    }
  }
  constexpr std::size_t kThreads = 4;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t rep = 0; rep < 3; ++rep) {
        for (std::size_t k = 0; k < jobs.size(); ++k) {
          const Job& job = jobs[(k + 5 * t) % jobs.size()];
          std::vector<cplx> data = job.input;
          run(job, data);
          if (std::memcmp(data.data(), job.want.data(),
                          data.size() * sizeof(cplx)) != 0) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

}  // namespace
}  // namespace sickle::fft
