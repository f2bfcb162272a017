// Unit tests: synthetic flow generators (the DNS substitutes).
#include <gtest/gtest.h>

#include <cmath>

#include "common/mathx.hpp"
#include "fft/fft.hpp"
#include "flow/combustion.hpp"
#include "flow/cylinder.hpp"
#include "flow/spectral_turbulence.hpp"
#include "stats/descriptive.hpp"

namespace sickle::flow {
namespace {

TEST(CylinderWake, ShapesAndFields) {
  CylinderWakeParams p;
  p.nx = 60;
  p.ny = 45;
  p.snapshots = 10;
  const auto wake = generate_cylinder_wake(p);
  EXPECT_EQ(wake.dataset.num_snapshots(), 10u);
  EXPECT_EQ(wake.drag.size(), 10u);
  const auto& snap = wake.dataset.snapshot(0);
  EXPECT_TRUE(snap.has("u"));
  EXPECT_TRUE(snap.has("v"));
  EXPECT_TRUE(snap.has("p"));
  EXPECT_TRUE(snap.has("wz"));
  EXPECT_EQ(snap.shape().nx, 60u);
}

TEST(CylinderWake, NoSlipInsideBody) {
  CylinderWakeParams p;
  p.nx = 120;
  p.ny = 90;
  p.snapshots = 1;
  const auto wake = generate_cylinder_wake(p);
  const auto& snap = wake.dataset.snapshot(0);
  // Locate the grid point closest to the cylinder centre (0, 0).
  const double dx = (p.domain_x1 - p.domain_x0) / (p.nx - 1);
  const double dy = 2.0 * p.domain_y1 / (p.ny - 1);
  const auto ix = static_cast<std::size_t>(std::round(-p.domain_x0 / dx));
  const auto iy = static_cast<std::size_t>(std::round(p.domain_y1 / dy));
  EXPECT_DOUBLE_EQ(snap.get("u").at(ix, iy), 0.0);
  EXPECT_DOUBLE_EQ(snap.get("v").at(ix, iy), 0.0);
}

TEST(CylinderWake, FreeStreamFarUpstream) {
  CylinderWakeParams p;
  p.snapshots = 1;
  const auto wake = generate_cylinder_wake(p);
  const auto& snap = wake.dataset.snapshot(0);
  // Upstream corner should be close to (U_inf, 0).
  EXPECT_NEAR(snap.get("u").at(0, 0), p.u_infinity, 0.1);
  EXPECT_NEAR(snap.get("v").at(0, 0), 0.0, 0.1);
}

TEST(CylinderWake, DragIsPeriodicWithPositiveMean) {
  CylinderWakeParams p;
  p.snapshots = 64;
  p.noise = 0.0;
  const auto wake = generate_cylinder_wake(p);
  const auto m = stats::compute_moments(wake.drag);
  EXPECT_NEAR(m.mean, 1.0, 0.05);
  EXPECT_GT(m.stddev, 0.01);  // oscillating, not constant
  // 8 snapshots per shedding cycle -> the full drag signal (components at
  // f and 2f) repeats every 8 snapshots.
  EXPECT_NEAR(wake.drag[0], wake.drag[8], 0.02);
}

TEST(CylinderWake, WakeIsDownstream) {
  CylinderWakeParams p;
  p.snapshots = 1;
  const auto wake = generate_cylinder_wake(p);
  const auto& wz = wake.dataset.snapshot(0).get("wz");
  const auto& s = wake.dataset.shape();
  // Mean |wz| downstream (x > 0 half) should exceed upstream.
  double up = 0.0, down = 0.0;
  std::size_t nu = 0, nd = 0;
  const double dx = (p.domain_x1 - p.domain_x0) / (p.nx - 1);
  for (std::size_t ix = 0; ix < s.nx; ++ix) {
    const double x = p.domain_x0 + ix * dx;
    for (std::size_t iy = 0; iy < s.ny; ++iy) {
      if (x < -1.0) {
        up += std::abs(wz.at(ix, iy));
        ++nu;
      } else if (x > 1.0) {
        down += std::abs(wz.at(ix, iy));
        ++nd;
      }
    }
  }
  EXPECT_GT(down / nd, 2.0 * up / nu);
}

TEST(Combustion, ProgressVariableBimodalInUnitRange) {
  CombustionParams p;
  p.nx = 128;
  p.ny = 128;
  const auto ds = generate_combustion(p);
  const auto c = ds.snapshot(0).get("C").data();
  std::size_t low = 0, high = 0, mid = 0;
  for (const double x : c) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
    if (x < 0.1) {
      ++low;
    } else if (x > 0.9) {
      ++high;
    } else {
      ++mid;
    }
  }
  // Bimodal: most mass at the extremes, thin flame brush between.
  EXPECT_GT(low + high, 4 * mid);
  EXPECT_GT(low, c.size() / 5);
  EXPECT_GT(high, c.size() / 5);
}

TEST(Combustion, VariancePeaksInsideBrush) {
  CombustionParams p;
  p.nx = 128;
  p.ny = 128;
  const auto ds = generate_combustion(p);
  const auto& snap = ds.snapshot(0);
  const auto c = snap.get("C").data();
  const auto v = snap.get("Cvar").data();
  double brush = 0.0, outside = 0.0;
  std::size_t nb = 0, no = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c[i] > 0.3 && c[i] < 0.7) {
      brush += v[i];
      ++nb;
    } else {
      outside += v[i];
      ++no;
    }
  }
  ASSERT_GT(nb, 0u);
  EXPECT_GT(brush / nb, 3.0 * outside / no);
}

TEST(VonKarmanPao, SpectrumShape) {
  EXPECT_DOUBLE_EQ(von_karman_pao(0.0, 4.0, 16.0), 0.0);
  // Rises through the energy-containing range, decays in dissipation range.
  EXPECT_LT(von_karman_pao(0.5, 4.0, 16.0), von_karman_pao(4.0, 4.0, 16.0));
  EXPECT_GT(von_karman_pao(8.0, 4.0, 16.0), von_karman_pao(30.0, 4.0, 16.0));
}

TEST(SpectralTurbulence, FieldsPresentAndShaped) {
  SpectralTurbulenceParams p;
  p.nx = p.ny = 16;
  p.nz = 8;
  p.snapshots = 2;
  p.with_density = true;
  const auto ds = generate_spectral_turbulence(p);
  EXPECT_EQ(ds.num_snapshots(), 2u);
  const auto& snap = ds.snapshot(0);
  for (const char* v : {"u", "v", "w", "rho", "p"}) {
    EXPECT_TRUE(snap.has(v)) << v;
  }
  EXPECT_EQ(snap.shape().nx, 16u);
  EXPECT_EQ(snap.shape().nz, 8u);
}

TEST(SpectralTurbulence, VelocityIsDivergenceFree) {
  SpectralTurbulenceParams p;
  p.nx = p.ny = p.nz = 16;
  p.intermittency = 0.0;  // envelope multiplication breaks exact solenoidality
  p.with_pressure = false;
  const auto ds = generate_spectral_turbulence(p);
  const auto& snap = ds.snapshot(0);
  const auto dudx =
      fft::spectral_derivative_3d(snap.get("u").data(), 16, 16, 16, 0);
  const auto dvdy =
      fft::spectral_derivative_3d(snap.get("v").data(), 16, 16, 16, 1);
  const auto dwdz =
      fft::spectral_derivative_3d(snap.get("w").data(), 16, 16, 16, 2);
  double div_rms = 0.0, vel_rms = 0.0;
  const auto u = snap.get("u").data();
  for (std::size_t i = 0; i < dudx.size(); ++i) {
    div_rms += sqr(dudx[i] + dvdy[i] + dwdz[i]);
    vel_rms += sqr(u[i]);
  }
  EXPECT_LT(std::sqrt(div_rms), 1e-6 * std::sqrt(vel_rms) + 1e-9);
}

TEST(SpectralTurbulence, RmsMatchesTarget) {
  SpectralTurbulenceParams p;
  p.nx = p.ny = p.nz = 16;
  p.rms_velocity = 2.5;
  p.intermittency = 0.0;
  p.with_pressure = false;
  const auto ds = generate_spectral_turbulence(p);
  // The generator fixes the mean horizontal RMS; each component then sits
  // near the target up to component-to-component statistical variation.
  const auto& snap = ds.snapshot(0);
  double acc = 0.0;
  std::size_t n = 0;
  for (const char* c : {"u", "v"}) {
    for (const double x : snap.get(c).data()) {
      acc += x * x;
      ++n;
    }
  }
  EXPECT_NEAR(std::sqrt(acc / static_cast<double>(n)), 2.5, 1e-9);
}

TEST(SpectralTurbulence, IntermittencyFattensTails) {
  SpectralTurbulenceParams base;
  base.nx = base.ny = base.nz = 32;
  base.with_pressure = false;
  base.intermittency = 0.0;
  auto heavy = base;
  heavy.intermittency = 1.0;
  const auto gaussian = generate_spectral_turbulence(base);
  const auto intermittent = generate_spectral_turbulence(heavy);
  const auto kg = stats::compute_moments(
      gaussian.snapshot(0).get("u").data()).kurtosis;
  const auto ki = stats::compute_moments(
      intermittent.snapshot(0).get("u").data()).kurtosis;
  EXPECT_GT(ki, kg + 0.5);
}

TEST(Stratified, AnisotropySuppressesVerticalVelocity) {
  StratifiedParams p;
  p.nx = p.ny = 32;
  p.nz = 16;
  const auto ds = generate_stratified(p);
  const auto& snap = ds.snapshot(0);
  auto rms = [](std::span<const double> v) {
    double acc = 0.0;
    for (const double x : v) acc += x * x;
    return std::sqrt(acc / v.size());
  };
  EXPECT_LT(rms(snap.get("w").data()), 0.7 * rms(snap.get("u").data()));
  for (const char* v : {"rho", "pv", "eps", "p"}) {
    EXPECT_TRUE(snap.has(v)) << v;
  }
}

TEST(Stratified, DensityStablyStratified) {
  StratifiedParams p;
  p.nx = p.ny = 16;
  p.nz = 16;
  const auto ds = generate_stratified(p);
  const auto& rho = ds.snapshot(0).get("rho");
  // Mean density at the top z-layer exceeds the bottom (gradient along z).
  double bottom = 0.0, top = 0.0;
  for (std::size_t ix = 0; ix < 16; ++ix) {
    for (std::size_t iy = 0; iy < 16; ++iy) {
      bottom += rho.at(ix, iy, 0);
      top += rho.at(ix, iy, 15);
    }
  }
  EXPECT_GT(top, bottom);
}

TEST(Isotropic, ComponentsStatisticallyIsotropic) {
  IsotropicParams p;
  p.n = 32;
  const auto ds = generate_isotropic(p);
  const auto& snap = ds.snapshot(0);
  auto rms = [](std::span<const double> v) {
    double acc = 0.0;
    for (const double x : v) acc += x * x;
    return std::sqrt(acc / v.size());
  };
  const double ru = rms(snap.get("u").data());
  const double rw = rms(snap.get("w").data());
  EXPECT_NEAR(rw / ru, 1.0, 0.05);
  for (const char* v : {"enstrophy", "eps", "p"}) {
    EXPECT_TRUE(snap.has(v)) << v;
  }
}

TEST(SpectralTurbulence, SnapshotsDecorrelateOverTime) {
  SpectralTurbulenceParams p;
  p.nx = p.ny = p.nz = 16;
  p.snapshots = 3;
  p.with_pressure = false;
  p.dt = 2.0;
  p.sweep_velocity = 2.0;
  const auto ds = generate_spectral_turbulence(p);
  const auto u0 = ds.snapshot(0).get("u").data();
  const auto u2 = ds.snapshot(2).get("u").data();
  double dot = 0.0, n0 = 0.0, n2 = 0.0;
  for (std::size_t i = 0; i < u0.size(); ++i) {
    dot += u0[i] * u2[i];
    n0 += u0[i] * u0[i];
    n2 += u2[i] * u2[i];
  }
  const double corr = dot / std::sqrt(n0 * n2);
  EXPECT_LT(std::abs(corr), 0.9);  // evolved, not frozen
  EXPECT_GT(std::abs(corr), 0.0);
}

// ------------------------------------------------------ snapshot producers

/// Bit-exact equality of two datasets (shape, times, names, every value).
void expect_datasets_identical(const field::Dataset& a,
                               const field::Dataset& b) {
  ASSERT_EQ(a.num_snapshots(), b.num_snapshots());
  for (std::size_t t = 0; t < a.num_snapshots(); ++t) {
    const auto& sa = a.snapshot(t);
    const auto& sb = b.snapshot(t);
    ASSERT_EQ(sa.shape(), sb.shape());
    ASSERT_EQ(sa.time(), sb.time());
    ASSERT_EQ(sa.names(), sb.names());
    for (const auto& name : sa.names()) {
      const auto da = sa.get(name).data();
      const auto db = sb.get(name).data();
      for (std::size_t i = 0; i < da.size(); ++i) {
        ASSERT_EQ(da[i], db[i]) << name << "[" << i << "] @ t=" << t;
      }
    }
  }
}

/// The streaming-ingest contract: producers must yield exactly the bits
/// the batch generators return, or streamed and materialized runs would
/// sample different points.
TEST(Producer, StratifiedMatchesBatchGeneratorBitExact) {
  StratifiedParams p;
  p.nx = 16;
  p.ny = 16;
  p.nz = 8;
  p.snapshots = 3;
  p.seed = 21;
  StratifiedProducer producer(p);
  EXPECT_EQ(producer.num_snapshots(), 3u);
  const auto streamed = materialize(producer, "SST");
  expect_datasets_identical(streamed, generate_stratified(p));
  EXPECT_EQ(producer.next(), std::nullopt);  // exhausted
}

TEST(Producer, IsotropicMatchesBatchGeneratorBitExact) {
  IsotropicParams p;
  p.n = 16;
  p.snapshots = 2;
  p.seed = 9;
  IsotropicProducer producer(p);
  const auto streamed = materialize(producer, "GESTS");
  expect_datasets_identical(streamed, generate_isotropic(p));
  EXPECT_EQ(producer.next(), std::nullopt);  // exhausted
}

TEST(Producer, CylinderMatchesBatchGeneratorBitExact) {
  CylinderWakeParams p;
  p.nx = 30;
  p.ny = 24;
  p.snapshots = 6;
  p.seed = 77;
  CylinderWakeProducer producer(p);
  const auto streamed = materialize(producer, "OF2D");
  const auto batch = generate_cylinder_wake(p);
  expect_datasets_identical(streamed, batch.dataset);
  // The drag target accumulates as snapshots are produced, with the same
  // noise stream as the batch path.
  ASSERT_EQ(producer.scalar_target().size(), batch.drag.size());
  for (std::size_t t = 0; t < batch.drag.size(); ++t) {
    EXPECT_EQ(producer.scalar_target()[t], batch.drag[t]);
    EXPECT_EQ(producer.times()[t], batch.times[t]);
  }
}

TEST(Producer, CombustionMatchesBatchGeneratorBitExact) {
  CombustionParams p;
  p.nx = 48;
  p.ny = 48;
  p.seed = 3;
  CombustionProducer producer(p);
  EXPECT_EQ(producer.num_snapshots(), 1u);
  const auto streamed = materialize(producer, "TC2D");
  expect_datasets_identical(streamed, generate_combustion(p));
  EXPECT_EQ(producer.next(), std::nullopt);  // exhausted
}

TEST(Producer, DatasetProducerReplaysInOrder) {
  StratifiedParams p;
  p.nx = 8;
  p.ny = 8;
  p.nz = 8;
  p.snapshots = 2;
  const auto ds = generate_stratified(p);
  DatasetProducer producer(ds);
  const auto replayed = materialize(producer, "replay");
  expect_datasets_identical(replayed, ds);
  EXPECT_EQ(producer.next(), std::nullopt);  // exhausted: single-use
}

}  // namespace
}  // namespace sickle::flow
