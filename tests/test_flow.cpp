// Unit tests: synthetic flow generators (the DNS substitutes).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>

#include "common/mathx.hpp"
#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "flow/combustion.hpp"
#include "flow/cylinder.hpp"
#include "flow/spectral_turbulence.hpp"
#include "golden.hpp"
#include "sickle/dataset_zoo.hpp"
#include "stats/descriptive.hpp"
#include "store/chunk_layout.hpp"

namespace sickle::flow {
namespace {

using golden::digest;
using golden::generator_libm_matches;
using golden::libm_matches;

/// Drain a fresh `Producer` built from `params`, checking the contract
/// every producer keeps: exactly num_snapshots() snapshots, then nullopt.
template <typename Producer, typename Params>
field::Dataset generate(const Params& params) {
  Producer producer(params);
  const std::size_t expected = producer.num_snapshots();
  auto ds = materialize(producer, "generated");
  EXPECT_EQ(ds.num_snapshots(), expected);
  EXPECT_EQ(producer.next(), std::nullopt);  // exhausted: single-use
  return ds;
}

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
  const auto ds = generate<CombustionProducer>(p);
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
  const auto ds = generate<CombustionProducer>(p);
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
  const auto ds = generate<SpectralTurbulenceProducer>(p);
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
  const auto ds = generate<SpectralTurbulenceProducer>(p);
  const auto& snap = ds.snapshot(0);
  const auto dudx =
      fft::spectral_gradient_3d(snap.get("u").data(), 16, 16, 16)[0];
  const auto dvdy =
      fft::spectral_gradient_3d(snap.get("v").data(), 16, 16, 16)[1];
  const auto dwdz =
      fft::spectral_gradient_3d(snap.get("w").data(), 16, 16, 16)[2];
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
  const auto ds = generate<SpectralTurbulenceProducer>(p);
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
  const auto gaussian = generate<SpectralTurbulenceProducer>(base);
  const auto intermittent = generate<SpectralTurbulenceProducer>(heavy);
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
  const auto ds = generate<StratifiedProducer>(p);
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
  const auto ds = generate<StratifiedProducer>(p);
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
  const auto ds = generate<IsotropicProducer>(p);
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
  const auto ds = generate<SpectralTurbulenceProducer>(p);
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

/// generate_cylinder_wake, the one batch generator (it also returns the
/// drag and time series), materializes the producer: the two must carry
/// the same bits, or a drag-surrogate run would train on other data.
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

TEST(Producer, DatasetProducerReplaysInOrder) {
  StratifiedParams p;
  p.nx = 8;
  p.ny = 8;
  p.nz = 8;
  p.snapshots = 2;
  const auto ds = generate<StratifiedProducer>(p);
  DatasetProducer producer(ds);
  const auto replayed = materialize(producer, "replay");
  expect_datasets_identical(replayed, ds);
  EXPECT_EQ(producer.next(), std::nullopt);  // exhausted: single-use
}

// ------------------------------------------------------- generator golden

/// The libm calls of the 2-D generators that
/// golden::generator_libm_probe does not reach: TC2D's tanh front
/// (arguments within about +-50) and wrinkle sines (up to ~80 radians),
/// and OF2D's Lamb-Oseen and shielding exp (arguments down to about
/// -1500).
std::uint64_t planar_libm_probe() {
  std::vector<double> out;
  for (int i = 0; i <= 4000; ++i) {
    const double u = static_cast<double>(i) / 4000.0;
    out.push_back(std::tanh(100.0 * (u - 0.5)));
    out.push_back(std::tanh(4.0 * (u - 0.5)));
    out.push_back(std::sin(80.0 * u));
    out.push_back(std::exp(-1500.0 * u));
  }
  return digest(std::span<const double>(out));
}

/// Digest of each variable over the first `limit` snapshots a producer
/// yields, chained in production order and keyed by variable name.
std::map<std::string, std::uint64_t> field_digests(SnapshotProducer& producer,
                                                   std::size_t limit) {
  std::map<std::string, std::uint64_t> out;
  for (std::size_t t = 0; t < limit; ++t) {
    const auto snap = producer.next();
    if (!snap) break;
    for (const auto& name : snap->names()) {
      const auto it = out.try_emplace(name, store::kFnvOffsetBasis).first;
      it->second = digest(snap->get(name).data(), it->second);
    }
  }
  return out;
}

/// Snapshot generation may get faster, never different: every field of
/// the generated datasets the ledger and the serve path draw is pinned as
/// an FNV-1a digest of its bits, captured before the FFT, pressure and
/// stencil kernels were rewritten. The shapes cover equal and unequal
/// extents, with and without intermittency, and the ledger's 64x64x32
/// grid. TC2D and OF2D, the 2-D generators, are pinned as well, OF2D with
/// its drag series. The generators go through libm, so its results are
/// pinned first; on a platform whose libm rounds differently the test (or,
/// for the 2-D rows' extra calls, those rows) is reported and skipped
/// rather than failed.
TEST(GeneratorGolden, DatasetsArePinned) {
  if (!generator_libm_matches()) GTEST_SKIP();
  const bool planar_ok =
      libm_matches("planar", planar_libm_probe(), 0x05ecaf7dfa81554dull);
  struct Golden {
    const char* label;
    double scale;
    std::size_t snapshots;  ///< how many the digests cover
    /// Field digests, plus "scalar_target" for a producer with a target.
    std::map<std::string, std::uint64_t> fields;
    bool planar = false;  ///< guarded by planar_libm_probe as well
  };
  const std::vector<Golden> goldens = {
      {"SST-P1F4", 0.25, 8,
       {{"eps", 0xcd093be0219853daull},
        {"p", 0x8ab03db4d587a769ull},
        {"pv", 0xc7480920c37a7387ull},
        {"rho", 0x9f4d38c4e741c0f8ull},
        {"u", 0x750ee395018bb58dull},
        {"v", 0x9cdf445101cd7de8ull},
        {"w", 0x11e7eb404972150bull}}},
      {"SST-P1F100", 0.25, 4,
       {{"eps", 0x7f40133a4597d6c0ull},
        {"p", 0x3556d7c51672b8b1ull},
        {"pv", 0xd1a3c471e0129d18ull},
        {"rho", 0x216e9ea685a9178dull},
        {"u", 0x39aea7dd12b0f0a8ull},
        {"v", 0x0959a56f230d0e4full},
        {"w", 0xbc3bc9f6b413a4f2ull}}},
      {"GESTS-2048", 0.25, 1,
       {{"enstrophy", 0x03e5008d615b9bb3ull},
        {"eps", 0x4e29fd73a10b1394ull},
        {"p", 0xc8b6ba2d0b497160ull},
        {"u", 0x45b66b56f3f7f5fcull},
        {"v", 0xbd6454d0fcd9ad80ull},
        {"w", 0x3d2febd87b06f733ull}}},
      {"SST-P1F4", 1.0, 1,
       {{"eps", 0xc60d47d7780e3060ull},
        {"p", 0xd91d01d78cc51306ull},
        {"pv", 0x7e34e05d6cc9e5aaull},
        {"rho", 0x6d0332a7a95eeb47ull},
        {"u", 0xb9daab9888939c2dull},
        {"v", 0x0fbbac37889ae0a3ull},
        {"w", 0x9cc0b40535ceba99ull}}},
      {"TC2D", 0.25, 1,
       {{"C", 0xc854dc3c48a3fb12ull}, {"Cvar", 0x19df9f4a8cb74708ull}},
       true},
      {"OF2D", 1.0, 100,
       {{"p", 0x41b24a851e822adeull},
        {"scalar_target", 0xbcf121a04372ee30ull},
        {"u", 0x796b045e9aa18c9dull},
        {"v", 0x0745a08e47edfb9bull},
        {"wz", 0xb0422569cd45450aull}},
       true},
  };
  for (const auto& g : goldens) {
    if (g.planar && !planar_ok) continue;
    ProducerBundle bundle = make_dataset_producer(g.label, 1, g.scale);
    auto got = field_digests(*bundle.producer, g.snapshots);
    const auto target = bundle.producer->scalar_target();
    if (!target.empty()) {
      got["scalar_target"] = digest(std::span<const double>(target));
    }
    EXPECT_EQ(got.size(), g.fields.size()) << g.label << " @ " << g.scale;
    for (const auto& [name, value] : got) {
      const auto it = g.fields.find(name);
      const std::uint64_t want = it == g.fields.end() ? 0 : it->second;
      EXPECT_EQ(value, want) << g.label << " @ " << g.scale << " field "
                             << name << ": 0x" << std::hex << value;
    }
  }
}

/// The transforms under the generators, on shapes the generators do not
/// reach: extents of 1 and 2, fewer lines than one batch, and the 1-D
/// transform at n = 1, 2 and 1024. Each digest chains the forward and the
/// inverse transform of a real input and of a complex input.
TEST(GeneratorGolden, TransformsArePinned) {
  if (!generator_libm_matches()) GTEST_SKIP();
  struct Golden {
    std::size_t nx, ny, nz;
    std::uint64_t digest;
  };
  auto pinned = [](std::size_t nx, std::size_t ny, std::size_t nz,
                   bool one_d) {
    const std::size_t n = nx * ny * nz;
    Rng rng(n + 10 * ny + 100 * nx);
    std::vector<fft::cplx> real(n), complex(n);
    for (std::size_t i = 0; i < n; ++i) {
      real[i] = fft::cplx(rng.normal(), 0.0);
      complex[i] = fft::cplx(rng.normal(), rng.normal());
    }
    std::uint64_t h = store::kFnvOffsetBasis;
    for (const auto* input : {&real, &complex}) {
      for (const bool inverse : {false, true}) {
        auto data = *input;
        if (one_d) {
          fft::transform(std::span<fft::cplx>(data), inverse);
        } else {
          fft::transform_3d(std::span<fft::cplx>(data), nx, ny, nz, inverse);
        }
        h = digest(std::span<const fft::cplx>(data), h);
      }
    }
    return h;
  };
  const std::vector<Golden> shapes = {
      {1, 1, 1, 0x9c53fa10e9b5da0full},
      {1, 1, 8, 0x54748688165d463dull},
      {2, 4, 1, 0x08ba84e543c0b272ull},
      {2, 2, 2, 0x0cd53481bb2cfa4aull},
      {8, 4, 16, 0x35bdd9ae3f92b6a9ull},
      {1, 16, 1, 0x73ee42101e48721bull},
      {4, 1, 32, 0x09246eb828ba61eeull},
      {16, 2, 4, 0x53f9c78cbbdad226ull},
  };
  for (const auto& s : shapes) {
    const std::uint64_t got = pinned(s.nx, s.ny, s.nz, false);
    EXPECT_EQ(got, s.digest) << s.nx << "x" << s.ny << "x" << s.nz
                             << ": 0x" << std::hex << got;
  }
  const std::vector<Golden> lines = {
      {1, 1, 1, 0x9c53fa10e9b5da0full},
      {2, 1, 1, 0xa274290a668694d7ull},
      {1024, 1, 1, 0xc367f2357e98d9f3ull},
  };
  for (const auto& s : lines) {
    const std::uint64_t got = pinned(s.nx, 1, 1, true);
    EXPECT_EQ(got, s.digest) << "1-D n=" << s.nx << ": 0x" << std::hex
                             << got;
  }
}

}  // namespace
}  // namespace sickle::flow
