// Spectral synthesis of 3D turbulence — the SST and GESTS substitutes.
//
// The paper's 3D datasets come from petabyte-scale DNS (stratified
// Taylor–Green ensembles; GESTS pseudo-spectral isotropic turbulence on
// Frontier). We synthesize statistically equivalent fields with the
// standard kinematic-simulation recipe:
//
//   1. white Gaussian noise per velocity component, FFT to spectral space
//      (Hermitian symmetry is inherited from the real input);
//   2. amplitude shaping to a von Kármán–Pao model spectrum
//        E(k) ~ (k/kp)^4 / (1 + (k/kp)^2)^(17/6) * exp(-2 (k/k_eta)^2);
//   3. divergence-free (solenoidal) projection  u_hat -= k (k.u_hat)/k^2;
//   4. inverse FFT; optional lognormal intermittency envelope.
//
// Stratification is modelled by (a) anisotropic spectrum shaping that
// suppresses vertical wavenumbers (pancake layering), (b) damping of the
// vertical velocity component, and (c) a density field with a mean stable
// gradient along gravity plus anisotropic fluctuations. Time evolution uses
// random-sweep phase rotation with viscous decay, preserving solenoidality.
// Pressure solves the exact spectral Poisson equation
//   lap p = -du_i/dx_j du_j/dx_i.
//
// Grid sizes are scaled down from the paper (DESIGN.md §2) but keep the
// anisotropic-vs-isotropic contrast that drives the paper's findings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "field/field.hpp"
#include "flow/producer.hpp"

namespace sickle::flow {

struct SpectralTurbulenceParams {
  std::size_t nx = 64, ny = 64, nz = 32;  ///< must be powers of two
  std::size_t snapshots = 1;
  double rms_velocity = 1.0;   ///< target RMS of each velocity component
  double k_peak = 4.0;         ///< energy-containing wavenumber
  double k_eta = 16.0;         ///< dissipation cutoff wavenumber
  double anisotropy = 1.0;     ///< >1 suppresses vertical wavenumbers
  double vertical_damping = 1.0;  ///< multiplier on w (1 = none)
  double intermittency = 0.0;  ///< lognormal envelope sigma (0 = Gaussian)
  int gravity_axis = 2;        ///< 0=x, 1=y, 2=z
  bool with_density = false;   ///< add stably stratified rho
  double density_gradient = 1.0;  ///< mean d(rho)/d(gravity)
  bool with_pressure = true;   ///< spectral Poisson pressure
  double dt = 0.25;            ///< snapshot spacing
  double viscosity = 2e-3;     ///< decay rate nu*k^2 between snapshots
  double sweep_velocity = 0.5; ///< random-sweep advection magnitude
  /// Round every emitted value through IEEE-754 binary32, matching the
  /// native storage precision of the paper's solver dumps (BLASTNet-style
  /// collections ship single-precision). Values stay doubles, but the low
  /// 29 mantissa bits are zero — the structure bit-granular lossless
  /// codecs (gorilla) exploit. Default off: full double precision.
  bool native_f32 = false;
  std::uint64_t seed = 1;
};

/// Core generator: snapshots carry u, v, w (+ rho, + p as configured).
/// The base solenoidal spectral state and intermittency envelope are built
/// once at construction (all RNG draws happen there), then each next()
/// realizes one time step — phase sweep + viscous decay + inverse FFT — so
/// producing a T-step series holds O(one snapshot) of field data, never
/// O(T). materialize() collects the whole series.
class SpectralTurbulenceProducer final : public SnapshotProducer {
 public:
  explicit SpectralTurbulenceProducer(const SpectralTurbulenceParams& p);
  ~SpectralTurbulenceProducer() override;

  [[nodiscard]] std::size_t num_snapshots() const override;
  [[nodiscard]] std::optional<field::Snapshot> next() override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// SST-P1F4-like stratified case (scaled: 64x64x32, 8 snapshots default).
/// Fields: u, v, w, rho, p, plus derived pv and eps.
struct StratifiedParams {
  std::size_t nx = 64, ny = 64, nz = 32;
  std::size_t snapshots = 8;
  double anisotropy = 4.0;
  double vertical_damping = 0.35;
  double intermittency = 0.6;
  std::uint64_t seed = 11;
};

/// Spectral realization plus per-snapshot pv/eps enrichment, one snapshot
/// at a time.
class StratifiedProducer final : public SnapshotProducer {
 public:
  explicit StratifiedProducer(const StratifiedParams& p);

  [[nodiscard]] std::size_t num_snapshots() const override {
    return base_.num_snapshots();
  }
  [[nodiscard]] std::optional<field::Snapshot> next() override;

 private:
  SpectralTurbulenceProducer base_;
};

/// GESTS-like isotropic case (scaled: 64^3, 1 snapshot default).
/// Fields: u, v, w, p, plus derived enstrophy and eps.
struct IsotropicParams {
  std::size_t n = 64;
  std::size_t snapshots = 1;
  double intermittency = 0.25;  ///< mild: isotropic tails are lighter
  std::uint64_t seed = 13;
};

/// Per-snapshot enstrophy/eps enrichment over the spectral realization.
class IsotropicProducer final : public SnapshotProducer {
 public:
  explicit IsotropicProducer(const IsotropicParams& p);

  [[nodiscard]] std::size_t num_snapshots() const override {
    return base_.num_snapshots();
  }
  [[nodiscard]] std::optional<field::Snapshot> next() override;

 private:
  SpectralTurbulenceProducer base_;
};

/// Model energy spectrum used by the generator (exposed for tests).
[[nodiscard]] double von_karman_pao(double k, double k_peak, double k_eta);

}  // namespace sickle::flow
