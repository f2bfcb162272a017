#include "flow/spectral_turbulence.hpp"

#include <array>
#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "common/error.hpp"
#include "common/mathx.hpp"
#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "field/derived.hpp"

namespace sickle::flow {

using fft::cplx;

double von_karman_pao(double k, double k_peak, double k_eta) {
  if (k <= 0.0) return 0.0;
  const double kr = k / k_peak;
  const double energy_range =
      (kr * kr * kr * kr) / std::pow(1.0 + kr * kr, 17.0 / 6.0);
  const double dissipation_range = std::exp(-2.0 * sqr(k / k_eta));
  return energy_range * dissipation_range;
}

namespace {

struct SpectralState {
  std::size_t nx, ny, nz;
  // Base (t = 0) solenoidal spectral velocity and density fields.
  std::vector<cplx> u_hat, v_hat, w_hat, rho_hat;
  // Random-sweep phase velocity per axis.
  double sweep[3] = {0.0, 0.0, 0.0};

  [[nodiscard]] std::size_t size() const noexcept { return nx * ny * nz; }
};

/// Shaped, solenoidal spectral noise for all three components at once.
SpectralState build_base_state(const SpectralTurbulenceParams& p, Rng& rng) {
  SpectralState st;
  st.nx = p.nx;
  st.ny = p.ny;
  st.nz = p.nz;
  const std::size_t n = st.size();

  // 1. White Gaussian noise per component, transformed to spectral space.
  auto noise_hat = [&](Rng stream_rng) {
    std::vector<cplx> hat(n);
    for (std::size_t i = 0; i < n; ++i) {
      hat[i] = cplx(stream_rng.normal(), 0.0);
    }
    fft::transform_3d(std::span<cplx>(hat), p.nx, p.ny, p.nz, false);
    return hat;
  };
  st.u_hat = noise_hat(rng.fork(1));
  st.v_hat = noise_hat(rng.fork(2));
  st.w_hat = noise_hat(rng.fork(3));
  if (p.with_density) st.rho_hat = noise_hat(rng.fork(4));

  // 2+3. Amplitude shaping and solenoidal projection.
  //
  // White noise has flat modal energy, so multiplying each mode by
  // sqrt(E(k)/(4 pi k^2)) yields the target shell-integrated spectrum up to
  // a global constant, which we fix afterwards by normalizing the physical
  // RMS. Anisotropy enters through an effective wavenumber that stretches
  // the gravity axis, pushing energy into flat "pancake" modes.
  const int g = p.gravity_axis;
  for (std::size_t ix = 0; ix < p.nx; ++ix) {
    const double kx = fft::wavenumber(ix, p.nx);
    for (std::size_t iy = 0; iy < p.ny; ++iy) {
      const double ky = fft::wavenumber(iy, p.ny);
      for (std::size_t iz = 0; iz < p.nz; ++iz) {
        const double kz = fft::wavenumber(iz, p.nz);
        const std::size_t idx = (ix * p.ny + iy) * p.nz + iz;
        const double kvec[3] = {kx, ky, kz};
        const double k2 = kx * kx + ky * ky + kz * kz;
        // Zero the mean mode and every Nyquist plane: Nyquist modes have
        // no well-defined sign for odd (derivative) operators, so keeping
        // them would break discrete solenoidality. Standard practice in
        // pseudo-spectral codes.
        const bool nyquist = (p.nx > 1 && ix == p.nx / 2) ||
                             (p.ny > 1 && iy == p.ny / 2) ||
                             (p.nz > 1 && iz == p.nz / 2);
        if (k2 <= 0.0 || nyquist) {
          st.u_hat[idx] = st.v_hat[idx] = st.w_hat[idx] = cplx(0, 0);
          if (p.with_density) st.rho_hat[idx] = cplx(0, 0);
          continue;
        }
        // Effective anisotropic wavenumber.
        double k_eff2 = 0.0;
        for (int a = 0; a < 3; ++a) {
          const double scale = (a == g) ? p.anisotropy : 1.0;
          k_eff2 += sqr(kvec[a] * scale);
        }
        const double k_eff = std::sqrt(k_eff2);
        const double amp =
            std::sqrt(von_karman_pao(k_eff, p.k_peak, p.k_eta) /
                      std::max(4.0 * std::numbers::pi * k_eff2, 1e-12));
        const cplx u = st.u_hat[idx] * amp;
        const cplx v = st.v_hat[idx] * amp;
        const cplx w = st.w_hat[idx] * amp;
        // Craya–Herring decomposition: write the mode in the orthonormal
        // basis {e1 = k x g_hat / |..| (toroidal, no gravity-axis motion),
        // e2 = k x e1 / |k| (poloidal, carries the vertical component)}.
        // Both are perpendicular to k, so any combination is exactly
        // solenoidal — this is how stratification damps vertical motion
        // without breaking incompressibility (naive scaling of w would).
        double ghat[3] = {0.0, 0.0, 0.0};
        ghat[g] = 1.0;
        double e1[3] = {kvec[1] * ghat[2] - kvec[2] * ghat[1],
                        kvec[2] * ghat[0] - kvec[0] * ghat[2],
                        kvec[0] * ghat[1] - kvec[1] * ghat[0]};
        const double e1n =
            std::sqrt(sqr(e1[0]) + sqr(e1[1]) + sqr(e1[2]));
        if (e1n < 1e-12) {
          // k parallel to gravity: pick any horizontal direction.
          e1[0] = (g == 0) ? 0.0 : 1.0;
          e1[1] = (g == 0) ? 1.0 : 0.0;
          e1[2] = 0.0;
        } else {
          for (double& c : e1) c /= e1n;
        }
        const double kn = std::sqrt(k2);
        const double e2[3] = {
            (kvec[1] * e1[2] - kvec[2] * e1[1]) / kn,
            (kvec[2] * e1[0] - kvec[0] * e1[2]) / kn,
            (kvec[0] * e1[1] - kvec[1] * e1[0]) / kn};
        const cplx n_dot_e1 = u * e1[0] + v * e1[1] + w * e1[2];
        const cplx n_dot_e2 = u * e2[0] + v * e2[1] + w * e2[2];
        const cplx a1 = n_dot_e1;
        const cplx a2 = n_dot_e2 * p.vertical_damping;
        st.u_hat[idx] = a1 * e1[0] + a2 * e2[0];
        st.v_hat[idx] = a1 * e1[1] + a2 * e2[1];
        st.w_hat[idx] = a1 * e1[2] + a2 * e2[2];
        if (p.with_density) {
          // Density fluctuations: same anisotropic shaping, no projection.
          st.rho_hat[idx] *= amp;
        }
      }
    }
  }

  Rng sweep_rng = rng.fork(5);
  for (double& s : st.sweep) {
    s = p.sweep_velocity * sweep_rng.normal();
  }
  return st;
}

/// Each mode's viscous decay and sweep phase at one time, shared by every
/// component realized at that time.
struct ModeFactors {
  std::vector<double> decay;
  std::vector<cplx> phase;
};

ModeFactors mode_factors(const SpectralState& st, double t,
                         double viscosity) {
  const std::size_t n = st.size();
  ModeFactors f{std::vector<double>(n), std::vector<cplx>(n)};
  for (std::size_t ix = 0; ix < st.nx; ++ix) {
    const double kx = fft::wavenumber(ix, st.nx);
    for (std::size_t iy = 0; iy < st.ny; ++iy) {
      const double ky = fft::wavenumber(iy, st.ny);
      for (std::size_t iz = 0; iz < st.nz; ++iz) {
        const double kz = fft::wavenumber(iz, st.nz);
        const std::size_t idx = (ix * st.ny + iy) * st.nz + iz;
        const double k2 = kx * kx + ky * ky + kz * kz;
        const double omega =
            kx * st.sweep[0] + ky * st.sweep[1] + kz * st.sweep[2];
        f.decay[idx] = std::exp(-viscosity * k2 * t);
        const double ph = -omega * t;
        f.phase[idx] = cplx(std::cos(ph), std::sin(ph));
      }
    }
  }
  return f;
}

/// Inverse-transform one component at the time `f` was built for.
std::vector<double> realize(const SpectralState& st,
                            const std::vector<cplx>& base,
                            const ModeFactors& f) {
  const std::size_t n = st.size();
  std::vector<cplx> hat(n);
  for (std::size_t i = 0; i < n; ++i) {
    hat[i] = base[i] * f.decay[i] * f.phase[i];
  }
  fft::transform_3d(std::span<cplx>(hat), st.nx, st.ny, st.nz, true);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = hat[i].real();
  return out;
}

/// Normalize a field to a target RMS (no-op when the field is zero).
void normalize_rms(std::vector<double>& f, double target) {
  double acc = 0.0;
  for (const double x : f) acc += x * x;
  const double rms = std::sqrt(acc / static_cast<double>(f.size()));
  if (rms <= 1e-300) return;
  const double s = target / rms;
  for (double& x : f) x *= s;
}

/// Smooth lognormal intermittency envelope: exp(sigma*G - sigma^2/2) with G
/// a large-scale Gaussian field, preserving the mean amplitude but adding
/// the heavy tails real turbulence dissipation exhibits.
std::vector<double> intermittency_envelope(std::size_t nx, std::size_t ny,
                                           std::size_t nz, double sigma,
                                           Rng rng) {
  const std::size_t n = nx * ny * nz;
  std::vector<cplx> hat(n);
  for (std::size_t i = 0; i < n; ++i) hat[i] = cplx(rng.normal(), 0.0);
  fft::transform_3d(std::span<cplx>(hat), nx, ny, nz, false);
  // Low-pass: keep only |k| <= 3 so the envelope is large-scale.
  for (std::size_t ix = 0; ix < nx; ++ix) {
    const double kx = fft::wavenumber(ix, nx);
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const double ky = fft::wavenumber(iy, ny);
      for (std::size_t iz = 0; iz < nz; ++iz) {
        const double kz = fft::wavenumber(iz, nz);
        const double k = std::sqrt(kx * kx + ky * ky + kz * kz);
        hat[(ix * ny + iy) * nz + iz] *= std::exp(-sqr(k / 3.0));
      }
    }
  }
  fft::transform_3d(std::span<cplx>(hat), nx, ny, nz, true);
  std::vector<double> g(n);
  for (std::size_t i = 0; i < n; ++i) g[i] = hat[i].real();
  normalize_rms(g, 1.0);
  std::vector<double> env(n);
  for (std::size_t i = 0; i < n; ++i) {
    env[i] = std::exp(sigma * g[i] - 0.5 * sigma * sigma);
  }
  return env;
}

/// Pressure from the exact spectral Poisson equation
///   lap p = -du_i/dx_j du_j/dx_i.
std::vector<double> pressure_poisson(const field::Snapshot& snap) {
  const auto& s = snap.shape();
  const char* names[3] = {"u", "v", "w"};
  // grad[i][j] = du_i/dx_j: one forward transform per component.
  std::array<std::vector<double>, 3> grad[3];
  for (int i = 0; i < 3; ++i) {
    grad[i] = fft::spectral_gradient_3d(snap.get(names[i]).data(), s.nx,
                                        s.ny, s.nz);
  }
  std::vector<double> rhs(s.size(), 0.0);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      const auto& gij = grad[i][j];
      const auto& gji = grad[j][i];
      for (std::size_t m = 0; m < rhs.size(); ++m) rhs[m] -= gij[m] * gji[m];
    }
  }
  return fft::poisson_solve_3d(std::span<const double>(rhs), s.nx, s.ny,
                               s.nz);
}

}  // namespace

/// Everything one snapshot realization needs: the (immutable) base
/// spectral state, the envelope, and the production cursor. All RNG is
/// consumed at construction, so realizations are pure functions of the
/// step index and producing lazily is bit-identical to the batch loop.
struct SpectralTurbulenceProducer::Impl {
  SpectralTurbulenceParams params;
  SpectralState state;
  std::vector<double> envelope;
  std::size_t produced = 0;

  explicit Impl(const SpectralTurbulenceParams& p) : params(p) {
    SICKLE_CHECK_MSG(is_pow2(p.nx) && is_pow2(p.ny) && is_pow2(p.nz),
                     "spectral grid extents must be powers of two");
    SICKLE_CHECK(p.gravity_axis >= 0 && p.gravity_axis <= 2);
    Rng rng(p.seed);
    state = build_base_state(p, rng);
    if (p.intermittency > 0.0) {
      envelope = intermittency_envelope(p.nx, p.ny, p.nz, p.intermittency,
                                        rng.fork(6));
    }
  }

  [[nodiscard]] field::Snapshot realize_step(std::size_t ts) const {
    const auto& p = params;
    const auto& st = state;
    const field::GridShape shape{p.nx, p.ny, p.nz};
    const double t = static_cast<double>(ts) * p.dt;
    field::Snapshot snap(shape, t);

    std::vector<double> u, v, w, rho;
    {
      const ModeFactors f = mode_factors(st, t, p.viscosity);
      u = realize(st, st.u_hat, f);
      v = realize(st, st.v_hat, f);
      w = realize(st, st.w_hat, f);
      if (p.with_density) rho = realize(st, st.rho_hat, f);
    }
    // One common scale for all components (separate per-component scaling
    // would break solenoidality): target the mean horizontal RMS.
    {
      double acc = 0.0;
      for (std::size_t i = 0; i < u.size(); ++i) {
        acc += 0.5 * (u[i] * u[i] + v[i] * v[i]);
      }
      const double rms_h = std::sqrt(acc / static_cast<double>(u.size()));
      if (rms_h > 1e-300) {
        const double s = p.rms_velocity / rms_h;
        for (std::size_t i = 0; i < u.size(); ++i) {
          u[i] *= s;
          v[i] *= s;
          w[i] *= s;
        }
      }
    }
    if (!envelope.empty()) {
      for (std::size_t i = 0; i < u.size(); ++i) {
        u[i] *= envelope[i];
        v[i] *= envelope[i];
        w[i] *= envelope[i];
      }
    }
    snap.add("u", std::move(u));
    snap.add("v", std::move(v));
    snap.add("w", std::move(w));

    if (p.with_density) {
      normalize_rms(rho, 0.1);
      if (!envelope.empty()) {
        for (std::size_t i = 0; i < rho.size(); ++i) rho[i] *= envelope[i];
      }
      // Stable background gradient along gravity.
      const std::size_t ng = (p.gravity_axis == 0)   ? p.nx
                             : (p.gravity_axis == 1) ? p.ny
                                                     : p.nz;
      for (std::size_t ix = 0; ix < p.nx; ++ix) {
        for (std::size_t iy = 0; iy < p.ny; ++iy) {
          for (std::size_t iz = 0; iz < p.nz; ++iz) {
            const std::size_t ig = (p.gravity_axis == 0)   ? ix
                                   : (p.gravity_axis == 1) ? iy
                                                           : iz;
            rho[shape.index(ix, iy, iz)] +=
                p.density_gradient * static_cast<double>(ig) /
                static_cast<double>(ng);
          }
        }
      }
      snap.add("rho", std::move(rho));
    }

    if (p.with_pressure) {
      snap.add("p", pressure_poisson(snap));
    }
    if (p.native_f32) {
      for (const auto& name : snap.names()) {
        for (double& x : snap.get(name).data()) {
          x = static_cast<double>(static_cast<float>(x));
        }
      }
    }
    return snap;
  }
};

SpectralTurbulenceProducer::SpectralTurbulenceProducer(
    const SpectralTurbulenceParams& p)
    : impl_(std::make_unique<Impl>(p)) {}

SpectralTurbulenceProducer::~SpectralTurbulenceProducer() = default;

std::size_t SpectralTurbulenceProducer::num_snapshots() const {
  return impl_->params.snapshots;
}

std::optional<field::Snapshot> SpectralTurbulenceProducer::next() {
  if (impl_->produced >= impl_->params.snapshots) return std::nullopt;
  return impl_->realize_step(impl_->produced++);
}

namespace {

SpectralTurbulenceParams stratified_spectral_params(
    const StratifiedParams& p) {
  SpectralTurbulenceParams sp;
  sp.nx = p.nx;
  sp.ny = p.ny;
  sp.nz = p.nz;
  sp.snapshots = p.snapshots;
  sp.anisotropy = p.anisotropy;
  sp.vertical_damping = p.vertical_damping;
  sp.intermittency = p.intermittency;
  sp.gravity_axis = 2;
  sp.with_density = true;
  sp.with_pressure = true;
  sp.seed = p.seed;
  return sp;
}

SpectralTurbulenceParams isotropic_spectral_params(const IsotropicParams& p) {
  SpectralTurbulenceParams sp;
  sp.nx = sp.ny = sp.nz = p.n;
  sp.snapshots = p.snapshots;
  sp.anisotropy = 1.0;
  sp.vertical_damping = 1.0;
  sp.intermittency = p.intermittency;
  sp.with_density = false;
  sp.with_pressure = true;
  sp.seed = p.seed;
  return sp;
}

}  // namespace

StratifiedProducer::StratifiedProducer(const StratifiedParams& p)
    : base_(stratified_spectral_params(p)) {}

std::optional<field::Snapshot> StratifiedProducer::next() {
  auto snap = base_.next();
  if (!snap) return std::nullopt;
  field::add_potential_vorticity_3d(*snap);
  field::add_dissipation_3d(*snap);
  return snap;
}

IsotropicProducer::IsotropicProducer(const IsotropicParams& p)
    : base_(isotropic_spectral_params(p)) {}

std::optional<field::Snapshot> IsotropicProducer::next() {
  auto snap = base_.next();
  if (!snap) return std::nullopt;
  field::add_enstrophy_3d(*snap);
  field::add_dissipation_3d(*snap);
  return snap;
}

}  // namespace sickle::flow
