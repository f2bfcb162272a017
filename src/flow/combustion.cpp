#include "flow/combustion.hpp"

#include <cmath>
#include <numbers>

#include "common/mathx.hpp"

namespace sickle::flow {

std::optional<field::Snapshot> CombustionProducer::next() {
  if (produced_) return std::nullopt;
  produced_ = true;
  const CombustionParams& p = params_;
  Rng rng(p.seed);

  const field::GridShape shape{p.nx, p.ny, 1};
  field::Snapshot snap(shape, 0.0);
  auto& c_field = snap.add("C");
  auto& v_field = snap.add("Cvar");

  // Wrinkled front: y0(x) = 0.5 + sum_m A_m sin(2 pi m x + phi_m), with a
  // k^-2 amplitude roll-off so large scales dominate (flame-surface
  // spectra are steep).
  std::vector<double> amp(p.wrinkle_modes), phase(p.wrinkle_modes);
  for (std::size_t m = 0; m < p.wrinkle_modes; ++m) {
    const double k = static_cast<double>(m + 1);
    amp[m] = p.wrinkle_amplitude / (k * k) * rng.normal(1.0, 0.25);
    phase[m] = rng.uniform(0.0, 2.0 * std::numbers::pi);
  }

  const double delta = p.flame_thickness;
  for (std::size_t ix = 0; ix < p.nx; ++ix) {
    const double x = static_cast<double>(ix) / static_cast<double>(p.nx);
    double y0 = 0.5;
    for (std::size_t m = 0; m < p.wrinkle_modes; ++m) {
      y0 += amp[m] *
            std::sin(2.0 * std::numbers::pi * static_cast<double>(m + 1) * x +
                     phase[m]);
    }
    for (std::size_t iy = 0; iy < p.ny; ++iy) {
      const double y = static_cast<double>(iy) / static_cast<double>(p.ny);
      // Progress variable: 0 unburnt below the front, 1 burnt above.
      const double c =
          0.5 * (1.0 + std::tanh((y - y0) / delta)) +
          0.01 * rng.normal();
      const double cc = std::clamp(c, 0.0, 1.0);
      c_field.at(ix, iy) = cc;
      // Filtered variance peaks inside the flame brush: ~ C(1-C) scaled,
      // plus weak noise so the variance PDF has tails.
      v_field.at(ix, iy) =
          std::max(0.0, 0.25 * cc * (1.0 - cc) + 0.002 * rng.normal());
    }
  }
  return snap;
}

}  // namespace sickle::flow
