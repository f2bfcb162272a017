// OF2D substitute: 2D laminar flow over a cylinder with vortex shedding.
//
// The paper's OF2D case is an OpenFOAM DNS at Re = 1267 (10800 grid points,
// 100 snapshots, drag as the learning target). OpenFOAM is unavailable
// offline, so we synthesize the same statistical structure analytically:
// potential flow around the cylinder superposed with a von Kármán vortex
// street of Lamb–Oseen vortices advecting downstream, plus the periodic
// drag signal shedding produces. This preserves exactly what SICKLE
// consumes: a wake-dominated anisotropic (u, v, p, wz) field whose
// interesting samples concentrate in the wake, and a drag target correlated
// with the flowfield phase.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "field/field.hpp"
#include "flow/producer.hpp"

namespace sickle::flow {

struct CylinderWakeParams {
  std::size_t nx = 120;        ///< streamwise points (120*90 = 10800, Table 1)
  std::size_t ny = 90;         ///< cross-stream points
  std::size_t snapshots = 100;
  double reynolds = 1267.0;
  double u_infinity = 1.0;
  double radius = 0.5;
  double domain_x0 = -2.0;     ///< domain [x0, x1] x [-y1, y1]
  double domain_x1 = 10.0;
  double domain_y1 = 2.25;
  double strouhal = 0.21;      ///< shedding frequency St = f D / U
  double vortex_strength = 1.8;
  double noise = 0.005;        ///< measurement-like noise amplitude
  std::uint64_t seed = 42;
};

/// Generate the OF2D dataset: snapshots carry u, v, p, wz; per-snapshot
/// drag coefficient is stored in `drag` (the sample-single target).
struct CylinderWake {
  field::Dataset dataset{"OF2D"};
  std::vector<double> drag;    ///< one value per snapshot
  std::vector<double> times;
};

[[nodiscard]] CylinderWake generate_cylinder_wake(
    const CylinderWakeParams& params);

/// Snapshot-at-a-time wake synthesis. The measurement-noise RNG stream
/// advances with each produced snapshot, so producing in order yields the
/// same bits as generate_cylinder_wake, which materializes this producer
/// and also returns its drag and times.
/// Per-snapshot drag accumulates in scalar_target() as snapshots are
/// produced — the sample-single learning target.
class CylinderWakeProducer final : public SnapshotProducer {
 public:
  explicit CylinderWakeProducer(const CylinderWakeParams& params);

  [[nodiscard]] std::size_t num_snapshots() const override {
    return params_.snapshots;
  }
  [[nodiscard]] std::optional<field::Snapshot> next() override;
  [[nodiscard]] std::vector<double> scalar_target() const override {
    return drag_;
  }
  [[nodiscard]] const std::vector<double>& times() const noexcept {
    return times_;
  }

 private:
  CylinderWakeParams params_;
  Rng rng_;
  std::size_t produced_ = 0;
  std::vector<double> drag_;
  std::vector<double> times_;
};

}  // namespace sickle::flow
