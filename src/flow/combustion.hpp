// TC2D substitute: 2D turbulent premixed combustion progress variable.
//
// The paper's TC2D dataset (Hassanaly et al.) carries the progress variable
// C in [0, 1] and its filtered variance — a strongly bimodal distribution
// (unburnt ~0, burnt ~1) with a thin, wrinkled flame brush in between. UIPS
// was designed on exactly this structure, so the substitute reproduces it:
// a tanh flame front wrinkled by a multiscale sinusoid spectrum, with the
// subgrid variance peaking inside the brush.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "field/field.hpp"
#include "flow/producer.hpp"

namespace sickle::flow {

struct CombustionParams {
  std::size_t nx = 632;  ///< 632*632 ~ 400k points (Table 1)
  std::size_t ny = 632;
  double flame_thickness = 0.02;  ///< fraction of domain height
  std::size_t wrinkle_modes = 12;
  double wrinkle_amplitude = 0.08;
  std::uint64_t seed = 7;
};

/// The single-snapshot TC2D generator: fields "C" (progress variable) and
/// "Cvar" (filtered variance of C).
class CombustionProducer final : public SnapshotProducer {
 public:
  explicit CombustionProducer(const CombustionParams& params)
      : params_(params) {}

  [[nodiscard]] std::size_t num_snapshots() const override { return 1; }
  [[nodiscard]] std::optional<field::Snapshot> next() override;

 private:
  CombustionParams params_;
  bool produced_ = false;
};

}  // namespace sickle::flow
