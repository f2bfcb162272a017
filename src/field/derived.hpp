// Derived flow variables (Table 1's K-means cluster variables).
//
// The datasets cluster on quantities the raw snapshots do not carry:
// vorticity (OF2D), potential vorticity (SST-P1F4), density (SST-P1F100),
// enstrophy (GESTS). These are computed from the primitive fields with
// 2nd-order central differences on a periodic unit-spaced grid — adequate
// for sampling statistics (the sampler only consumes their distribution).
#pragma once

#include <string>

#include "field/field.hpp"

namespace sickle::field {

/// 2D z-vorticity  wz = dv/dx - du/dy  from fields "u", "v".
/// Adds (or overwrites) field `out` on the snapshot.
void add_vorticity_2d(Snapshot& snap, const std::string& out = "wz");

/// Enstrophy  Omega = |curl u|^2 / 2.
void add_enstrophy_3d(Snapshot& snap, const std::string& out = "enstrophy");

/// Pseudo dissipation rate  eps = sum_ij (du_i/dx_j)^2  (unit viscosity).
void add_dissipation_3d(Snapshot& snap, const std::string& out = "eps");

/// Linearized potential vorticity for stratified flow:
///   q = wz_3d . grad(rho) ~ (dv/dx - du/dy) * drho/dg + ...
/// computed as full curl(u) . grad(rho), with "rho" the density field.
void add_potential_vorticity_3d(Snapshot& snap,
                                const std::string& out = "pv");

/// Central-difference derivative of `f` along axis (0=x,1=y,2=z), periodic,
/// unit grid spacing.
[[nodiscard]] std::vector<double> central_derivative(const Field& f, int axis);

}  // namespace sickle::field
