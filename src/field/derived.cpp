#include "field/derived.hpp"

#include "common/error.hpp"
#include "common/mathx.hpp"

namespace sickle::field {

std::vector<double> central_derivative(const Field& f, int axis) {
  SICKLE_CHECK(axis >= 0 && axis <= 2);
  const GridShape& s = f.shape();
  const std::span<const double> src = f.data();
  std::vector<double> out(s.size(), 0.0);
  // The grid as (outer, n, inner) around the derivative axis: point i of
  // line (o, r) sits at (o * n + i) * inner + r.
  const std::size_t n = (axis == 0) ? s.nx : (axis == 1) ? s.ny : s.nz;
  const std::size_t inner = (axis == 0)   ? s.ny * s.nz
                            : (axis == 1) ? s.nz
                                          : 1;
  const std::size_t outer = (axis == 0)   ? 1
                            : (axis == 1) ? s.nx
                                          : s.nx * s.ny;
  for (std::size_t o = 0; o < outer; ++o) {
    const double* line = src.data() + o * n * inner;
    double* dst = out.data() + o * n * inner;
    // Rows of `inner` contiguous points (one point along z); the first
    // and last rows wrap.
    for (std::size_t i = 0; i < n; ++i) {
      const double* plus = line + ((i + 1 == n) ? 0 : i + 1) * inner;
      const double* minus = line + ((i == 0) ? n - 1 : i - 1) * inner;
      double* row = dst + i * inner;
      for (std::size_t r = 0; r < inner; ++r) {
        row[r] = 0.5 * (plus[r] - minus[r]);
      }
    }
  }
  return out;
}

namespace {

void replace_or_add(Snapshot& snap, const std::string& name,
                    std::vector<double> data) {
  if (snap.has(name)) {
    auto dst = snap.get(name).data();
    std::copy(data.begin(), data.end(), dst.begin());
  } else {
    snap.add(name, std::move(data));
  }
}

}  // namespace

void add_vorticity_2d(Snapshot& snap, const std::string& out) {
  SICKLE_CHECK_MSG(snap.shape().is_2d(), "add_vorticity_2d needs a 2D grid");
  const auto dvdx = central_derivative(snap.get("v"), 0);
  const auto dudy = central_derivative(snap.get("u"), 1);
  std::vector<double> wz(dvdx.size());
  for (std::size_t i = 0; i < wz.size(); ++i) wz[i] = dvdx[i] - dudy[i];
  replace_or_add(snap, out, std::move(wz));
}

namespace {

/// curl(u) components on the snapshot grid.
struct Curl {
  std::vector<double> x, y, z;
};

Curl curl_3d(const Snapshot& snap) {
  const auto dwdy = central_derivative(snap.get("w"), 1);
  const auto dvdz = central_derivative(snap.get("v"), 2);
  const auto dudz = central_derivative(snap.get("u"), 2);
  const auto dwdx = central_derivative(snap.get("w"), 0);
  const auto dvdx = central_derivative(snap.get("v"), 0);
  const auto dudy = central_derivative(snap.get("u"), 1);
  Curl c;
  const std::size_t n = dwdy.size();
  c.x.resize(n);
  c.y.resize(n);
  c.z.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    c.x[i] = dwdy[i] - dvdz[i];
    c.y[i] = dudz[i] - dwdx[i];
    c.z[i] = dvdx[i] - dudy[i];
  }
  return c;
}

}  // namespace

void add_enstrophy_3d(Snapshot& snap, const std::string& out) {
  const Curl c = curl_3d(snap);
  std::vector<double> ens(c.x.size());
  for (std::size_t i = 0; i < ens.size(); ++i) {
    ens[i] = 0.5 * (sqr(c.x[i]) + sqr(c.y[i]) + sqr(c.z[i]));
  }
  replace_or_add(snap, out, std::move(ens));
}

void add_dissipation_3d(Snapshot& snap, const std::string& out) {
  std::vector<double> eps(snap.shape().size(), 0.0);
  for (const char* var : {"u", "v", "w"}) {
    for (int axis = 0; axis < 3; ++axis) {
      const auto g = central_derivative(snap.get(var), axis);
      for (std::size_t i = 0; i < eps.size(); ++i) eps[i] += sqr(g[i]);
    }
  }
  replace_or_add(snap, out, std::move(eps));
}

void add_potential_vorticity_3d(Snapshot& snap, const std::string& out) {
  const Curl c = curl_3d(snap);
  const auto drdx = central_derivative(snap.get("rho"), 0);
  const auto drdy = central_derivative(snap.get("rho"), 1);
  const auto drdz = central_derivative(snap.get("rho"), 2);
  std::vector<double> pv(c.x.size());
  for (std::size_t i = 0; i < pv.size(); ++i) {
    pv[i] = c.x[i] * drdx[i] + c.y[i] * drdy[i] + c.z[i] * drdz[i];
  }
  replace_or_add(snap, out, std::move(pv));
}

}  // namespace sickle::field
