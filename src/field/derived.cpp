#include "field/derived.hpp"

#include "common/error.hpp"
#include "common/mathx.hpp"

namespace sickle::field {

std::vector<double> central_derivative(const Field& f, int axis) {
  SICKLE_CHECK(axis >= 0 && axis <= 2);
  const GridShape& s = f.shape();
  std::vector<double> out(s.size(), 0.0);
  const std::ptrdiff_t dx = (axis == 0) ? 1 : 0;
  const std::ptrdiff_t dy = (axis == 1) ? 1 : 0;
  const std::ptrdiff_t dz = (axis == 2) ? 1 : 0;
  for (std::size_t ix = 0; ix < s.nx; ++ix) {
    for (std::size_t iy = 0; iy < s.ny; ++iy) {
      for (std::size_t iz = 0; iz < s.nz; ++iz) {
        const auto x = static_cast<std::ptrdiff_t>(ix);
        const auto y = static_cast<std::ptrdiff_t>(iy);
        const auto z = static_cast<std::ptrdiff_t>(iz);
        out[s.index(ix, iy, iz)] =
            0.5 * (f.at_periodic(x + dx, y + dy, z + dz) -
                   f.at_periodic(x - dx, y - dy, z - dz));
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
