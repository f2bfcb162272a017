// Unit tests: grids, snapshots, hypercube tiling, derived variables.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "field/derived.hpp"
#include "field/field.hpp"
#include "field/hypercube.hpp"

namespace sickle::field {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(GridShape, IndexingIsZFastest) {
  GridShape s{4, 3, 2};
  EXPECT_EQ(s.size(), 24u);
  EXPECT_EQ(s.index(0, 0, 0), 0u);
  EXPECT_EQ(s.index(0, 0, 1), 1u);
  EXPECT_EQ(s.index(0, 1, 0), 2u);
  EXPECT_EQ(s.index(1, 0, 0), 6u);
}

TEST(Snapshot, AddAndRetrieveFields) {
  Snapshot snap({2, 2, 1}, 1.5);
  snap.add("u").at(1, 1) = 3.0;
  EXPECT_TRUE(snap.has("u"));
  EXPECT_FALSE(snap.has("v"));
  EXPECT_DOUBLE_EQ(snap.get("u").at(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(snap.time(), 1.5);
  EXPECT_THROW((void)snap.get("v"), CheckError);
  EXPECT_THROW(snap.add("u"), CheckError);
}

TEST(Dataset, EnforcesConsistentShapes) {
  Dataset ds("test");
  ds.push(Snapshot({4, 4, 1}));
  EXPECT_THROW(ds.push(Snapshot({8, 4, 1})), CheckError);
  EXPECT_EQ(ds.num_snapshots(), 1u);
}

TEST(Dataset, BytesCountsPayload) {
  Dataset ds("test");
  Snapshot s({10, 10, 1});
  s.add("u");
  s.add("v");
  ds.push(std::move(s));
  EXPECT_EQ(ds.bytes(), 2u * 100u * sizeof(double));
}

TEST(CubeTiling, CountsAndCoords) {
  CubeTiling tiling({64, 32, 16}, CubeSpec{16, 16, 16});
  EXPECT_EQ(tiling.tiles_x(), 4u);
  EXPECT_EQ(tiling.tiles_y(), 2u);
  EXPECT_EQ(tiling.tiles_z(), 1u);
  EXPECT_EQ(tiling.count(), 8u);
  for (std::size_t i = 0; i < tiling.count(); ++i) {
    EXPECT_EQ(tiling.flat(tiling.coord(i)), i);
  }
}

TEST(CubeTiling, DropsPartialCubes) {
  CubeTiling tiling({70, 33, 17}, CubeSpec{16, 16, 16});
  EXPECT_EQ(tiling.tiles_x(), 4u);
  EXPECT_EQ(tiling.tiles_y(), 2u);
  EXPECT_EQ(tiling.tiles_z(), 1u);
}

TEST(CubeTiling, GridSmallerThanCubeThrows) {
  EXPECT_THROW(CubeTiling({8, 8, 8}, CubeSpec{16, 16, 16}), CheckError);
}

TEST(CubeTiling, PointIndicesAreDistinctAndInCube) {
  GridShape grid{8, 8, 8};
  CubeTiling tiling(grid, CubeSpec{4, 4, 4});
  const auto idx = tiling.point_indices({1, 0, 1});
  EXPECT_EQ(idx.size(), 64u);
  std::set<std::size_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 64u);
  // All points in x in [4,8), y in [0,4), z in [4,8).
  for (const auto flat : idx) {
    const std::size_t iz = flat % 8;
    const std::size_t iy = (flat / 8) % 8;
    const std::size_t ix = flat / 64;
    EXPECT_GE(ix, 4u);
    EXPECT_LT(iy, 4u);
    EXPECT_GE(iz, 4u);
  }
}

TEST(CubeTiling, DisjointCubesPartitionGrid) {
  GridShape grid{8, 8, 8};
  CubeTiling tiling(grid, CubeSpec{4, 4, 4});
  std::set<std::size_t> all;
  for (std::size_t c = 0; c < tiling.count(); ++c) {
    for (const auto i : tiling.point_indices(tiling.coord(c))) {
      EXPECT_TRUE(all.insert(i).second) << "duplicate point across cubes";
    }
  }
  EXPECT_EQ(all.size(), grid.size());
}

TEST(ExtractCube, CarriesValuesAndIndices) {
  Snapshot snap({4, 4, 1});
  auto& f = snap.add("u");
  for (std::size_t ix = 0; ix < 4; ++ix) {
    for (std::size_t iy = 0; iy < 4; ++iy) {
      f.at(ix, iy) = static_cast<double>(ix * 10 + iy);
    }
  }
  CubeTiling tiling(snap.shape(), CubeSpec{2, 2, 1});
  const std::vector<std::string> vars{"u"};
  const auto cube = extract_cube(snap, tiling, {1, 1, 0}, vars);
  EXPECT_EQ(cube.points(), 4u);
  // Cube (1,1) covers ix in {2,3}, iy in {2,3}.
  EXPECT_DOUBLE_EQ(cube.values[0][0], 22.0);
  EXPECT_DOUBLE_EQ(cube.values[0][3], 33.0);
  const auto feat = cube.feature(0);
  EXPECT_DOUBLE_EQ(feat[0], 22.0);
}

TEST(Derived, CentralDerivativeOfSine) {
  const std::size_t n = 64;
  Snapshot snap({n, 4, 1});
  auto& f = snap.add("u");
  for (std::size_t ix = 0; ix < n; ++ix) {
    for (std::size_t iy = 0; iy < 4; ++iy) {
      f.at(ix, iy) = std::sin(2.0 * kPi * static_cast<double>(ix) / n);
    }
  }
  const auto df = central_derivative(f, 0);
  // d/dix sin(2 pi ix / n) = (2 pi / n) cos(...) in index units.
  const double k = 2.0 * kPi / static_cast<double>(n);
  for (std::size_t ix = 0; ix < n; ++ix) {
    EXPECT_NEAR(df[snap.shape().index(ix, 0, 0)],
                k * std::cos(k * static_cast<double>(ix)), 1e-3);
  }
}

/// The contiguous stencil must equal the textbook periodic one exactly on
/// every axis, including extents of 1 and 2, where both neighbours wrap
/// to the same point.
TEST(Derived, CentralDerivativeMatchesWrappedStencil) {
  const std::vector<GridShape> shapes = {
      {5, 3, 1}, {4, 2, 3}, {1, 1, 6}, {2, 2, 2}};
  Rng rng(12);
  for (const GridShape& s : shapes) {
    Field f("f", s);
    for (double& x : f.data()) x = rng.normal();
    const std::size_t extent[3] = {s.nx, s.ny, s.nz};
    for (int axis = 0; axis < 3; ++axis) {
      const auto got = central_derivative(f, axis);
      ASSERT_EQ(got.size(), s.size());
      for (std::size_t ix = 0; ix < s.nx; ++ix) {
        for (std::size_t iy = 0; iy < s.ny; ++iy) {
          for (std::size_t iz = 0; iz < s.nz; ++iz) {
            const std::size_t n = extent[axis];
            std::size_t plus[3] = {ix, iy, iz};
            std::size_t minus[3] = {ix, iy, iz};
            plus[axis] = (plus[axis] + 1) % n;
            minus[axis] = (minus[axis] + n - 1) % n;
            const double want = 0.5 * (f.at(plus[0], plus[1], plus[2]) -
                                       f.at(minus[0], minus[1], minus[2]));
            EXPECT_EQ(got[s.index(ix, iy, iz)], want)
                << s.nx << "x" << s.ny << "x" << s.nz << " axis " << axis
                << " at (" << ix << "," << iy << "," << iz << ")";
          }
        }
      }
    }
  }
}

TEST(Derived, VorticityOfRigidRotation) {
  // u = -y', v = x' around the grid centre => wz = 2 (in index units).
  const std::size_t n = 16;
  Snapshot snap({n, n, 1});
  auto& u = snap.add("u");
  auto& v = snap.add("v");
  const double c = (n - 1) / 2.0;
  for (std::size_t ix = 0; ix < n; ++ix) {
    for (std::size_t iy = 0; iy < n; ++iy) {
      u.at(ix, iy) = -(static_cast<double>(iy) - c);
      v.at(ix, iy) = static_cast<double>(ix) - c;
    }
  }
  add_vorticity_2d(snap);
  // Interior points (periodic wrap corrupts edges of this non-periodic
  // test flow).
  for (std::size_t ix = 2; ix < n - 2; ++ix) {
    for (std::size_t iy = 2; iy < n - 2; ++iy) {
      EXPECT_NEAR(snap.get("wz").at(ix, iy), 2.0, 1e-9);
    }
  }
}

TEST(Derived, EnstrophyNonNegative) {
  Snapshot snap({8, 8, 8});
  Rng rng(1);
  for (const char* v : {"u", "v", "w"}) {
    auto& f = snap.add(v);
    for (auto& x : f.data()) x = rng.normal();
  }
  add_enstrophy_3d(snap);
  for (const double e : snap.get("enstrophy").data()) {
    EXPECT_GE(e, 0.0);
  }
}

TEST(Derived, DissipationNonNegativeAndZeroForUniformFlow) {
  Snapshot snap({8, 8, 8});
  for (const char* v : {"u", "v", "w"}) {
    auto& f = snap.add(v);
    for (auto& x : f.data()) x = 3.0;  // uniform translation
  }
  add_dissipation_3d(snap);
  for (const double e : snap.get("eps").data()) {
    EXPECT_NEAR(e, 0.0, 1e-12);
  }
}

TEST(Derived, PotentialVorticityZeroForUnstratifiedUniformDensity) {
  Snapshot snap({8, 8, 8});
  Rng rng(2);
  for (const char* v : {"u", "v", "w"}) {
    auto& f = snap.add(v);
    for (auto& x : f.data()) x = rng.normal();
  }
  auto& rho = snap.add("rho");
  for (auto& x : rho.data()) x = 1.0;  // constant density -> zero gradient
  add_potential_vorticity_3d(snap);
  for (const double q : snap.get("pv").data()) {
    EXPECT_NEAR(q, 0.0, 1e-12);
  }
}

}  // namespace
}  // namespace sickle::field
