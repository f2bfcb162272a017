// Scattered gather requests shared by the ChunkReader and SeriesReader
// ScatteredGather tests: the request shapes callers send a chunked reader,
// the grids they run over, and the number of distinct chunks each request
// touches.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "field/field.hpp"

namespace sickle::store::testing {

/// A grid and the chunk shape it is stored in.
struct GatherGrid {
  field::GridShape grid;
  field::GridShape chunk;
};

/// 10x6x5 in 4^3 chunks leaves partial edge chunks on every axis; 8x8x8
/// in 4^3 chunks divides exactly.
inline std::vector<GatherGrid> gather_grids() {
  return {{{10, 6, 5}, {4, 4, 4}}, {{8, 8, 8}, {4, 4, 4}}};
}

/// Chunks in one field of `g` (edge chunks included).
inline std::size_t chunk_count(const GatherGrid& g) {
  return ((g.grid.nx + g.chunk.nx - 1) / g.chunk.nx) *
         ((g.grid.ny + g.chunk.ny - 1) / g.chunk.ny) *
         ((g.grid.nz + g.chunk.nz - 1) / g.chunk.nz);
}

/// Distinct chunks a request touches, counted from grid coordinates alone
/// (independently of ChunkLayout::locate).
inline std::size_t distinct_chunks(const GatherGrid& g,
                                   const std::vector<std::size_t>& idx) {
  const std::size_t ncy = (g.grid.ny + g.chunk.ny - 1) / g.chunk.ny;
  const std::size_t ncz = (g.grid.nz + g.chunk.nz - 1) / g.chunk.nz;
  std::set<std::size_t> chunks;
  for (const std::size_t flat : idx) {
    const std::size_t iz = flat % g.grid.nz;
    const std::size_t iy = (flat / g.grid.nz) % g.grid.ny;
    const std::size_t ix = flat / (g.grid.nz * g.grid.ny);
    chunks.insert(((ix / g.chunk.nx) * ncy + iy / g.chunk.ny) * ncz +
                  iz / g.chunk.nz);
  }
  return chunks.size();
}

/// One named request.
struct GatherPattern {
  std::string name;
  std::vector<std::size_t> idx;
};

/// The request table: every grid point in random order (touches every
/// chunk), every point in descending order, duplicates (back to back and
/// again later), one contiguous flat range whose z-runs cross chunk
/// boundaries and row ends, a 4^3 cube straddling 2x2x2 chunks, a single
/// index and an empty request.
inline std::vector<GatherPattern> gather_patterns(const field::GridShape& g,
                                                  std::uint64_t seed) {
  const std::size_t n = g.size();
  Rng rng(seed);
  std::vector<GatherPattern> out;

  std::vector<std::size_t> shuffled(n);
  std::iota(shuffled.begin(), shuffled.end(), std::size_t{0});
  rng.shuffle(std::span<std::size_t>(shuffled));
  out.push_back({"random_every_chunk", shuffled});

  std::vector<std::size_t> descending(n);
  for (std::size_t i = 0; i < n; ++i) descending[i] = n - 1 - i;
  out.push_back({"descending", descending});

  std::vector<std::size_t> dups;
  for (std::size_t k = 0; k < 40; ++k) {
    const std::size_t i = rng.uniform_int(n);
    dups.push_back(i);
    dups.push_back(i);
  }
  const std::vector<std::size_t> again(dups.begin(), dups.begin() + 20);
  dups.insert(dups.end(), again.begin(), again.end());
  out.push_back({"duplicates", dups});

  std::vector<std::size_t> range(2 * g.ny * g.nz + 3);
  std::iota(range.begin(), range.end(), g.index(1, 1, 1));
  out.push_back({"runs_cross_z_chunks", range});

  std::vector<std::size_t> cube;
  for (std::size_t ix = 2; ix < std::min<std::size_t>(6, g.nx); ++ix) {
    for (std::size_t iy = 2; iy < std::min<std::size_t>(6, g.ny); ++iy) {
      for (std::size_t iz = 2; iz < std::min<std::size_t>(6, g.nz); ++iz) {
        cube.push_back(g.index(ix, iy, iz));
      }
    }
  }
  out.push_back({"cube_straddling_chunks", cube});

  out.push_back({"single_index", {n - 1}});
  out.push_back({"empty", {}});
  return out;
}

}  // namespace sickle::store::testing
