/// @file chunk_layout.hpp
/// @brief Fixed-size 3D chunk decomposition of a grid for the SKL2 store.
///
/// Unlike sampling's CubeTiling (which drops trailing partial cubes), the
/// store must cover every grid point, so edge chunks are allowed to be
/// partial. Chunk interiors are serialized z-fastest, matching the grid's
/// global index order, so spatially adjacent values stay adjacent for the
/// delta codec.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "field/field.hpp"

namespace sickle::store {

/// Maps global flat grid indices to (chunk id, local offset) and back.
class ChunkLayout {
 public:
  /// `chunk` holds the nominal chunk edge lengths; edges are clamped to the
  /// grid extents, so an oversized chunk spec degrades to one chunk.
  ChunkLayout(field::GridShape grid, field::GridShape chunk)
      : grid_(grid),
        chunk_{std::min(chunk.nx, grid.nx), std::min(chunk.ny, grid.ny),
               std::min(chunk.nz, grid.nz)} {
    SICKLE_CHECK_MSG(grid_.size() > 0, "cannot chunk an empty grid");
    SICKLE_CHECK_MSG(chunk_.nx > 0 && chunk_.ny > 0 && chunk_.nz > 0,
                     "chunk edges must be positive");
    ncx_ = (grid_.nx + chunk_.nx - 1) / chunk_.nx;
    ncy_ = (grid_.ny + chunk_.ny - 1) / chunk_.ny;
    ncz_ = (grid_.nz + chunk_.nz - 1) / chunk_.nz;
  }

  [[nodiscard]] const field::GridShape& grid() const noexcept {
    return grid_;
  }
  /// Nominal (interior) chunk edge lengths.
  [[nodiscard]] const field::GridShape& chunk_shape() const noexcept {
    return chunk_;
  }
  [[nodiscard]] std::size_t count() const noexcept {
    return ncx_ * ncy_ * ncz_;
  }
  [[nodiscard]] std::size_t chunks_x() const noexcept { return ncx_; }
  [[nodiscard]] std::size_t chunks_y() const noexcept { return ncy_; }
  [[nodiscard]] std::size_t chunks_z() const noexcept { return ncz_; }

  /// Extents of one chunk: grid origin + actual edge lengths (edge chunks
  /// may be smaller than the nominal shape).
  struct Box {
    std::size_t x0 = 0, y0 = 0, z0 = 0;
    std::size_t ex = 0, ey = 0, ez = 0;
    [[nodiscard]] std::size_t points() const noexcept { return ex * ey * ez; }
  };

  [[nodiscard]] Box box(std::size_t chunk_id) const {
    SICKLE_CHECK(chunk_id < count());
    const std::size_t ccz = chunk_id % ncz_;
    const std::size_t ccy = (chunk_id / ncz_) % ncy_;
    const std::size_t ccx = chunk_id / (ncz_ * ncy_);
    Box b;
    b.x0 = ccx * chunk_.nx;
    b.y0 = ccy * chunk_.ny;
    b.z0 = ccz * chunk_.nz;
    b.ex = std::min(chunk_.nx, grid_.nx - b.x0);
    b.ey = std::min(chunk_.ny, grid_.ny - b.y0);
    b.ez = std::min(chunk_.nz, grid_.nz - b.z0);
    return b;
  }

  /// Where one global flat grid index lives in the store: its chunk, its
  /// position in that chunk's z-fastest serialization, and how many
  /// points its chunk row holds from it on (itself included). Flat
  /// indices flat .. flat + row_left - 1 are consecutive in the chunk
  /// too, so one location serves a whole z-run.
  struct Location {
    std::size_t chunk = 0;
    std::size_t offset = 0;
    std::size_t row_left = 0;
  };

  /// Locate a global flat grid index; throws CheckError when it lies
  /// outside the grid.
  [[nodiscard]] Location locate(std::size_t flat) const {
    SICKLE_CHECK_MSG(flat < grid_.size(), "grid index out of range");
    const std::size_t iz = flat % grid_.nz;
    const std::size_t xy = flat / grid_.nz;
    const std::size_t iy = xy % grid_.ny;
    const std::size_t ix = xy / grid_.ny;
    const std::size_t cx = ix / chunk_.nx;
    const std::size_t cy = iy / chunk_.ny;
    const std::size_t cz = iz / chunk_.nz;
    const std::size_t y0 = cy * chunk_.ny;
    const std::size_t z0 = cz * chunk_.nz;
    const std::size_t ey = std::min(chunk_.ny, grid_.ny - y0);
    const std::size_t ez = std::min(chunk_.nz, grid_.nz - z0);
    return {(cx * ncy_ + cy) * ncz_ + cz,
            ((ix - cx * chunk_.nx) * ey + (iy - y0)) * ez + (iz - z0),
            z0 + ez - iz};
  }

 private:
  field::GridShape grid_;
  field::GridShape chunk_;
  std::size_t ncx_ = 1, ncy_ = 1, ncz_ = 1;
};

/// Append one POD value's bytes to a serialization buffer — shared by the
/// SKL2 and SKL3 index-section builders so the two cannot drift.
template <typename T>
void append_pod(std::vector<std::uint8_t>& buf, const T& v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  buf.insert(buf.end(), p, p + sizeof(T));
}

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a 64-bit over a byte range — the integrity checksum guarding the
/// SKL2/SKL3 index sections and every block payload (and any other store
/// metadata that must fail loudly on a corrupt byte rather than decode
/// garbage).
[[nodiscard]] inline std::uint64_t fnv1a64(
    std::span<const std::uint8_t> bytes,
    std::uint64_t seed = kFnvOffsetBasis) {
  std::uint64_t h = seed;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

/// fnv1a64 of every buffer: out[i] == fnv1a64(bufs[i]). Each byte of one
/// chain waits on the previous byte's 64-bit multiply, so the buffers go
/// four at a time with their chains interleaved over the shortest one's
/// length — four independent multiplies in flight — and each tail past it
/// finishes alone. Throws CheckError when the spans differ in size.
inline void fnv1a64_many(std::span<const std::span<const std::uint8_t>> bufs,
                         std::span<std::uint64_t> out) {
  SICKLE_CHECK(out.size() == bufs.size());
  std::size_t i = 0;
  for (; i + 4 <= bufs.size(); i += 4) {
    const auto* b = &bufs[i];
    const std::size_t common = std::min(std::min(b[0].size(), b[1].size()),
                                        std::min(b[2].size(), b[3].size()));
    std::uint64_t h0 = kFnvOffsetBasis, h1 = h0, h2 = h0, h3 = h0;
    for (std::size_t k = 0; k < common; ++k) {
      h0 = (h0 ^ b[0][k]) * kFnvPrime;
      h1 = (h1 ^ b[1][k]) * kFnvPrime;
      h2 = (h2 ^ b[2][k]) * kFnvPrime;
      h3 = (h3 ^ b[3][k]) * kFnvPrime;
    }
    out[i] = fnv1a64(b[0].subspan(common), h0);
    out[i + 1] = fnv1a64(b[1].subspan(common), h1);
    out[i + 2] = fnv1a64(b[2].subspan(common), h2);
    out[i + 3] = fnv1a64(b[3].subspan(common), h3);
  }
  for (; i < bufs.size(); ++i) out[i] = fnv1a64(bufs[i]);
}

/// Copy one chunk's values out of a full field, z-fastest within the box —
/// the writer-side twin of ChunkLayout::locate, shared by the SKL2 and
/// SKL3 writers.
[[nodiscard]] inline std::vector<double> extract_chunk(
    std::span<const double> data, const field::GridShape& grid,
    const ChunkLayout::Box& b) {
  std::vector<double> vals(b.points());
  std::size_t k = 0;
  for (std::size_t ix = b.x0; ix < b.x0 + b.ex; ++ix) {
    for (std::size_t iy = b.y0; iy < b.y0 + b.ey; ++iy) {
      const double* row = data.data() + grid.index(ix, iy, b.z0);
      for (std::size_t iz = 0; iz < b.ez; ++iz) vals[k++] = row[iz];
    }
  }
  return vals;
}

/// Assemble one full field from its chunks — the reader-side twin of
/// extract_chunk, shared by ChunkReader::load_field and
/// SeriesReader::load_snapshot. `fetch(chunk_id)` returns a shared pointer
/// to the chunk's z-fastest values (the reader's cached decode); every
/// chunk is fetched once, in chunk-id order.
template <typename Fetch>
[[nodiscard]] std::vector<double> assemble_field(const ChunkLayout& layout,
                                                 Fetch&& fetch) {
  const auto& grid = layout.grid();
  std::vector<double> out(grid.size());
  for (std::size_t c = 0; c < layout.count(); ++c) {
    const auto b = layout.box(c);
    const auto values = fetch(c);
    std::size_t k = 0;
    for (std::size_t ix = b.x0; ix < b.x0 + b.ex; ++ix) {
      for (std::size_t iy = b.y0; iy < b.y0 + b.ey; ++iy) {
        double* row = out.data() + grid.index(ix, iy, b.z0);
        for (std::size_t iz = 0; iz < b.ez; ++iz) row[iz] = (*values)[k++];
      }
    }
  }
  return out;
}

/// The gather behind every chunked reader (ChunkReader, SeriesSnapshotView):
/// out[i] = the value at global flat index idx[i], in request order.
///
/// The request is split into z-runs — consecutive flat indices inside one
/// chunk row, which are consecutive inside the chunk too — and each run is
/// located once. The runs are visited grouped by chunk id, so
/// `fetch(chunk_id)` (the reader's cached decode, returning a shared
/// pointer to the block's values) runs once per distinct chunk per call,
/// whatever the index order; a request already grouped (one chunk, or runs
/// in ascending chunk order) is found so and not sorted. Scratch is one
/// entry per run, and only one block is held at a time. Throws CheckError
/// when the spans differ in size or an index lies outside the grid.
template <typename Fetch>
void gather_runs(const ChunkLayout& layout, std::span<const std::size_t> idx,
                 std::span<double> out, Fetch&& fetch) {
  SICKLE_CHECK(out.size() == idx.size());
  struct Run {
    std::size_t chunk;
    std::size_t offset;
    std::size_t pos;  ///< first request slot
    std::size_t len;
  };
  std::vector<Run> runs;
  bool grouped = true;
  for (std::size_t i = 0; i < idx.size();) {
    const auto loc = layout.locate(idx[i]);
    std::size_t len = 1;
    while (len < loc.row_left && i + len < idx.size() &&
           idx[i + len] == idx[i] + len) {
      ++len;
    }
    if (!runs.empty() && loc.chunk < runs.back().chunk) grouped = false;
    runs.push_back({loc.chunk, loc.offset, i, len});
    i += len;
  }
  if (!grouped) {
    std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
      return a.chunk < b.chunk;
    });
  }
  for (std::size_t r = 0; r < runs.size();) {
    const std::size_t chunk = runs[r].chunk;
    const auto values = fetch(chunk);
    for (; r < runs.size() && runs[r].chunk == chunk; ++r) {
      std::copy_n(values->data() + runs[r].offset, runs[r].len,
                  out.data() + runs[r].pos);
    }
  }
}

}  // namespace sickle::store
