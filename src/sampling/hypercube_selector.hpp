/// @file hypercube_selector.hpp
/// @brief Phase-1 hypercube selection (the paper's H* methods).
///
/// Hrandom draws cubes uniformly; Hmaxent follows Fig. 3's left column:
///   1. MiniBatchKMeans on the cluster variable over the whole snapshot
///      (subsampled for tractability);
///   2. per-cube PMFs over the cluster labels;
///   3. KL adjacency between cube distributions, node strengths (Eq. 2);
///   4. entropy/strength-weighted random draw of num_hypercubes cubes.
///
/// The SPMD variant decomposes step 2 over ranks (each rank owns a block of
/// cubes), allgathers the PMFs, and every rank performs the identical
/// weighted draw — making the selection independent of rank count.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "energy/energy.hpp"
#include "field/field_source.hpp"
#include "field/hypercube.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/world.hpp"

namespace sickle::sampling {

/// Every HypercubeSelectorConfig::method that select_hypercubes accepts.
inline constexpr std::array<std::string_view, 3> kHypercubeMethods = {
    "random", "maxent", "entropy"};

struct HypercubeSelectorConfig {
  std::string method = "maxent";    ///< one of kHypercubeMethods
  std::size_t num_hypercubes = 32;
  std::string cluster_var;
  std::size_t num_clusters = 20;
  std::uint64_t seed = 0;
  energy::EnergyCounter* energy = nullptr;
  /// Pool for the fused cube-scoring fan-out (label counting + KL rows);
  /// nullptr runs serial. Selections are bit-identical either way: the
  /// clustering fit (all RNG consumption) happens before the fan-out and
  /// every cube/row reduces into its own slot. A pooled run gathers from
  /// the source concurrently, so the source must be thread-safe (Snapshot
  /// sources are read-only; store::ChunkReader shards its cache).
  ThreadPool* pool = nullptr;
};

/// Select cube flat-ids from the tiling of `snap`. Serial entry point.
[[nodiscard]] std::vector<std::size_t> select_hypercubes(
    const field::Snapshot& snap, const field::CubeTiling& tiling,
    const HypercubeSelectorConfig& cfg);

/// Source-based serial entry point: identical selection to the Snapshot
/// overload for equal data (the Snapshot overload delegates here). Values
/// are fetched with FieldSource::gather, so a chunked on-disk source never
/// materializes the whole grid.
[[nodiscard]] std::vector<std::size_t> select_hypercubes(
    const field::FieldSource& src, const field::CubeTiling& tiling,
    const HypercubeSelectorConfig& cfg);

/// SPMD entry point: must be called by every rank of `comm` collectively;
/// all ranks return the identical selection.
[[nodiscard]] std::vector<std::size_t> select_hypercubes(
    const field::Snapshot& snap, const field::CubeTiling& tiling,
    const HypercubeSelectorConfig& cfg, Comm& comm);

}  // namespace sickle::sampling
