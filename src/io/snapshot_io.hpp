/// @file snapshot_io.hpp
/// @brief Sampled-subset storage (flat SKS1 sample files).
///
/// One of SICKLE's practical benefits is storage reduction: a feature-rich
/// subsampled dataset occupies a small fraction of the raw DNS checkpoint.
/// This module stores sampled subsets; full snapshots go to the chunked
/// compressed SKL2 container in store/snapshot_store.hpp.
///
/// Layout (little-endian, host order — single-platform scientific format):
///   magic "SKS1" | u64 npoints | u64 nvars | per var: u32 name_len | name
///   bytes | npoints u64 indices | features f64 row-major [npoints][nvars].
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sickle::io {

/// Sampled subset: global indices plus per-point feature rows.
struct SampleFile {
  std::vector<std::string> variables;
  std::vector<std::uint64_t> indices;
  std::vector<double> features;  ///< row-major [n][variables.size()]

  [[nodiscard]] std::size_t points() const noexcept {
    return indices.size();
  }
};

/// Write a sample set; returns bytes written. Throws RuntimeError on I/O
/// failure.
std::size_t save_samples(const SampleFile& samples, const std::string& path);

/// Read a sample set written by save_samples. Throws RuntimeError on a
/// missing, foreign or truncated file, including one whose header counts
/// more points than the rest of the file holds. No program here reads SKS1:
/// it is the format `sickle_subsample --output` writes for outside readers,
/// and this is its reference reader, which the round-trip and
/// crafted-header tests use to pin the layout above.
[[nodiscard]] SampleFile load_samples(const std::string& path);

/// Size of a file on disk in bytes (0 if missing).
[[nodiscard]] std::size_t file_bytes(const std::string& path);

}  // namespace sickle::io
