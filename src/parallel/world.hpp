// SPMD rank world: the repo's substitute for MPI.
//
// The paper runs SICKLE's sampler with `srun -n 1..512`. This machine has
// no MPI, so we reproduce the same programming model in-process: World
// launches one OS thread per rank, each executing the same function body
// with its own Comm handle; Comm provides the collective subset SICKLE
// uses (allgather, broadcast).
//
// Two kinds of timing come out of a run:
//   * per-rank CPU time (CLOCK_THREAD_CPUTIME_ID) — honest local work cost,
//     immune to oversubscription of the host's cores;
//   * a CommModel estimate of collective cost at the requested rank count.
// The scalability experiment (Fig. 7) reports
//   T(n) = max_r cpu_r + comm_model(n)
// which reproduces the paper's speedup/efficiency *shape* on a single node.
// This substitution is documented in DESIGN.md §2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/error.hpp"

namespace sickle {

/// Analytic collective-cost model (alpha-beta / Hockney).
///
/// Defaults approximate a Slingshot-class interconnect: ~2 us latency and
/// ~25 GB/s effective per-link bandwidth. These constants only shape the
/// modeled communication term; DESIGN.md calls them out as ablation knobs.
struct CommModel {
  double latency_s = 2e-6;        ///< per-message software+wire latency
  double seconds_per_byte = 4e-11;  ///< 1 / 25 GB/s

  /// Root gather of `total_bytes` spread across ranks.
  [[nodiscard]] double gather(std::size_t nranks, std::size_t total_bytes) const;
  /// Broadcast of `bytes` to all ranks (binomial tree).
  [[nodiscard]] double broadcast(std::size_t nranks, std::size_t bytes) const;
};

namespace detail {
struct WorldState;
}

/// Per-rank communicator handle, valid only inside World::run's body.
///
/// All collectives must be called by every rank in the same order (the MPI
/// contract). Payload element type is double or std::size_t / uint64 via
/// the typed overloads; that covers SICKLE's needs.
class Comm {
 public:
  [[nodiscard]] std::size_t rank() const noexcept { return rank_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool is_root() const noexcept { return rank_ == 0; }

  /// Concatenate every rank's vector on ALL ranks (allgatherv), ordered by
  /// rank. SICKLE's sampler uses this to assemble global sample sets.
  std::vector<double> allgather(const std::vector<double>& local);
  std::vector<std::size_t> allgather(const std::vector<std::size_t>& local);

  /// Broadcast root's vector to all ranks.
  void broadcast(std::vector<double>& values, std::size_t root = 0);

  /// Static block decomposition of [0, n): returns {begin, end} for this
  /// rank, remainder spread over the low ranks.
  [[nodiscard]] std::pair<std::size_t, std::size_t> block_range(
      std::size_t n) const noexcept;

  /// Accumulated modeled communication seconds for this world (shared by
  /// all ranks; read after run()).
  [[nodiscard]] double modeled_comm_seconds() const;

 private:
  friend class World;
  Comm(detail::WorldState* state, std::size_t rank, std::size_t size)
      : state_(state), rank_(rank), size_(size) {}

  template <typename T>
  std::vector<T> allgather_impl(const std::vector<T>& local);

  detail::WorldState* state_;
  std::size_t rank_;
  std::size_t size_;
};

/// Result of an SPMD run.
struct WorldReport {
  std::size_t nranks = 0;
  double wall_seconds = 0.0;           ///< host wall clock for the whole run
  double max_rank_cpu_seconds = 0.0;   ///< max over ranks of thread CPU time
  double sum_rank_cpu_seconds = 0.0;   ///< total work across ranks
  double modeled_comm_seconds = 0.0;   ///< CommModel cost of all collectives
  /// Simulated distributed-memory makespan: what this run would cost on
  /// nranks dedicated nodes.
  [[nodiscard]] double simulated_seconds() const {
    return max_rank_cpu_seconds + modeled_comm_seconds;
  }
};

/// SPMD executor. Example:
///   World world(8);
///   auto report = world.run([&](Comm& comm) { ... });
class World {
 public:
  explicit World(std::size_t nranks, CommModel model = {});

  /// Execute `body` on every rank concurrently; rethrows the first rank
  /// exception after all ranks join.
  WorldReport run(const std::function<void(Comm&)>& body);

  [[nodiscard]] std::size_t nranks() const noexcept { return nranks_; }

 private:
  std::size_t nranks_;
  CommModel model_;
};

}  // namespace sickle
