#include "parallel/world.hpp"

#include <pthread.h>
#include <time.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <thread>

#include "common/timer.hpp"

namespace sickle {

double CommModel::gather(std::size_t nranks, std::size_t total_bytes) const {
  if (nranks <= 1) return 0.0;
  const double rounds = std::log2(static_cast<double>(nranks));
  return rounds * latency_s +
         static_cast<double>(total_bytes) * seconds_per_byte;
}

double CommModel::broadcast(std::size_t nranks, std::size_t bytes) const {
  if (nranks <= 1) return 0.0;
  const double rounds = std::log2(static_cast<double>(nranks));
  return rounds * (latency_s + static_cast<double>(bytes) * seconds_per_byte);
}

namespace detail {

/// Shared state for one World::run invocation.
///
/// Collectives use a sense-reversing central barrier plus per-rank slots.
/// A central barrier is O(n) per operation, which is fine: collective
/// *correctness* is what we need in-process; collective *cost* at scale
/// comes from CommModel.
struct WorldState {
  explicit WorldState(std::size_t n, CommModel m)
      : nranks(n), model(m), slots(n) {}

  std::size_t nranks;
  CommModel model;

  std::mutex mu;
  std::condition_variable cv;
  std::size_t arrived = 0;
  bool sense = false;
  bool poisoned = false;  // set when a rank died; collectives become no-ops

  /// Per-rank scratch: pointer + element count published by each rank
  /// during a collective.
  struct Slot {
    const void* ptr = nullptr;
    std::size_t count = 0;
  };
  std::vector<Slot> slots;

  double modeled_comm_seconds = 0.0;  // guarded by mu

  /// Block until all ranks arrive. Returns true for exactly one rank (the
  /// last to arrive), which may perform the "root section" of a collective
  /// before releasing the others via release().
  /// Returns false when the world has been poisoned by a failed rank; the
  /// caller must then skip the collective's payload phase.
  bool wait_all() {
    std::unique_lock lock(mu);
    if (poisoned) return false;
    const bool my_sense = sense;
    if (++arrived == nranks) {
      arrived = 0;
      sense = !sense;
      cv.notify_all();
    } else {
      cv.wait(lock, [&] { return poisoned || sense != my_sense; });
      if (poisoned) return false;
    }
    return true;
  }

  /// Release every waiting rank after a rank failure. Surviving ranks see
  /// degenerate (empty) collective results and unwind naturally; the
  /// original exception is rethrown by World::run.
  void poison() {
    std::lock_guard lock(mu);
    poisoned = true;
    cv.notify_all();
  }

  void add_comm_cost(double seconds) {
    std::lock_guard lock(mu);
    modeled_comm_seconds += seconds;
  }
};

}  // namespace detail

template <typename T>
std::vector<T> Comm::allgather_impl(const std::vector<T>& local) {
  auto& st = *state_;
  st.slots[rank_].ptr = local.data();
  st.slots[rank_].count = local.size();
  if (!st.wait_all()) return {};
  std::size_t total = 0;
  for (std::size_t r = 0; r < size_; ++r) total += st.slots[r].count;
  std::vector<T> out;
  out.reserve(total);
  for (std::size_t r = 0; r < size_; ++r) {
    const T* p = static_cast<const T*>(st.slots[r].ptr);
    out.insert(out.end(), p, p + st.slots[r].count);
  }
  if (rank_ == 0) {
    st.add_comm_cost(st.model.gather(size_, total * sizeof(T)) +
                     st.model.broadcast(size_, total * sizeof(T)));
  }
  st.wait_all();
  return out;
}

std::vector<double> Comm::allgather(const std::vector<double>& local) {
  return allgather_impl(local);
}

std::vector<std::size_t> Comm::allgather(const std::vector<std::size_t>& local) {
  return allgather_impl(local);
}

void Comm::broadcast(std::vector<double>& values, std::size_t root) {
  auto& st = *state_;
  if (rank_ == root) {
    st.slots[root].ptr = values.data();
    st.slots[root].count = values.size();
  }
  if (!st.wait_all()) return;
  if (rank_ != root) {
    const double* p = static_cast<const double*>(st.slots[root].ptr);
    values.assign(p, p + st.slots[root].count);
  } else {
    st.add_comm_cost(
        st.model.broadcast(size_, values.size() * sizeof(double)));
  }
  st.wait_all();
}

std::pair<std::size_t, std::size_t> Comm::block_range(
    std::size_t n) const noexcept {
  const std::size_t base = n / size_;
  const std::size_t rem = n % size_;
  const std::size_t begin =
      rank_ * base + std::min<std::size_t>(rank_, rem);
  const std::size_t len = base + (rank_ < rem ? 1 : 0);
  return {begin, begin + len};
}

double Comm::modeled_comm_seconds() const {
  std::lock_guard lock(state_->mu);
  return state_->modeled_comm_seconds;
}

World::World(std::size_t nranks, CommModel model)
    : nranks_(nranks), model_(model) {
  SICKLE_CHECK_MSG(nranks_ >= 1, "World needs at least one rank");
}

namespace {

/// CPU time consumed by the calling thread, in seconds.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

WorldReport World::run(const std::function<void(Comm&)>& body) {
  detail::WorldState state(nranks_, model_);
  std::vector<double> cpu_seconds(nranks_, 0.0);
  std::vector<std::exception_ptr> errors(nranks_);

  Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(nranks_);
  for (std::size_t r = 0; r < nranks_; ++r) {
    threads.emplace_back([&, r] {
      const double cpu0 = thread_cpu_seconds();
      Comm comm(&state, r, nranks_);
      try {
        body(comm);
      } catch (...) {
        errors[r] = std::current_exception();
        // A dead rank would deadlock peers at the next collective, so
        // poison the world: waiting ranks unblock with degenerate results
        // and unwind. The first exception is rethrown by run() below.
        state.poison();
      }
      cpu_seconds[r] = thread_cpu_seconds() - cpu0;
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  WorldReport report;
  report.nranks = nranks_;
  report.wall_seconds = wall.seconds();
  for (const double c : cpu_seconds) {
    report.max_rank_cpu_seconds = std::max(report.max_rank_cpu_seconds, c);
    report.sum_rank_cpu_seconds += c;
  }
  report.modeled_comm_seconds = state.modeled_comm_seconds;
  return report;
}

}  // namespace sickle
