// Shared-memory thread pool and parallel_for.
//
// SICKLE's node-level parallelism (clustering, histogramming, tensor ops,
// the store's encode waves) runs on this pool; the distributed-memory
// layer (parallel/world.hpp) layers an SPMD rank model on top. Scheduling
// is one mutex-guarded FIFO queue: submit() appends a task and wakes one
// worker, and idle workers run the oldest task. TaskGroup::wait called
// from a worker *helps* — it runs queued tasks instead of blocking — so
// nested parallel_for recurses to any depth without deadlock, even on a
// one-worker pool. Results stay bit-identical at any thread count:
// scheduling changes who runs a chunk, never how chunks are cut.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sickle {

class TaskGroup;

class ThreadPool {
 public:
  /// Spawn `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task at the back of the queue and wake one worker. Tasks
  /// must not throw (they run detached from callers). The destructor runs
  /// every task already queued before it joins the workers.
  void submit(std::function<void()> task);

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Process-wide default pool (lazily constructed, never destroyed before
  /// exit).
  static ThreadPool& global();

 private:
  friend class TaskGroup;

  // Tasks carry their enqueue timestamp (obs::now_ns(); 0 when
  // observability is off) so workers can meter queue wait time.
  struct Task {
    std::function<void()> fn;
    std::uint64_t enqueue_ns = 0;
  };

  void worker_loop();
  /// Run one task (with queue-wait and busy metering).
  static void execute(Task& task);
  /// Pop and execute the oldest queued task; false when none was queued.
  bool try_run_one();

  std::mutex mu_;  ///< guards queue_ and stop_
  std::condition_variable cv_;
  std::deque<Task> queue_;  ///< FIFO
  bool stop_ = false;
  std::vector<std::thread> workers_;  ///< last: they use the members above
};

/// Per-call completion tracking on a shared pool: a latch over exactly
/// the tasks submitted through this group. Two TaskGroups on the same
/// pool are independent — wait() returns when *this group's* tasks are
/// done, even while other submitters' tasks are still in flight. When
/// wait() is called from a worker of the same pool it runs queued tasks
/// while waiting (helper-runs-tasks), so a task may create a group, fan
/// out, and wait on it — nested parallelism — without deadlocking even a
/// one-worker pool. The destructor waits, so a group can never abandon
/// tasks that reference a dead stack frame. Tasks must not throw (same
/// contract as ThreadPool::submit).
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) noexcept : pool_(pool) {}
  ~TaskGroup() { wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submit one task tracked by this group. Thread-safe.
  void run(std::function<void()> task);

  /// Block until every task run() through this group has finished. On a
  /// worker thread of the pool this helps (runs queued tasks, possibly
  /// from unrelated submitters) instead of blocking.
  void wait();

 private:
  ThreadPool& pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<std::size_t> pending_{0};
};

/// Owning resolution of a `threads:` config knob onto a pool:
///   1 -> serial execution (get() == nullptr; callers run inline),
///   0 -> the process-global pool (all hardware threads),
///   N -> a dedicated N-worker pool owned by this handle.
/// Handles are cheap to create per pipeline run; a dedicated pool's workers
/// join when the handle goes out of scope.
class PoolHandle {
 public:
  PoolHandle() = default;
  [[nodiscard]] ThreadPool* get() const noexcept { return pool_; }

 private:
  friend PoolHandle resolve_threads(std::size_t threads);
  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* pool_ = nullptr;
};

[[nodiscard]] PoolHandle resolve_threads(std::size_t threads);

/// Run fn(i) for i in [0, n) across the pool in contiguous chunks.
/// Falls back to a serial loop for tiny n, where task overhead dominates.
/// Safe to call from inside a pool task: completion waits via TaskGroup,
/// which helps instead of blocking, so nesting recurses freely.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  ThreadPool* pool = nullptr, std::size_t grain = 1024);

/// Run fn(begin, end) over chunked ranges — preferred for vectorizable
/// kernels since the inner loop stays tight.
void parallel_for_range(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
    ThreadPool* pool = nullptr, std::size_t grain = 1024);

}  // namespace sickle
