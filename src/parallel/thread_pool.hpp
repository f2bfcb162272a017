// Work-stealing shared-memory thread pool and parallel_for.
//
// SICKLE's node-level parallelism (clustering, histogramming, tensor ops)
// runs on this pool; the distributed-memory layer (parallel/world.hpp)
// layers an SPMD rank model on top. Scheduling is work-stealing: every
// worker owns a Chase-Lev deque, tasks submitted from a worker land on
// that worker's own deque (LIFO for locality), external submissions go to
// a shared overflow queue, and idle workers steal oldest-first from
// victims. TaskGroup::wait called from a worker *helps* — it runs queued
// tasks instead of blocking — so nested parallel_for recurses to any
// depth without deadlock and without serializing on the caller's worker.
// Results stay bit-identical at any thread count: scheduling changes who
// runs a chunk, never how chunks are cut.
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

  /// Enqueue a task. Tasks must not throw (they run detached from
  /// callers). From a worker of this pool the task is pushed onto that
  /// worker's own deque (lock-free); from any other thread it lands on
  /// the shared overflow queue.
  void submit(std::function<void()> task);

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Process-wide default pool (lazily constructed, never destroyed before
  /// exit).
  static ThreadPool& global();

 private:
  friend class TaskGroup;

  // Tasks carry their enqueue timestamp (obs::now_ns(); 0 when
  // observability is off) so workers can meter queue wait time. Heap
  // allocation is what lets deque cells be plain atomic pointers.
  struct Task {
    std::function<void()> fn;
    std::uint64_t enqueue_ns = 0;
  };

  class WorkDeque;  // Chase-Lev deque, defined in the .cpp

  void worker_loop(std::size_t self);
  /// Run one task (with queue-wait and busy metering); takes ownership.
  void execute(Task* task);
  /// Worker-context only: pop own deque, else steal, else pop overflow.
  [[nodiscard]] Task* grab(std::size_t self);
  /// Worker-context only: grab and execute one task; false when none ran.
  bool try_run_one(std::size_t self);
  /// True when any deque or the overflow queue holds a runnable task.
  [[nodiscard]] bool has_work() const;
  /// Wake sleeping workers after publishing new work.
  void wake();

  std::vector<std::unique_ptr<WorkDeque>> deques_;  ///< one per worker
  std::vector<std::thread> workers_;
  std::deque<Task*> overflow_;  ///< external submissions, FIFO
  mutable std::mutex mu_;       ///< guards overflow_ + sleep/wake
  std::condition_variable cv_task_;
  std::atomic<std::size_t> overflow_size_{0};
  std::atomic<std::size_t> sleepers_{0};
  std::atomic<bool> stop_{false};
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
