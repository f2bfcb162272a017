#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "common/error.hpp"
#include "common/mathx.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sickle {

namespace {

// Pool telemetry (docs/OBSERVABILITY.md): tasks executed, cumulative
// queue wait, cumulative busy seconds. Worker utilization follows as
// busy_seconds / (workers x wall seconds). Handles resolve once; the
// counters themselves are lock-free.
struct PoolMetrics {
  obs::Counter& tasks = obs::MetricsRegistry::global().counter(
      "pool.tasks_executed");
  obs::Gauge& queue_wait = obs::MetricsRegistry::global().gauge(
      "pool.queue_wait_seconds");
  obs::Gauge& busy = obs::MetricsRegistry::global().gauge(
      "pool.busy_seconds");
  static PoolMetrics& get() {
    static PoolMetrics m;
    return m;
  }
};

// The pool whose worker the current thread is (set once at the top of
// worker_loop). TaskGroup::wait uses it to help instead of blocking.
thread_local ThreadPool* t_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  // Workers exit only once the queue is empty, so every queued task runs.
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  // Timestamp outside the lock; 0 doubles as the "don't meter" flag so
  // disabled runs skip every clock read and metric touch.
  const std::uint64_t enqueue_ns = obs::enabled() ? obs::now_ns() : 0;
  {
    std::lock_guard lock(mu_);
    SICKLE_CHECK_MSG(!stop_, "submit() on stopped pool");
    queue_.push_back(Task{std::move(task), enqueue_ns});
  }
  cv_.notify_one();
}

bool ThreadPool::try_run_one() {
  Task task;
  {
    std::lock_guard lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  execute(task);
  return true;
}

void ThreadPool::execute(Task& task) {
  if (task.enqueue_ns != 0) {
    // Metered path: the task was submitted with observability on.
    auto& m = PoolMetrics::get();
    const std::uint64_t start_ns = obs::now_ns();
    m.queue_wait.add(static_cast<double>(start_ns - task.enqueue_ns) * 1e-9);
    {
      obs::Span span("pool.task", "pool");
      task.fn();
    }
    m.busy.add(static_cast<double>(obs::now_ns() - start_ns) * 1e-9);
    m.tasks.add(1);
  } else {
    task.fn();
  }
}

void ThreadPool::worker_loop() {
  t_pool = this;
  for (;;) {
    // Declared per iteration so the finished task (and whatever its
    // function captured) is destroyed outside the lock.
    Task task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopped and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    execute(task);
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void TaskGroup::run(std::function<void()> task) {
  pending_.fetch_add(1, std::memory_order_seq_cst);
  try {
    pool_.submit([this, task = std::move(task)] {
      task();
      // Decrement and notify inside ONE critical section: wait() only
      // returns after re-acquiring mu_, so it cannot observe pending_ == 0
      // and destroy the group while we are still between the decrement and
      // the notify (a use-after-free TSan catches immediately otherwise).
      std::lock_guard lock(mu_);
      if (pending_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
        cv_.notify_all();
      }
    });
  } catch (...) {
    // submit() itself threw (stopped pool, allocation failure): the task
    // never reached a queue, so un-count it or wait() would hang.
    pending_.fetch_sub(1, std::memory_order_seq_cst);
    throw;
  }
}

void TaskGroup::wait() {
  if (t_pool == &pool_) {
    // Helper-runs-tasks: we ARE a worker of this pool, so blocking here
    // could deadlock (our own pending tasks may be queued behind us —
    // guaranteed on a one-worker pool). Run queued tasks instead; when
    // the queue is empty the group's remaining tasks are executing on
    // other workers, so block briefly — the timeout re-polls because
    // those tasks may enqueue new work we should help with rather than
    // sit on.
    while (pending_.load(std::memory_order_seq_cst) != 0) {
      if (!pool_.try_run_one()) {
        std::unique_lock lock(mu_);
        cv_.wait_for(lock, std::chrono::microseconds(50), [this] {
          return pending_.load(std::memory_order_seq_cst) == 0;
        });
      }
    }
    // Bridge: the last completer decrements and notifies while holding
    // mu_; acquiring it here guarantees that critical section has fully
    // exited before the caller may destroy this group.
    { std::lock_guard lock(mu_); }
    return;
  }
  std::unique_lock lock(mu_);
  cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_seq_cst) == 0;
  });
}

PoolHandle resolve_threads(std::size_t threads) {
  PoolHandle h;
  if (threads == 1) return h;  // serial: pool_ stays null
  if (threads == 0) {
    h.pool_ = &ThreadPool::global();
    return h;
  }
  h.owned_ = std::make_unique<ThreadPool>(threads);
  h.pool_ = h.owned_.get();
  return h;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  ThreadPool* pool, std::size_t grain) {
  parallel_for_range(
      n,
      [&fn](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) fn(i);
      },
      pool, grain);
}

void parallel_for_range(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
    ThreadPool* pool, std::size_t grain) {
  if (n == 0) return;
  if (pool == nullptr) pool = &ThreadPool::global();
  const std::size_t workers = pool->size();
  if (n <= grain || workers <= 1) {
    fn(0, n);
    return;
  }
  // One chunk per worker, but never smaller than the grain. The cut
  // points depend only on (n, workers, grain) — never on scheduling — so
  // results are bit-identical at any thread count and nesting depth.
  const std::size_t chunks =
      std::min(workers, std::max<std::size_t>(1, n / grain));
  const std::size_t step = ceil_div(n, chunks);
  // Pool tasks must not throw (they would terminate the worker thread);
  // capture the first chunk's exception and rethrow it on the calling
  // thread, so parallel loops fail the same catchable way serial ones do.
  // Completion is a per-call TaskGroup, not a pool-wide wait, so
  // concurrent parallel_for calls sharing one pool never wait on each
  // other's tasks — and because TaskGroup::wait helps when the caller is
  // itself a pool worker, a chunk body may call parallel_for again
  // (nested parallelism) without deadlock or serialization. The group
  // destructor drains this call's chunks even when submit() itself throws
  // mid-loop (captured locals must outlive the workers running them).
  std::mutex err_mu;
  std::exception_ptr error;
  TaskGroup group(*pool);
  for (std::size_t b = 0; b < n; b += step) {
    const std::size_t e = std::min(n, b + step);
    group.run([&fn, &err_mu, &error, b, e] {
      try {
        fn(b, e);
      } catch (...) {
        std::lock_guard lock(err_mu);
        if (!error) error = std::current_exception();
      }
    });
  }
  group.wait();
  if (error) std::rethrow_exception(error);
}

}  // namespace sickle
