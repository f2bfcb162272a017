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

// Identifies the current thread as worker `index` of `pool` (set once at
// the top of worker_loop). submit() uses it to pick the owner deque;
// TaskGroup::wait uses it to help instead of blocking.
struct WorkerSlot {
  ThreadPool* pool = nullptr;
  std::size_t index = 0;
};
thread_local WorkerSlot t_worker;

}  // namespace

// Chase-Lev work-stealing deque (Chase & Lev, SPAA'05; Lê et al.,
// PPoPP'13 for the C11 memory orders). The owning worker pushes and pops
// at the bottom (LIFO, cache-warm); thieves steal at the top (FIFO, the
// oldest — typically largest — task). Memory-order notes, because this is
// the part TSan can't teach you:
//   - Every bottom_ store that *publishes* a task is seq_cst. A release
//     store would hand the thief the task contents for THAT store, but
//     C++ release sequences do not extend through later same-thread
//     relaxed stores, and the sleep/wake protocol additionally needs the
//     store ordered before the subsequent sleepers_ read in the single
//     total order (the Dekker argument in ThreadPool::wake).
//   - top_ is only advanced by CAS (seq_cst): pop and steal race for the
//     last element and exactly one wins.
//   - Cells are relaxed: the bottom_/top_ protocol is what transfers
//     ownership of the pointed-to Task.
// The circular array grows when full; retired arrays are kept alive until
// the deque dies because a concurrent thief may still be reading the old
// cells (the copied Task* at a given logical index is identical, so a
// stale read that wins its CAS is still correct).
class ThreadPool::WorkDeque {
 public:
  WorkDeque() : array_(new Array(kInitialCap)) {}
  ~WorkDeque() {
    delete array_.load(std::memory_order_relaxed);
    for (Array* a : retired_) delete a;
  }

  WorkDeque(const WorkDeque&) = delete;
  WorkDeque& operator=(const WorkDeque&) = delete;

  /// Owner thread only.
  void push(Task* task) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Array* a = array_.load(std::memory_order_relaxed);
    if (b - t >= a->cap) a = grow(a, b, t);
    a->put(b, task);
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }

  /// Owner thread only. LIFO.
  Task* pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Array* a = array_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {  // was empty; undo the reservation
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }
    Task* task = a->get(b);
    if (t < b) return task;  // more than one element: no thief can reach it
    // Exactly one element: race thieves for it via top_.
    const bool won = top_.compare_exchange_strong(t, t + 1,
                                                  std::memory_order_seq_cst);
    bottom_.store(b + 1, std::memory_order_relaxed);
    return won ? task : nullptr;
  }

  /// Any thread. FIFO.
  Task* steal() {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return nullptr;
    Array* a = array_.load(std::memory_order_acquire);
    Task* task = a->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst)) {
      return nullptr;  // lost to the owner or another thief
    }
    return task;
  }

  /// Any thread; a racy size estimate is fine for sleep/wake decisions
  /// (the wake protocol, not this check, is what prevents lost wakeups).
  [[nodiscard]] bool maybe_nonempty() const {
    return bottom_.load(std::memory_order_seq_cst) >
           top_.load(std::memory_order_seq_cst);
  }

 private:
  static constexpr std::int64_t kInitialCap = 64;

  struct Array {
    const std::int64_t cap;
    const std::int64_t mask;
    std::unique_ptr<std::atomic<Task*>[]> cells;
    explicit Array(std::int64_t c)
        : cap(c),
          mask(c - 1),
          cells(new std::atomic<Task*>[static_cast<std::size_t>(c)]) {}
    [[nodiscard]] Task* get(std::int64_t i) const {
      return cells[i & mask].load(std::memory_order_relaxed);
    }
    void put(std::int64_t i, Task* t) {
      cells[i & mask].store(t, std::memory_order_relaxed);
    }
  };

  Array* grow(Array* a, std::int64_t b, std::int64_t t) {
    Array* bigger = new Array(a->cap * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, a->get(i));
    retired_.push_back(a);
    array_.store(bigger, std::memory_order_release);
    return bigger;
  }

  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  alignas(64) std::atomic<Array*> array_;
  std::vector<Array*> retired_;  // owner-only; freed in the destructor
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  deques_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    deques_.push_back(std::make_unique<WorkDeque>());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_seq_cst);
  // Lock bridge: a worker between its predicate check and the actual
  // block would miss a bare notify; taking the mutex orders this store
  // after that predicate evaluation or before the block completes.
  { std::lock_guard lock(mu_); }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  // Timestamp outside any lock; 0 doubles as the "don't meter" flag so
  // disabled runs skip every clock read and metric touch.
  const std::uint64_t enqueue_ns = obs::enabled() ? obs::now_ns() : 0;
  SICKLE_CHECK_MSG(!stop_.load(std::memory_order_relaxed),
                   "submit() on stopped pool");
  auto* t = new Task{std::move(task), enqueue_ns};
  if (t_worker.pool == this) {
    deques_[t_worker.index]->push(t);  // lock-free; seq_cst publish inside
  } else {
    std::lock_guard lock(mu_);
    overflow_.push_back(t);
    overflow_size_.fetch_add(1, std::memory_order_seq_cst);
  }
  wake();
}

void ThreadPool::wake() {
  // Dekker-style handshake with worker_loop, all through the seq_cst
  // total order: the pusher publishes work (seq_cst) THEN reads
  // sleepers_; the sleeper increments sleepers_ (seq_cst) THEN re-checks
  // has_work() under the mutex. If we read sleepers_ == 0 here, the
  // sleeper's increment comes later in the total order, so its has_work()
  // check comes later still and must observe our publication — skipping
  // the notify is safe. If we read > 0, the lock bridge + notify_all
  // cannot be lost because the sleeper's predicate is evaluated under mu_.
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  { std::lock_guard lock(mu_); }
  cv_task_.notify_all();
}

bool ThreadPool::has_work() const {
  if (overflow_size_.load(std::memory_order_seq_cst) > 0) return true;
  for (const auto& d : deques_) {
    if (d->maybe_nonempty()) return true;
  }
  return false;
}

ThreadPool::Task* ThreadPool::grab(std::size_t self) {
  if (Task* t = deques_[self]->pop()) return t;
  const std::size_t n = deques_.size();
  for (std::size_t i = 1; i < n; ++i) {
    if (Task* t = deques_[(self + i) % n]->steal()) return t;
  }
  if (overflow_size_.load(std::memory_order_relaxed) > 0) {
    std::lock_guard lock(mu_);
    if (!overflow_.empty()) {
      Task* t = overflow_.front();
      overflow_.pop_front();
      overflow_size_.fetch_sub(1, std::memory_order_seq_cst);
      return t;
    }
  }
  return nullptr;
}

bool ThreadPool::try_run_one(std::size_t self) {
  Task* t = grab(self);
  if (t == nullptr) return false;
  execute(t);
  return true;
}

void ThreadPool::execute(Task* task) {
  std::unique_ptr<Task> owned(task);
  if (task->enqueue_ns != 0) {
    // Metered path: the task was submitted with observability on.
    auto& m = PoolMetrics::get();
    const std::uint64_t start_ns = obs::now_ns();
    m.queue_wait.add(static_cast<double>(start_ns - task->enqueue_ns) * 1e-9);
    {
      obs::Span span("pool.task", "pool");
      task->fn();
    }
    m.busy.add(static_cast<double>(obs::now_ns() - start_ns) * 1e-9);
    m.tasks.add(1);
  } else {
    task->fn();
  }
}

void ThreadPool::worker_loop(std::size_t self) {
  t_worker = {this, self};
  for (;;) {
    if (Task* task = grab(self)) {
      execute(task);
      continue;
    }
    // Out of work everywhere: advertise intent to sleep, then re-check
    // under the mutex (the cv predicate) so a concurrent wake() either
    // sees sleepers_ > 0 and notifies, or published work our predicate
    // observes — see the total-order argument in wake().
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock lock(mu_);
      cv_task_.wait(lock, [this] {
        return stop_.load(std::memory_order_relaxed) || has_work();
      });
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    if (stop_.load(std::memory_order_seq_cst) && !has_work()) return;
    // stop_ with work remaining: loop once more and drain it.
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
  if (t_worker.pool == &pool_) {
    // Helper-runs-tasks: we ARE a worker of this pool, so blocking here
    // could deadlock (our own pending tasks may be queued behind us —
    // guaranteed on a one-worker pool). Run queued tasks instead; when
    // nothing is grabbable the group's remaining tasks are executing on
    // other workers, so block briefly — the timeout re-polls because
    // those tasks may enqueue new work we should help with rather than
    // sit on.
    while (pending_.load(std::memory_order_seq_cst) != 0) {
      if (!pool_.try_run_one(t_worker.index)) {
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
