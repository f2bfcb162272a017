#include "sickle/session.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "sickle/stage.hpp"

namespace sickle {

namespace {

/// Process-global decoded-block cache shared by every session's
/// "series"-backend readers (keys salted per container file, see
/// ReaderOptions::shared_cache). Intentionally leaked: readers inside
/// in-flight cases may touch it during static destruction, exactly like
/// ThreadPool::global() and MetricsRegistry::global().
store::BlockCache& session_block_cache() {
  static auto* cache =
      new store::BlockCache(/*cache_bytes=*/256ull << 20,
                            /*chunk_bytes_hint=*/256u << 10);
  return *cache;
}

/// A failure's stage is whatever state the case was in when it threw —
/// so a corrupt spill surfaces as kSampling even when the underlying
/// throw was a store-level RuntimeError.
CaseErrorCode classify(CaseState state) noexcept {
  switch (state) {
    case CaseState::kIngesting: return CaseErrorCode::kIngest;
    case CaseState::kSelecting: return CaseErrorCode::kSelection;
    case CaseState::kSampling: return CaseErrorCode::kSampling;
    case CaseState::kTraining: return CaseErrorCode::kTraining;
    default: return CaseErrorCode::kInternal;
  }
}

}  // namespace

namespace detail {

/// One submitted case's observable lifecycle (state/progress/result
/// guarded by mu) and the cancel flag the orchestrator polls through the
/// stage::Observer interface. It holds only what status() and wait()
/// report: the case's inputs wait in the session queue (QueuedCase) and
/// move from there into the run.
class CaseTask final : public stage::Observer {
 public:
  CaseTask(std::uint64_t id, std::weak_ptr<SessionState> session)
      : id_(id), session_(std::move(session)) {}

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] std::shared_ptr<SessionState> session() const {
    return session_.lock();
  }

  // stage::Observer — called from the runner thread mid-case.
  void on_state(CaseState state) override {
    std::lock_guard<std::mutex> lk(mu_);
    state_ = state;
    progress_done_ = 0;
    progress_total_ = 0;
  }
  void on_progress(std::size_t done, std::size_t total) override {
    std::lock_guard<std::mutex> lk(mu_);
    progress_done_ = done;
    progress_total_ = total;
  }
  [[nodiscard]] bool cancel_requested() const override {
    return cancel_.load(std::memory_order_relaxed);
  }

  /// Run the case on the calling (runner) thread and record the outcome.
  /// The run takes `bundle` and `cfg`, so the producer is destroyed before
  /// the outcome is published, whatever it is.
  void execute(ProducerBundle bundle, CaseConfig cfg) {
    try {
      CaseReport report =
          stage::run_staged(std::move(bundle), std::move(cfg), this);
      {
        std::lock_guard<std::mutex> lk(mu_);
        report_ = std::move(report);
      }
      finish(CaseState::kDone);
    } catch (const CancelledError&) {
      finish(CaseState::kCancelled);
    } catch (const CaseError& e) {
      fail(e.code(), e.what());
    } catch (const std::exception& e) {
      CaseState at;
      {
        std::lock_guard<std::mutex> lk(mu_);
        at = state_;
      }
      fail(classify(at), e.what());
    }
  }

  [[nodiscard]] CaseStatus status() const {
    std::lock_guard<std::mutex> lk(mu_);
    CaseStatus s;
    s.state = state_;
    s.progress_done = progress_done_;
    s.progress_total = progress_total_;
    s.error_code = error_code_;
    s.error = error_;
    return s;
  }

  [[nodiscard]] const CaseReport& wait() const {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return terminal(state_); });
    if (state_ == CaseState::kCancelled) throw CancelledError();
    if (state_ == CaseState::kFailed) throw CaseError(error_code_, error_);
    return report_;
  }

  /// Flag cancellation for the checkpoint polls; the session additionally
  /// short-circuits tasks still in its queue (mark_cancelled).
  void request_cancel() noexcept {
    cancel_.store(true, std::memory_order_relaxed);
  }

  /// Terminal-cancel a task that never started running.
  void mark_cancelled() { finish(CaseState::kCancelled); }

 private:
  static bool terminal(CaseState s) noexcept {
    return s == CaseState::kDone || s == CaseState::kFailed ||
           s == CaseState::kCancelled;
  }

  void finish(CaseState s) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      state_ = s;
    }
    cv_.notify_all();
  }

  void fail(CaseErrorCode code, std::string what) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      error_code_ = code;
      error_ = std::move(what);
      state_ = CaseState::kFailed;
    }
    cv_.notify_all();
  }

  const std::uint64_t id_;
  std::weak_ptr<SessionState> session_;
  std::atomic<bool> cancel_{false};
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  CaseState state_ = CaseState::kQueued;
  std::size_t progress_done_ = 0;
  std::size_t progress_total_ = 0;
  CaseErrorCode error_code_ = CaseErrorCode::kInternal;
  std::string error_;
  CaseReport report_;
};

/// A case waiting for a runner: its task plus the inputs its run takes.
/// The inputs leave the queue only into the run, or are destroyed by
/// cancel_queued.
struct QueuedCase {
  std::shared_ptr<CaseTask> task;
  ProducerBundle bundle;
  CaseConfig cfg;
};

/// Cancel a case that never reached a runner. Its inputs are destroyed
/// before it turns kCancelled, so a waiter finds them released.
void cancel_queued(QueuedCase entry) {
  const std::shared_ptr<CaseTask> task = std::move(entry.task);
  entry = {};
  task->mark_cancelled();
}

/// Shared between the session facade, its runner threads, and (via
/// CaseHandle cancel) task owners. Runners hold the shared_ptr, so a
/// session destroyed mid-drain leaves no dangling state.
struct SessionState {
  mutable std::mutex mu;
  std::condition_variable cv;
  std::deque<QueuedCase> queue;
  /// Tasks currently executing on a runner — so teardown can flag their
  /// cancel for the next orchestrator checkpoint.
  std::vector<std::shared_ptr<CaseTask>> active;
  std::size_t running = 0;
  bool stopping = false;
};

}  // namespace detail

// ----------------------------------------------------------- CaseHandle

std::uint64_t CaseHandle::id() const {
  SICKLE_CHECK_MSG(task_ != nullptr, "empty CaseHandle");
  return task_->id();
}

CaseStatus CaseHandle::status() const {
  SICKLE_CHECK_MSG(task_ != nullptr, "empty CaseHandle");
  return task_->status();
}

const CaseReport& CaseHandle::wait() const {
  SICKLE_CHECK_MSG(task_ != nullptr, "empty CaseHandle");
  return task_->wait();
}

bool CaseHandle::cancel() const {
  SICKLE_CHECK_MSG(task_ != nullptr, "empty CaseHandle");
  task_->request_cancel();
  // Still queued? Pull it out of the FIFO right now so the queue slot
  // frees immediately instead of waiting for a runner to pop-and-drop it.
  if (auto st = task_->session()) {
    std::optional<detail::QueuedCase> dequeued;
    {
      std::lock_guard<std::mutex> lk(st->mu);
      const auto it = std::find_if(
          st->queue.begin(), st->queue.end(),
          [&](const detail::QueuedCase& q) { return q.task == task_; });
      if (it != st->queue.end()) {
        dequeued = std::move(*it);
        st->queue.erase(it);
      }
    }
    if (dequeued) {
      detail::cancel_queued(std::move(*dequeued));
      st->cv.notify_all();
      return true;
    }
  }
  const CaseStatus s = task_->status();
  if (s.state == CaseState::kCancelled) return true;
  return !(s.state == CaseState::kDone || s.state == CaseState::kFailed);
}

// ---------------------------------------------------------- CaseSession

CaseSession::CaseSession(SessionOptions opts)
    : opts_(opts), state_(std::make_shared<detail::SessionState>()) {
  if (opts_.max_concurrent_cases == 0) opts_.max_concurrent_cases = 1;
  runners_.reserve(opts_.max_concurrent_cases);
  for (std::size_t i = 0; i < opts_.max_concurrent_cases; ++i) {
    runners_.emplace_back([st = state_] {
      for (;;) {
        detail::QueuedCase next;
        {
          std::unique_lock<std::mutex> lk(st->mu);
          st->cv.wait(lk,
                      [&] { return st->stopping || !st->queue.empty(); });
          if (st->queue.empty()) return;  // stopping and drained
          next = std::move(st->queue.front());
          st->queue.pop_front();
          ++st->running;
          st->active.push_back(next.task);
        }
        st->cv.notify_all();  // a queue slot freed up
        next.task->execute(std::move(next.bundle), std::move(next.cfg));
        {
          std::lock_guard<std::mutex> lk(st->mu);
          --st->running;
          std::erase(st->active, next.task);
        }
        st->cv.notify_all();
      }
    });
  }
}

CaseSession::~CaseSession() {
  std::deque<detail::QueuedCase> orphaned;
  {
    std::lock_guard<std::mutex> lk(state_->mu);
    state_->stopping = true;
    orphaned.swap(state_->queue);
    for (const auto& task : state_->active) task->request_cancel();
  }
  // Queued cases are cancelled outright; running ones get the cancel flag
  // and are interrupted at their next checkpoint.
  for (auto& entry : orphaned) detail::cancel_queued(std::move(entry));
  state_->cv.notify_all();
  for (auto& runner : runners_) runner.join();
}

CaseHandle CaseSession::submit(ProducerBundle&& bundle, CaseConfig cfg) {
  // Reject BEFORE touching the bundle: a throwing submit leaves the
  // caller's producer exactly as it was.
  auto issues = cfg.validate();
  if (cfg.arch == "LSTM") {
    issues.push_back({"train.arch",
                      "a case cannot train LSTM, the OF2D drag surrogate "
                      "only sickle_train fits",
                      "MLP_Transformer | CNN_Transformer | Foundation"});
  }
  if (!issues.empty()) throw ConfigError(std::move(issues));

  if (opts_.shared_block_cache && cfg.backend == "series") {
    cfg.store.shared_cache = &session_block_cache();
  }

  static std::atomic<std::uint64_t> next_id{1};
  std::shared_ptr<detail::CaseTask> task;
  {
    std::lock_guard<std::mutex> lk(state_->mu);
    SICKLE_CHECK_MSG(!state_->stopping, "submit on a stopping CaseSession");
    if (state_->queue.size() >= opts_.queue_capacity) {
      throw QueueFullError(opts_.queue_capacity);
    }
    task = std::make_shared<detail::CaseTask>(next_id.fetch_add(1), state_);
    state_->queue.push_back({task, std::move(bundle), std::move(cfg)});
  }
  state_->cv.notify_all();
  return CaseHandle(task);
}

std::size_t CaseSession::queued() const {
  std::lock_guard<std::mutex> lk(state_->mu);
  return state_->queue.size();
}

std::size_t CaseSession::running() const {
  std::lock_guard<std::mutex> lk(state_->mu);
  return state_->running;
}

store::CacheStats CaseSession::shared_cache_stats() {
  return session_block_cache().stats();
}

}  // namespace sickle
