/// @file session.hpp
/// @brief CaseSession: the library-shaped, concurrent case-curation API.
///
/// run_case (case.hpp) is batch-shaped — one blocking call, one case, one
/// thread. CaseSession wraps the SAME staged orchestrator
/// (stage::run_staged, so the two can never diverge bit-wise) in a
/// submit/status/wait/cancel lifecycle:
///
///   CaseSession session({.max_concurrent_cases = 4});
///   CaseHandle h = session.submit(make_dataset_producer("SST-P1F4"), cfg);
///   ... h.status() ...        // non-blocking: state + stage progress
///   CaseReport r = h.wait();  // blocks; throws typed CaseError on failure
///
/// Concurrency model: the session owns `max_concurrent_cases` runner
/// threads draining a bounded FIFO queue (admission control: submit
/// throws QueueFullError once `queue_capacity` cases are waiting, leaving
/// the caller's bundle untouched). A queued case holds its producer and
/// config; the runner moves them into the run, which destroys them when
/// it returns, and cancelling a queued case destroys them at once. So a
/// finished case keeps only its status and report, however long its
/// handles live. Cases run the orchestrator exactly as
/// run_case does; with threads > 1 in the pipeline config they share the
/// process ThreadPool, and "series"-backend readers share one
/// process-global BlockCache (keys salted per container file) so N
/// concurrent cases stay within ONE decoded-block byte budget instead of
/// N. Sample hashes, reports, and training losses are bit-identical to
/// serial run_case for every case (test-asserted).
///
/// Errors are typed at this boundary (errors.hpp): submit throws
/// ConfigError (every issue at once) or QueueFullError; wait rethrows the
/// case's failure as CaseError with a stage-classified code, or
/// CancelledError. status() reports the same code/message non-throwing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sickle/case.hpp"
#include "sickle/errors.hpp"
#include "store/block_cache.hpp"

namespace sickle {

namespace detail {
class CaseTask;
struct SessionState;
}  // namespace detail

/// Session-wide knobs (the server's `server:` config section maps here).
struct SessionOptions {
  /// Runner threads = cases in flight at once. Each case additionally
  /// parallelizes internally per its own pipeline.threads.
  std::size_t max_concurrent_cases = 1;
  /// Cases allowed to WAIT in the FIFO queue (running cases excluded);
  /// submit throws QueueFullError beyond this.
  std::size_t queue_capacity = 16;
  /// Route "series"-backend readers of all cases through one
  /// process-global BlockCache (see shared_cache_stats). Off = every
  /// reader owns a private cache, exactly like standalone run_case.
  bool shared_block_cache = true;
};

/// Non-blocking snapshot of one case's lifecycle.
struct CaseStatus {
  CaseState state = CaseState::kQueued;
  /// Progress within the current stage: snapshots done/total for
  /// ingest/sampling (0/0 when unknown or not applicable).
  std::size_t progress_done = 0;
  std::size_t progress_total = 0;
  /// Failure classification + message; meaningful only when
  /// state == kFailed.
  CaseErrorCode error_code = CaseErrorCode::kInternal;
  std::string error;
};

/// Shareable reference to a submitted case. Copies refer to the same
/// case; the case's result stays retrievable as long as any handle
/// lives. All methods are thread-safe.
class CaseHandle {
 public:
  CaseHandle() = default;

  [[nodiscard]] bool valid() const noexcept { return task_ != nullptr; }
  /// Session-unique, monotonically increasing submission id.
  [[nodiscard]] std::uint64_t id() const;

  /// Current state + progress, never blocking.
  [[nodiscard]] CaseStatus status() const;

  /// Block until the case is terminal. Returns the report on kDone;
  /// throws CancelledError on kCancelled and CaseError (with the
  /// stage-classified code) on kFailed. The reference lives as long as
  /// this handle does.
  [[nodiscard]] const CaseReport& wait() const;

  /// Request cancellation. A still-queued case is removed immediately
  /// (freeing its queue slot) and becomes kCancelled; a running case is
  /// interrupted at the orchestrator's next checkpoint (latency: one
  /// snapshot's work). Returns true if the case will end (or ended)
  /// cancelled, false if it already reached kDone/kFailed.
  bool cancel() const;

 private:
  friend class CaseSession;
  explicit CaseHandle(std::shared_ptr<detail::CaseTask> task)
      : task_(std::move(task)) {}

  std::shared_ptr<detail::CaseTask> task_;
};

class CaseSession {
 public:
  explicit CaseSession(SessionOptions opts = {});
  /// Cancels every queued case, requests cancellation of running ones,
  /// and joins the runners. Wait on handles you care about first.
  ~CaseSession();

  CaseSession(const CaseSession&) = delete;
  CaseSession& operator=(const CaseSession&) = delete;

  /// Validate `cfg` (throws ConfigError carrying EVERY issue, including
  /// arch LSTM, which a case cannot train) and enqueue the case (throws
  /// QueueFullError at capacity). Both rejections happen BEFORE the
  /// bundle is taken, so the caller keeps a usable producer on failure.
  /// On success the case takes the bundle; its single-use producer is
  /// destroyed when the run ends or the queued case is cancelled.
  CaseHandle submit(ProducerBundle&& bundle, CaseConfig cfg);

  /// Cases waiting in the FIFO queue right now (excludes running).
  [[nodiscard]] std::size_t queued() const;
  /// Cases executing right now.
  [[nodiscard]] std::size_t running() const;

  [[nodiscard]] const SessionOptions& options() const noexcept {
    return opts_;
  }

  /// Lifetime tallies of the process-global session block cache (shared
  /// by every session with shared_block_cache on — stats accumulate
  /// across sessions for the life of the process).
  [[nodiscard]] static store::CacheStats shared_cache_stats();

 private:
  SessionOptions opts_;
  std::shared_ptr<detail::SessionState> state_;
  std::vector<std::thread> runners_;
};

}  // namespace sickle
