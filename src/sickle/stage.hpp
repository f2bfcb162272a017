/// @file stage.hpp
/// @brief Internal staged-orchestrator interface: the single place where
/// a case's ingest -> selection -> sampling -> training pipeline lives.
///
/// `run_case` (case.hpp) and `CaseSession` (session.hpp) are both thin
/// adapters over `run_staged` — the orchestrator exists exactly once, so
/// the two entry points can never diverge bit-wise. The split exists so
/// the session layer can observe and interrupt a run without the legacy
/// blocking API paying for it: every hook below is a no-op when
/// `obs == nullptr`, which is what run_case passes, keeping its behavior
/// (and its sample hashes, losses, and exception types) bit-identical to
/// the pre-session orchestrator.
///
/// This header is internal-but-documented: stable enough for tests and
/// in-tree tooling, not part of the public story README tells. External
/// callers should use run_case or CaseSession.
#pragma once

#include <cstddef>

#include "sickle/case.hpp"
#include "sickle/errors.hpp"

namespace sickle::stage {

/// Session-side view into a running case. Implementations must be
/// thread-safe: hooks fire on whichever thread runs the case, while
/// status readers poll from other threads.
///
/// `cancel_requested` is POLLED, at stage boundaries and once per
/// snapshot inside the ingest and sampling loops — cancellation latency
/// is one snapshot's work, not one case. When it returns true the
/// orchestrator throws CancelledError out of the run (after attempting
/// producer reset, see run_staged).
class Observer {
 public:
  virtual ~Observer() = default;

  /// The run entered a new lifecycle state (kIngesting..kTraining).
  virtual void on_state(CaseState /*state*/) {}

  /// Progress within the current state: `done` of `total` units finished
  /// (snapshots for ingest/sampling; total == 0 when unknown).
  virtual void on_progress(std::size_t /*done*/, std::size_t /*total*/) {}

  /// True to interrupt the run at the next checkpoint.
  [[nodiscard]] virtual bool cancel_requested() const { return false; }
};

/// Throw CancelledError iff `obs` is non-null and requests cancellation.
/// The orchestrator calls this at every stage boundary and per snapshot.
void checkpoint(const Observer* obs);

/// --- Stage D: model construction + training. Fills report.train and
/// metrics["case.training_seconds"].
void training(const ml::TensorDataset& data, const CaseConfig& cfg,
              CaseReport& report, Observer* obs = nullptr);

/// Run the full staged case over a materialized dataset. Exactly
/// `run_case(bundle, cfg)` plus the observer hooks; run_case passes
/// nullptr. The memory backend reads the dataset in place; the spill
/// backends replay it through the same ingest loop a producer feeds.
[[nodiscard]] CaseReport run_staged(const DatasetBundle& bundle,
                                    CaseConfig cfg, Observer* obs);

/// Run the full staged case over a producer (streaming or materialized
/// ingest per cfg.ingest). On ANY failure or cancellation the producer is
/// reset() when its generator supports rewinding (flow::CloneError is
/// swallowed), so a rejected or cancelled submission does not leave a
/// half-consumed producer behind; on success the producer is consumed.
/// A cancelled case removes its spill directory; a failed one keeps it
/// and logs its path.
[[nodiscard]] CaseReport run_staged(ProducerBundle& bundle, CaseConfig cfg,
                                    Observer* obs);

}  // namespace sickle::stage
