// Case ledger: shared declarations of the end-to-end benchmark
// (ledger.cpp), its layer-by-layer case rebuild (case_layers.cpp) and its
// NDJSON client load (serve_load.cpp). See README.md in this directory.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sickle/case.hpp"

namespace sickle::ledger {

/// One reported number: `name value unit`, as printed and as written.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Correctness tally of one workload: every checked operation counts as
/// attempted; a failed, refused or mismatched one also counts as failed.
/// Thread-safe (the serve clients check from their own threads).
class Gates {
 public:
  /// Count one operation; on !ok print `what` to stderr and count a
  /// failure. Returns ok.
  bool check(bool ok, const std::string& what);
  [[nodiscard]] std::size_t attempted() const;
  [[nodiscard]] std::size_t failed() const;

 private:
  mutable std::mutex mu_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Benchmark-side spans of the traced run, kept in memory and written as
/// one Chrome trace at exit. Each span carries the workload, the repeat
/// and the snapshot (-1 when not per-snapshot) in its args. Spans are
/// recorded only when the log is enabled; timing through scope() always
/// works, so untraced callers pay one clock read pair and nothing else.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// RAII span: adds its elapsed seconds to `*acc` (when non-null) and,
  /// when the log is enabled, records one complete event. `name` must be
  /// a string literal.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, double* acc, long snapshot,
          long rep);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    const char* name_;
    double* acc_;
    long snapshot_;
    long rep_;
    std::chrono::steady_clock::time_point start_;
  };

  /// `rep` = -1 takes the repeat from set_context.
  [[nodiscard]] Scope scope(const char* name, double* acc = nullptr,
                            long snapshot = -1, long rep = -1) {
    return Scope(*this, name, acc, snapshot, rep);
  }

  /// Label the spans recorded from now on.
  void set_context(std::string workload, long rep);

  /// Write every recorded span as Chrome trace-event JSON. Returns false
  /// on I/O failure.
  bool write(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    std::string workload;
    long rep;
    long snapshot;
    double ts_us;
    double dur_us;
    std::size_t tid;
  };
  void record(const char* name, long snapshot, long rep,
              std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end);

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::string workload_;
  long rep_ = 0;
  std::vector<Event> events_;
  std::vector<std::thread::id> threads_;  ///< index = dense tid
};

/// What the traced rebuild of one case measured.
struct LayerReport {
  /// The registered per-layer metrics: layers every workload runs.
  std::vector<Metric> metrics;
  /// Printed and written only: store counters, temporal selection and
  /// the residual, which are zero or near it where a workload bypasses
  /// the layer (see README).
  std::vector<Metric> extra;
  std::vector<Metric> shares;     ///< layer seconds, for the share table
  std::uint64_t sample_hash = 0;  ///< composed from the phase-2 samples
  double test_loss = 0.0;
  /// The serial and 2-worker reruns behind parallel.pool_speedup
  /// returned the rebuilt snapshot's samples.
  bool pool_runs_match = false;
};

/// Rebuild one case from the layers' public functions, timing each call
/// from outside: replay into the store, open the reader, temporal
/// selection, the scaler pass, phase 1 and phase 2 per selected
/// snapshot, training-set build, training. `reference_wall_s` is an untraced run_case of the
/// same case; the residual is its wall time minus the layers' sum.
[[nodiscard]] LayerReport rebuild_case(const DatasetBundle& data,
                                       const CaseConfig& cfg,
                                       const std::string& spill_dir,
                                       double reference_wall_s,
                                       SpanLog& spans);

/// Expected result of one served case, from run_case.
struct Expected {
  std::string sample_hash;  ///< %016x, as the daemon prints it
  double test_loss = 0.0;
};

/// Closed-loop NDJSON load against an in-process daemon: `clients`
/// threads on one connection each submit, poll `status` every 10 ms
/// while the case is queued, then wait in the blocking `result` verb.
/// Client c's k-th case uses yaml[(c + k) % yaml.size()], checked
/// against expected[same].
struct LoadPlan {
  std::uint16_t port = 0;
  std::size_t clients = 1;
  std::vector<std::string> yaml;
  std::vector<Expected> expected;
  /// > 0: run exactly this many measured cases per client, no warm-up.
  /// 0: one warm-up case per client, then measure for `seconds`.
  std::size_t cases_per_client = 0;
  double seconds = 0.0;
};

struct LoadResult {
  std::vector<double> latency_s;  ///< submit sent -> result received
  double window_s = 0.0;          ///< measured-window wall time
  // Client-side per-verb times and queue wait, measured cases only.
  std::vector<double> submit_s;
  std::vector<double> status_s;
  std::vector<double> result_s;      ///< blocked in result until done
  std::vector<double> queue_wait_s;  ///< submit ack -> first non-queued
  double shared_cache_hit_ratio = 0.0;  ///< from one `metrics` scrape
};

[[nodiscard]] LoadResult run_load(const LoadPlan& plan, Gates& gates,
                                  SpanLog& spans);

}  // namespace sickle::ledger
