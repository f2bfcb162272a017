// Scoped span tracing with Chrome trace-event export.
//
// `Span` is an RAII start/stop marker: construction notes the start time
// and pushes onto a thread-local span stack (so nested spans record
// their parent), destruction appends one complete event to the tracer's
// single locked buffer, which holds at most 2^20 events and counts the
// rest as dropped. `write_chrome_trace()` emits the Chrome trace-event
// JSON format ("X" complete events) that chrome://tracing and Perfetto
// load directly.
//
// The entire layer is gated on one process-global relaxed atomic flag
// (`obs::enabled()`, default off): a Span constructed while disabled is
// inert — no clock read, no allocation, no lock — which is what keeps
// the instrumented hot paths (pool tasks, chunk decodes) at zero cost
// for users who never turn observability on. The bench-smoke CI job
// gates this claim (< 3% on the pipeline row; see docs/OBSERVABILITY.md
// for measured numbers).
//
// Span name/category must be string literals (or outlive the tracer's
// buffered events): events store the pointers, not copies, so recording
// a span costs one vector push_back under the tracer's mutex. The
// measured cases record one span every ~30 us at most
// (docs/OBSERVABILITY.md), too few for that one lock to contend.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sickle::obs {

/// Turn the observability layer (spans + instrumented-destructor metric
/// publication) on or off. Off by default.
void set_enabled(bool on) noexcept;
[[nodiscard]] bool enabled() noexcept;

/// Monotonic nanoseconds since the tracer's process epoch. 0 is only
/// returned before the tracer is first touched, so instrumentation can
/// use 0 as a "not timestamped" sentinel.
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// One completed span. `name`/`cat` point at caller-owned literals.
struct TraceEvent {
  const char* name;
  const char* cat;
  std::uint64_t ts_ns;   // start, ns since tracer epoch
  std::uint64_t dur_ns;  // duration
  std::uint32_t tid;     // dense tracer-assigned thread id
  std::uint32_t depth;   // nesting depth on its thread (0 = root)
  std::uint64_t id;      // unique span id (1-based)
  std::uint64_t parent;  // enclosing span's id, 0 for roots
};

/// RAII span. Construct at the top of the scope being traced:
///
///   obs::Span span("case.sampling", "case");
///
/// Spans on one thread must destruct in LIFO order (guaranteed by scoped
/// usage). A span created while tracing is disabled records nothing,
/// even if tracing is enabled before it ends.
class Span {
 public:
  explicit Span(const char* name, const char* cat = "case") noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

 private:
  const char* name_;
  const char* cat_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint32_t depth_ = 0;
  bool active_ = false;
};

/// Process-global trace collector. Leaked singleton (worker threads and
/// instrumented destructors may record during static teardown).
class Tracer {
 public:
  /// Internal state; defined in trace.cpp only.
  struct Impl;

  static Tracer& instance();

  /// Copy of every buffered event, sorted by (tid, ts, -dur) so parents
  /// precede their children.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Events recorded but discarded because the buffer cap was hit.
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  /// Drop all buffered events and reset the drop counter. Test hook —
  /// live spans on other threads keep recording afterwards.
  void clear();

  /// Write everything buffered as single-line Chrome trace-event JSON
  /// ({"traceEvents": [...]}, ph:"X", ts/dur in microseconds). Throws
  /// RuntimeError on I/O failure.
  void write_chrome_trace(const std::string& path) const;

  /// Events currently buffered.
  [[nodiscard]] std::size_t size() const;

 private:
  friend class Span;
  friend std::uint64_t now_ns() noexcept;
  Tracer();

  std::uint64_t next_span_id() noexcept;
  void record(const TraceEvent& ev) noexcept;

  Impl* impl_;  // leaked with the singleton
};

}  // namespace sickle::obs
