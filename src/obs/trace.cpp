#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>

#include "common/error.hpp"
#include "common/json.hpp"

namespace sickle::obs {

namespace {

std::atomic<bool> g_enabled{false};

}  // namespace

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

struct Tracer::Impl {
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint32_t> next_tid{0};

  // Every recorded span behind one lock: the measured cases record one
  // span every ~30 us at most, too few for it to contend.
  mutable std::mutex mu;
  std::vector<TraceEvent> events;  // guarded by mu
  std::uint64_t dropped = 0;       // guarded by mu

  // Exact backstop against unbounded growth in long traced runs (56 MiB
  // of events); a span recorded past it only counts as dropped.
  static constexpr std::size_t kMaxEvents = 1u << 20;
};

namespace {

// A thread's dense tid, assigned on its first span, and the ids of its
// open spans, which give each new span its parent and depth.
struct ThreadState {
  std::uint32_t tid;
  std::vector<std::uint64_t> stack;
};

ThreadState& thread_state(Tracer::Impl& impl) {
  thread_local ThreadState state{
      impl.next_tid.fetch_add(1, std::memory_order_relaxed), {}};
  return state;
}

}  // namespace

Tracer& Tracer::instance() {
  // Leaked: spans in worker threads and instrumented destructors may
  // record during static teardown.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Tracer() : impl_(new Impl()) {}

std::uint64_t now_ns() noexcept {
  const auto& impl = *Tracer::instance().impl_;
  const auto delta = std::chrono::steady_clock::now() - impl.epoch;
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(delta).count();
  // Never 0: callers use 0 as a "not timestamped" sentinel.
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 1u;
}

std::uint64_t Tracer::next_span_id() noexcept {
  return impl_->next_id.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::record(const TraceEvent& ev) noexcept {
  auto& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mu);
  if (impl.events.size() >= Impl::kMaxEvents) {
    ++impl.dropped;
    return;
  }
  impl.events.push_back(ev);
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    out = impl_->events;
  }
  // Parents precede children: same thread, earlier start first, and on
  // equal starts the longer (outer) span first.
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              return a.dur_ns > b.dur_ns;
            });
  return out;
}

std::uint64_t Tracer::dropped() const noexcept {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->dropped;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->events.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->events.clear();
  impl_->dropped = 0;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  const auto evs = events();
  Json other = Json::object();
  other.set("dropped_events", static_cast<double>(dropped()));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw RuntimeError("cannot open trace path: " + path);
  // One event's Json at a time, so a full buffer never becomes one tree.
  out << R"({"displayTimeUnit":"ms","otherData":)" << other.dump()
      << R"(,"traceEvents":[)";
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const TraceEvent& e = evs[i];
    Json args = Json::object();
    args.set("id", static_cast<double>(e.id));
    args.set("parent", static_cast<double>(e.parent));
    args.set("depth", static_cast<double>(e.depth));
    Json ev = Json::object();
    ev.set("name", e.name);
    ev.set("cat", e.cat);
    ev.set("ph", "X");
    // Chrome trace timestamps are microseconds.
    ev.set("ts", static_cast<double>(e.ts_ns) / 1e3);
    ev.set("dur", static_cast<double>(e.dur_ns) / 1e3);
    ev.set("pid", 1.0);
    ev.set("tid", static_cast<double>(e.tid));
    ev.set("args", std::move(args));
    if (i > 0) out << ',';
    out << ev.dump();
  }
  out << "]}\n";
  if (!out) throw RuntimeError("failed writing trace json: " + path);
}

Span::Span(const char* name, const char* cat) noexcept
    : name_(name), cat_(cat) {
  if (!enabled()) return;
  Tracer& tracer = Tracer::instance();
  ThreadState& state = thread_state(*tracer.impl_);
  id_ = tracer.next_span_id();
  parent_ = state.stack.empty() ? 0 : state.stack.back();
  depth_ = static_cast<std::uint32_t>(state.stack.size());
  state.stack.push_back(id_);
  start_ns_ = now_ns();
  active_ = true;
}

Span::~Span() {
  if (!active_) return;
  const std::uint64_t end_ns = now_ns();
  Tracer& tracer = Tracer::instance();
  ThreadState& state = thread_state(*tracer.impl_);
  // Scoped usage guarantees LIFO; tolerate a mismatched stack rather
  // than corrupting it.
  if (!state.stack.empty() && state.stack.back() == id_) {
    state.stack.pop_back();
  }
  TraceEvent ev;
  ev.name = name_;
  ev.cat = cat_;
  ev.ts_ns = start_ns_;
  ev.dur_ns = end_ns > start_ns_ ? end_ns - start_ns_ : 0;
  ev.tid = state.tid;
  ev.depth = depth_;
  ev.id = id_;
  ev.parent = parent_;
  tracer.record(ev);
}

}  // namespace sickle::obs
