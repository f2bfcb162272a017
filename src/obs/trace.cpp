#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>

#include "common/error.hpp"
#include "common/json_escape.hpp"

namespace sickle::obs {

namespace {

std::atomic<bool> g_enabled{false};

}  // namespace

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

// Per-thread event buffer. The owning thread appends under `mu` (the
// exporter copies concurrently); `stack` is owner-thread-only state for
// parent tracking and needs no lock. Registered with the tracer on
// first use, flushed into the central ring and unregistered when the
// thread exits.
struct ThreadBuf {
  explicit ThreadBuf(Tracer::Impl& impl);
  ~ThreadBuf();

  Tracer::Impl& owner;
  std::uint32_t tid = 0;
  std::mutex mu;
  std::vector<TraceEvent> events;
  std::vector<std::uint64_t> stack;
};

struct Tracer::Impl {
  // Lock order: mu before any ThreadBuf::mu (exporter path); recording
  // takes only the buffer's own mutex.
  mutable std::mutex mu;
  std::vector<ThreadBuf*> bufs;
  std::vector<TraceEvent> central;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint32_t> next_tid{0};
  std::atomic<std::uint64_t> total{0};
  std::atomic<std::uint64_t> dropped{0};

  // Backstop against unbounded growth in long traced runs (~64 MB of
  // events). Approximate: concurrent recorders may overshoot by a few.
  static constexpr std::uint64_t kMaxEvents = 1u << 20;
};

namespace {

ThreadBuf& local_buf(Tracer::Impl& impl) {
  thread_local ThreadBuf buf(impl);
  return buf;
}

}  // namespace

ThreadBuf::ThreadBuf(Tracer::Impl& impl) : owner(impl) {
  std::lock_guard<std::mutex> lock(owner.mu);
  tid = owner.next_tid.fetch_add(1, std::memory_order_relaxed);
  owner.bufs.push_back(this);
}

ThreadBuf::~ThreadBuf() {
  // Unregistering under owner.mu serializes against the exporter; once
  // removed from `bufs` nothing else can reach this buffer, so the
  // events move needs no further locking.
  std::lock_guard<std::mutex> lock(owner.mu);
  owner.bufs.erase(std::remove(owner.bufs.begin(), owner.bufs.end(), this),
                   owner.bufs.end());
  owner.central.insert(owner.central.end(), events.begin(), events.end());
}

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
  if (impl.total.load(std::memory_order_relaxed) >= Impl::kMaxEvents) {
    impl.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  impl.total.fetch_add(1, std::memory_order_relaxed);
  ThreadBuf& buf = local_buf(impl);
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.events.push_back(ev);
}

std::vector<TraceEvent> Tracer::events() const {
  auto& impl = *impl_;
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(impl.mu);
    out = impl.central;
    for (ThreadBuf* buf : impl.bufs) {
      std::lock_guard<std::mutex> buf_lock(buf->mu);
      out.insert(out.end(), buf->events.begin(), buf->events.end());
    }
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
  return impl_->dropped.load(std::memory_order_relaxed);
}

std::size_t Tracer::size() const {
  auto& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mu);
  std::size_t n = impl.central.size();
  for (ThreadBuf* buf : impl.bufs) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    n += buf->events.size();
  }
  return n;
}

void Tracer::clear() {
  auto& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mu);
  impl.central.clear();
  for (ThreadBuf* buf : impl.bufs) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    buf->events.clear();
  }
  impl.total.store(0, std::memory_order_relaxed);
  impl.dropped.store(0, std::memory_order_relaxed);
}

void Tracer::write_chrome_trace(const std::string& path) const {
  const auto evs = events();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw RuntimeError("cannot open trace path: " + path);
  out << "{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": "
         "{\"dropped_events\": "
      << dropped() << "},\n  \"traceEvents\": [";
  char buf[160];
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const TraceEvent& e = evs[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << json_escape(e.name)
        << "\", \"cat\": \"" << json_escape(e.cat)
        << "\", \"ph\": \"X\"";
    // Chrome trace timestamps are microseconds; %.3f keeps the full
    // nanosecond resolution.
    std::snprintf(buf, sizeof(buf),
                  ", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u",
                  static_cast<double>(e.ts_ns) / 1e3,
                  static_cast<double>(e.dur_ns) / 1e3, e.tid);
    out << buf;
    std::snprintf(buf, sizeof(buf),
                  ", \"args\": {\"id\": %llu, \"parent\": %llu, "
                  "\"depth\": %u}}",
                  static_cast<unsigned long long>(e.id),
                  static_cast<unsigned long long>(e.parent), e.depth);
    out << buf;
  }
  out << (evs.empty() ? "]" : "\n  ]") << "\n}\n";
  if (!out) throw RuntimeError("failed writing trace json: " + path);
}

Span::Span(const char* name, const char* cat) noexcept
    : name_(name), cat_(cat) {
  if (!enabled()) return;
  Tracer& tracer = Tracer::instance();
  ThreadBuf& buf = local_buf(*tracer.impl_);
  id_ = tracer.next_span_id();
  parent_ = buf.stack.empty() ? 0 : buf.stack.back();
  depth_ = static_cast<std::uint32_t>(buf.stack.size());
  buf.stack.push_back(id_);
  start_ns_ = now_ns();
  active_ = true;
}

Span::~Span() {
  if (!active_) return;
  const std::uint64_t end_ns = now_ns();
  Tracer& tracer = Tracer::instance();
  ThreadBuf& buf = local_buf(*tracer.impl_);
  // Scoped usage guarantees LIFO; tolerate a mismatched stack (e.g.
  // after Tracer::clear() mid-span) rather than corrupting it.
  if (!buf.stack.empty() && buf.stack.back() == id_) buf.stack.pop_back();
  TraceEvent ev;
  ev.name = name_;
  ev.cat = cat_;
  ev.ts_ns = start_ns_;
  ev.dur_ns = end_ns > start_ns_ ? end_ns - start_ns_ : 0;
  ev.tid = buf.tid;
  ev.depth = depth_;
  ev.id = id_;
  ev.parent = parent_;
  tracer.record(ev);
}

}  // namespace sickle::obs
