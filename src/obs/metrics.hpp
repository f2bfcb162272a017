// Process-wide metrics registry: named atomic counters, gauges, and
// histograms with snapshot-to-JSON export (the `metrics_path` file; the
// sickle-serve `metrics` verb serves the same snapshot).
//
// Design notes:
//  - Instrument handles (`Counter&`, `Gauge&`, `Histogram&`) are stable
//    for the registry's lifetime, so hot paths resolve a name once
//    (typically into a function-local `static`) and then touch only the
//    atomics — no lock, no map lookup per event.
//  - All mutation uses relaxed atomics: metrics are monotonic tallies
//    read at quiescent points (snapshot/export), not synchronization.
//  - The `global()` registry is intentionally leaked so instrumented
//    destructors that run during static teardown (thread pools, cached
//    readers) can still publish.
//
// Naming scheme (see docs/OBSERVABILITY.md): dotted lowercase paths,
// `<subsystem>.<object>.<what>`, units spelled out in the final segment
// (`_seconds`, `_bytes`) — e.g. `store.cache.hits`,
// `pool.queue_wait_seconds`, `codec.decode_seconds`.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace sickle::obs {

/// Monotonic event tally.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value-or-accumulated double (e.g. accumulated busy seconds,
/// current resident bytes). `add` is a CAS loop: portable lock-free
/// double accumulation without relying on atomic<double>::fetch_add.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Streaming count/sum/min/max summary of observed values. Exported as
/// four derived series: `<name>.count`, `.sum`, `.min`, `.max`.
class Histogram {
 public:
  void observe(double v) noexcept {
    count_.fetch_add(1, std::memory_order_relaxed);
    atomic_add(sum_, v);
    atomic_min(min_, v);
    atomic_max(max_, v);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// 0.0 when no values were observed.
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  void reset() noexcept;

 private:
  static void atomic_add(std::atomic<double>& a, double v) noexcept;
  static void atomic_min(std::atomic<double>& a, double v) noexcept;
  static void atomic_max(std::atomic<double>& a, double v) noexcept;

  // Infinity sentinels make seeding race-free: any observed value wins
  // the first CAS. min()/max() clamp them back to 0.0 while empty.
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Name -> instrument map. Resolution (`counter()`/`gauge()`/
/// `histogram()`) takes a mutex; returned references stay valid until
/// the registry is destroyed, so callers cache them.
class MetricsRegistry {
 public:
  /// The process-global default instance (leaked, never destroyed).
  static MetricsRegistry& global();

  /// Find-or-create. Throws RuntimeError if `name` is already registered
  /// as a different instrument kind.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Flat name -> value view, sorted by name. Histograms expand into
  /// `.count` / `.sum` / `.min` / `.max` entries.
  [[nodiscard]] std::map<std::string, double> snapshot() const;

  /// `{"metrics": {name: value, ...}}` on one line ending in a newline,
  /// names sorted so the output is stable across runs.
  [[nodiscard]] std::string to_json() const;

  /// Write to_json() to `path` (throws RuntimeError on I/O failure).
  void write_json(const std::string& path) const;

  /// Zero every instrument (handles stay valid). Test hook.
  void reset();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& resolve(const std::string& name, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace sickle::obs
