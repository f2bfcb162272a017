#include "obs/metrics.hpp"

#include <fstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace sickle::obs {

double Histogram::min() const noexcept {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const noexcept {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

void Histogram::reset() noexcept {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

void Histogram::atomic_add(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void Histogram::atomic_min(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void Histogram::atomic_max(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: instrumented destructors may publish during
  // static teardown, after function-local statics would have died.
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

MetricsRegistry::Entry& MetricsRegistry::resolve(const std::string& name,
                                                 Kind kind) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = kind;
    switch (kind) {
      case Kind::kCounter: e.counter = std::make_unique<Counter>(); break;
      case Kind::kGauge: e.gauge = std::make_unique<Gauge>(); break;
      case Kind::kHistogram:
        e.histogram = std::make_unique<Histogram>();
        break;
    }
    it = entries_.emplace(name, std::move(e)).first;
  } else if (it->second.kind != kind) {
    throw RuntimeError("metric '" + name +
                       "' already registered as a different kind");
  }
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return *resolve(name, Kind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return *resolve(name, Kind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return *resolve(name, Kind::kHistogram).histogram;
}

std::map<std::string, double> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, e] : entries_) {
    switch (e.kind) {
      case Kind::kCounter:
        out[name] = static_cast<double>(e.counter->value());
        break;
      case Kind::kGauge:
        out[name] = e.gauge->value();
        break;
      case Kind::kHistogram:
        out[name + ".count"] = static_cast<double>(e.histogram->count());
        out[name + ".sum"] = e.histogram->sum();
        out[name + ".min"] = e.histogram->min();
        out[name + ".max"] = e.histogram->max();
        break;
    }
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  Json metrics = Json::object();
  for (const auto& [name, value] : snapshot()) metrics.set(name, value);
  Json doc = Json::object();
  doc.set("metrics", std::move(metrics));
  return doc.dump() + "\n";
}

void MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw RuntimeError("cannot open metrics path: " + path);
  out << to_json();
  if (!out) throw RuntimeError("failed writing metrics json: " + path);
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, e] : entries_) {
    switch (e.kind) {
      case Kind::kCounter: e.counter->reset(); break;
      case Kind::kGauge: e.gauge->reset(); break;
      case Kind::kHistogram: e.histogram->reset(); break;
    }
  }
}

}  // namespace sickle::obs
