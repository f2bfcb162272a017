// Shared helpers for the figure-reproduction harnesses: console banners
// and the machine-readable BENCH_*.json emitter the perf trajectory is
// tracked with (docs/PERF.md).
#pragma once

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace sickle::bench {

inline void banner(const std::string& title, const std::string& paper_note) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("paper: %s\n\n", paper_note.c_str());
}

inline void row_header(const std::vector<std::string>& cols) {
  for (const auto& c : cols) std::printf("%-22s", c.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < cols.size(); ++i) std::printf("%-22s", "------");
  std::printf("\n");
}

/// Short git revision of the working tree, or "unknown" outside a repo —
/// stamped into every BENCH_*.json so baselines are comparable across
/// commits.
inline std::string git_sha() {
  std::string sha;
  if (FILE* p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof(buf), p) != nullptr) sha = buf;
    ::pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

/// Minimal machine-readable bench report: one JSON object with a context
/// block (bench name, git sha, hardware threads) and a flat array of
/// records, each a name plus numeric metrics and optional string labels,
/// written through the tree's own Json so benches build on bare images.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void add(const std::string& name,
           const std::vector<std::pair<std::string, double>>& metrics,
           const std::vector<std::pair<std::string, std::string>>& labels =
               {}) {
    Record r;
    r.name = name;
    r.metrics = metrics;
    r.labels = labels;
    records_.push_back(std::move(r));
  }

  /// Accumulate one observation of `key` for the record `name`; repeated
  /// calls with the same (name, key) fold into a single record. At write
  /// time a key with one observation emits `"key": v` (byte-compatible
  /// with add()); N > 1 observations emit the median as `"key"` plus
  /// `"key_min"`, `"key_max"`, and a shared `"repeats"` count, so
  /// baseline gates keep comparing the stable median while the
  /// dispersion stays visible in the report.
  void add_sample(const std::string& name, const std::string& key,
                  double value) {
    Record* rec = nullptr;
    for (auto& r : records_) {
      if (r.name == name) {
        rec = &r;
        break;
      }
    }
    if (rec == nullptr) {
      records_.emplace_back();
      rec = &records_.back();
      rec->name = name;
    }
    for (auto& [k, samples] : rec->samples) {
      if (k == key) {
        samples.push_back(value);
        return;
      }
    }
    rec->samples.emplace_back(key, std::vector<double>{value});
  }

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

  /// Write the report as one line of JSON; returns false (after printing
  /// a warning) on I/O failure so benches still exit 0 when run from a
  /// read-only directory.
  bool write(const std::string& path) const {
    Json records = Json::array();
    for (const Record& r : records_) {
      Json rec = Json::object();
      rec.set("name", r.name);
      for (const auto& [key, value] : r.labels) rec.set(key, value);
      for (const auto& [key, value] : r.metrics) rec.set(key, value);
      std::size_t repeats = 0;
      for (const auto& [key, samples] : r.samples) {
        std::vector<double> sorted = samples;
        std::sort(sorted.begin(), sorted.end());
        const std::size_t n = sorted.size();
        rec.set(key, n % 2 == 1 ? sorted[n / 2]
                                : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]));
        if (n > 1) {
          rec.set(key + "_min", sorted.front());
          rec.set(key + "_max", sorted.back());
        }
        repeats = std::max(repeats, n);
      }
      if (repeats > 1) rec.set("repeats", static_cast<double>(repeats));
      records.push(std::move(rec));
    }
    Json doc = Json::object();
    doc.set("bench", bench_name_);
    doc.set("git_sha", git_sha());
    doc.set("hardware_threads",
            static_cast<double>(std::thread::hardware_concurrency()));
    doc.set("records", std::move(records));

    std::ofstream out(path, std::ios::trunc);
    out << doc.dump() << '\n';
    // close() flushes, so a full disk fails the stream here too.
    out.close();
    if (!out) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s (%zu records)\n", path.c_str(), size());
    return true;
  }

 private:
  struct Record {
    std::string name;
    std::vector<std::pair<std::string, double>> metrics;
    std::vector<std::pair<std::string, std::string>> labels;
    /// add_sample() observations, keyed in insertion order; summarized
    /// (median/min/max) at write time.
    std::vector<std::pair<std::string, std::vector<double>>> samples;
  };

  std::string bench_name_;
  std::vector<Record> records_;
};

}  // namespace sickle::bench
