// Shared helpers for the figure-reproduction harnesses: console banners
// and the machine-readable BENCH_*.json emitter the perf trajectory is
// tracked with (docs/PERF.md).
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json_escape.hpp"

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
/// records, each a name plus numeric metrics and optional string labels.
/// Kept dependency-free on purpose — benches must build on bare images.
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

  /// Write the report; returns false (after printing a warning) on I/O
  /// failure so benches still exit 0 when run from a read-only directory.
  bool write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n",
                 json_escape(bench_name_).c_str());
    std::fprintf(f, "  \"git_sha\": \"%s\",\n",
                 json_escape(git_sha()).c_str());
    std::fprintf(f, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"records\": [\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f, "    {\"name\": \"%s\"", json_escape(r.name).c_str());
      for (const auto& [key, value] : r.labels) {
        std::fprintf(f, ", \"%s\": \"%s\"", json_escape(key).c_str(),
                     json_escape(value).c_str());
      }
      for (const auto& [key, value] : r.metrics) {
        std::fprintf(f, ", \"%s\": %.9g", json_escape(key).c_str(), value);
      }
      std::size_t repeats = 0;
      for (const auto& [key, samples] : r.samples) {
        std::vector<double> sorted = samples;
        std::sort(sorted.begin(), sorted.end());
        const std::size_t n = sorted.size();
        const double median = n % 2 == 1
                                  ? sorted[n / 2]
                                  : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
        std::fprintf(f, ", \"%s\": %.9g", json_escape(key).c_str(), median);
        if (n > 1) {
          std::fprintf(f, ", \"%s_min\": %.9g, \"%s_max\": %.9g",
                       json_escape(key).c_str(), sorted.front(),
                       json_escape(key).c_str(), sorted.back());
        }
        repeats = std::max(repeats, n);
      }
      if (repeats > 1) {
        std::fprintf(f, ", \"repeats\": %zu", repeats);
      }
      std::fprintf(f, "}%s\n", i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    // fclose flushes the stdio buffer — its result is the real verdict
    // (a full disk surfaces here, not at the fprintfs). Always close,
    // even when a write already failed.
    const bool had_error = std::ferror(f) != 0;
    const bool ok = (std::fclose(f) == 0) && !had_error;
    if (ok) {
      std::printf("wrote %s (%zu records)\n", path.c_str(), size());
    } else {
      std::fprintf(stderr, "bench: error writing %s\n", path.c_str());
    }
    return ok;
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
