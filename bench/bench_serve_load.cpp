// bench_serve_load — throughput/latency of sickle-serve under concurrent
// case load, with bit-identity checked against single-process run_case.
//
// An in-process serve::Server (ephemeral port) runs a CaseSession with 4
// runner slots; 8 client threads each push tiny cases over TCP
// (submit -> result on a persistent connection), cycling through 3 seeds.
// Every returned sample_hash must equal the hash run_case produces for
// the same seed — the daemon is a transport, never a numerics fork.
//
// Emits BENCH_serve.json (record "serve_load": ns_per_op = median
// submit->result latency, plus throughput and tail percentiles); CI gates
// the median against bench/baselines/BENCH_serve.json. Exits nonzero on
// any hash mismatch or when fewer than 100 cases complete.
#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "common/json.hpp"
#include "common/timer.hpp"
#include "serve/server.hpp"
#include "sickle/config_driver.hpp"
#include "sickle/dataset_zoo.hpp"

namespace {

using namespace sickle;

constexpr std::size_t kClients = 8;
constexpr std::size_t kCasesPerClient = 15;  // 8 x 15 = 120 >= 100
constexpr std::size_t kSeeds = 3;

std::string case_yaml(std::uint64_t seed, const std::string& spill_dir) {
  // Tiny on purpose: a 16x16x8 grid x 8 snapshots streams through the
  // series backend in ~100 ms, so the bench measures the serving layer
  // (admission, queueing, shared cache), not one case's arithmetic.
  std::string y;
  y += "shared:\n";
  y += "  dataset: SST-P1F4\n";
  y += "  scale: 0.25\n";
  y += "  seed: " + std::to_string(seed) + "\n";
  y += "subsample:\n";
  y += "  hypercubes: random\n";
  y += "  method: maxent\n";
  y += "  num_hypercubes: 2\n";
  y += "  num_samples: 17\n";
  y += "  num_clusters: 3\n";
  y += "  nxsl: 8\n  nysl: 8\n  nzsl: 8\n";
  y += "store:\n";
  y += "  backend: series\n";
  y += "  ingest: streaming\n";
  y += "  codec: delta\n";
  y += "  chunk: 16\n";
  y += "  write_budget_mb: 1\n";
  y += "  spill_dir: " + spill_dir + "\n";
  y += "train:\n";
  y += "  arch: MLP_transformer\n";
  y += "  epochs: 1\n  batch: 4\n  dim: 8\n  heads: 2\n";
  return y;
}

/// Reference hashes straight through run_case — the value the daemon's
/// responses are diffed against.
std::vector<std::string> reference_hashes(const std::string& spill_dir) {
  std::vector<std::string> hashes;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Config cfg = Config::parse(case_yaml(seed, spill_dir));
    CaseConfig cc = case_from_config(cfg);
    ProducerBundle bundle = make_dataset_producer(
        dataset_label_from_config(cfg), seed, dataset_scale_from_config(cfg));
    const CaseReport r = run_case(bundle, std::move(cc));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, r.sample_hash);
    hashes.emplace_back(buf);
  }
  return hashes;
}

/// Minimal blocking NDJSON client on a persistent connection.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr)) != 0) {
      std::perror("bench_serve_load: connect");
      std::exit(1);
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// One request line -> one response line.
  std::string round_trip(const std::string& request) {
    std::string framed = request;
    framed.push_back('\n');
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n =
          ::send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return {};
      off += static_cast<std::size_t>(n);
    }
    std::size_t nl = buf_.find('\n');
    while (nl == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return {};
      buf_.append(chunk, static_cast<std::size_t>(n));
      nl = buf_.find('\n');
    }
    std::string line = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    return line;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Pull `"key":"value"` out of a response line (the bench only needs two
/// string fields; no JSON parser required on the client side).
std::string extract_string(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t start = at + needle.size();
  const std::size_t end = json.find('"', start);
  return end == std::string::npos ? std::string{}
                                  : json.substr(start, end - start);
}

double extract_number(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

int main() {
  bench::banner("sickle-serve concurrent case load",
                "library-shaped sessions: N concurrent cases, bit-identical "
                "to serial run_case");

  const std::string spill_dir = "/tmp/sickle_bench_serve_spill";
  std::printf("computing %zu reference hashes via run_case...\n", kSeeds);
  const std::vector<std::string> expected = reference_hashes(spill_dir);
  for (std::size_t s = 0; s < kSeeds; ++s) {
    std::printf("  seed %zu: %s\n", s, expected[s].c_str());
  }

  serve::ServeOptions opts;
  opts.port = 0;
  opts.session.max_concurrent_cases = 4;
  opts.session.queue_capacity = 256;
  serve::Server server(opts);
  server.start();
  std::printf("daemon on 127.0.0.1:%u | %zu clients x %zu cases\n\n",
              static_cast<unsigned>(server.port()), kClients,
              kCasesPerClient);

  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::vector<double>> latencies(kClients);

  Timer wall;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(server.port());
      for (std::size_t i = 0; i < kCasesPerClient; ++i) {
        const std::uint64_t seed = (c * kCasesPerClient + i) % kSeeds;
        Json req = Json::object();
        req.set("verb", "submit");
        req.set("config", case_yaml(seed, spill_dir));
        Timer t;
        const std::string sub = client.round_trip(req.dump());
        const double id = extract_number(sub, "id");
        if (sub.find("\"ok\":true") == std::string::npos || id < 0) {
          std::fprintf(stderr, "client %zu: submit failed: %s\n", c,
                       sub.c_str());
          mismatches.fetch_add(1);
          continue;
        }
        Json res = Json::object();
        res.set("verb", "result");
        res.set("id", id);
        const std::string result = client.round_trip(res.dump());
        const double latency_s = t.seconds();
        const std::string hash = extract_string(result, "sample_hash");
        if (hash != expected[seed]) {
          std::fprintf(stderr,
                       "client %zu case %zu: hash %s != expected %s (%s)\n",
                       c, i, hash.c_str(), expected[seed].c_str(),
                       result.substr(0, 160).c_str());
          mismatches.fetch_add(1);
          continue;
        }
        latencies[c].push_back(latency_s);
        completed.fetch_add(1);
      }
    });
  }
  for (auto& th : clients) th.join();
  const double wall_s = wall.seconds();
  server.stop();

  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  const std::size_t done = completed.load();
  const double p50 = percentile(all, 0.50);
  const double p90 = percentile(all, 0.90);
  const double p99 = percentile(all, 0.99);
  const double throughput = static_cast<double>(done) / wall_s;

  std::printf("completed %zu/%zu cases in %.2f s (%zu hash mismatches)\n",
              done, kClients * kCasesPerClient, wall_s, mismatches.load());
  std::printf("throughput %.1f cases/s | latency p50 %.1f ms | p90 %.1f ms "
              "| p99 %.1f ms\n",
              throughput, p50 * 1e3, p90 * 1e3, p99 * 1e3);

  bench::JsonReport report("serve_load");
  report.add("serve_load",
             {{"ns_per_op", p50 * 1e9},
              {"throughput_cases_per_s", throughput},
              {"p50_ms", p50 * 1e3},
              {"p90_ms", p90 * 1e3},
              {"p99_ms", p99 * 1e3},
              {"cases_completed", static_cast<double>(done)}},
             {{"clients", std::to_string(kClients)},
              {"concurrent_cases",
               std::to_string(opts.session.max_concurrent_cases)}});
  report.write("BENCH_serve.json");

  if (mismatches.load() != 0) {
    std::fprintf(stderr, "FAIL: %zu hash mismatches\n", mismatches.load());
    return 1;
  }
  if (done < 100) {
    std::fprintf(stderr, "FAIL: only %zu cases completed (< 100)\n", done);
    return 1;
  }
  std::printf("\nall %zu cases bit-identical to run_case\n", done);
  return 0;
}
