// Closed-loop NDJSON clients against an in-process sickle-serve: every
// client waits for each case's reply before submitting the next, so a
// slower daemon receives less load. Every served sample_hash and
// test_loss is checked against run_case's for the same seed.
//
// A client polls `status` while its case is queued, then waits in the
// blocking `result` verb, as tools/serve_client.py and bench_serve_load do.
// Latency therefore ends when the case ends, not at the next poll.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <latch>
#include <thread>

#include "common/error.hpp"
#include "ledger.hpp"
#include "serve/json.hpp"

namespace sickle::ledger {

namespace {

using serve::Json;
using Clock = std::chrono::steady_clock;

constexpr auto kPollInterval = std::chrono::milliseconds(10);

/// One blocking NDJSON connection: one request line, one response line.
class Client {
 public:
  explicit Client(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr)) != 0) {
      if (fd_ >= 0) ::close(fd_);
      throw RuntimeError("ledger: cannot connect to 127.0.0.1:" +
                         std::to_string(port));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Json call(const Json& request) {
    std::string framed = request.dump();
    framed.push_back('\n');
    for (std::size_t off = 0; off < framed.size();) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) throw RuntimeError("ledger: send failed");
      off += static_cast<std::size_t>(n);
    }
    std::size_t nl = buf_.find('\n');
    while (nl == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) throw RuntimeError("ledger: connection closed");
      buf_.append(chunk, static_cast<std::size_t>(n));
      nl = buf_.find('\n');
    }
    const std::string line = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    return Json::parse(line);
  }

 private:
  int fd_;
  std::string buf_;
};

bool ok(const Json& resp) {
  const Json* v = resp.get("ok");
  return v != nullptr && v->type() == Json::Type::kBool && v->as_bool();
}

std::string str(const Json& resp, const char* key) {
  const Json* v = resp.get(key);
  return v != nullptr && v->type() == Json::Type::kString ? v->as_string()
                                                          : std::string();
}

double num(const Json& resp, const char* key) {
  const Json* v = resp.get(key);
  return v != nullptr && v->type() == Json::Type::kNumber ? v->as_number()
                                                          : -1.0;
}

Json verb(const char* name) {
  Json j = Json::object();
  j.set("verb", name);
  return j;
}

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// One client's measured samples.
struct Samples {
  std::vector<double> latency, submit, status, result, queue_wait;
};

/// Submit, poll status while queued, wait for the result, check it.
/// `rec` == nullptr for warm-up cases (checked, not recorded).
void one_case(Client& cl, const LoadPlan& plan, std::size_t which, long rep,
              Gates& gates, SpanLog& spans, Samples* rec) {
  auto case_span = spans.scope("serve.case", nullptr, -1, rep);
  const Clock::time_point start = Clock::now();
  Json sub = verb("submit");
  sub.set("config", plan.yaml[which]);
  double submit_s = 0.0;
  Json ack;
  {
    auto s = spans.scope("serve.submit", &submit_s, -1, rep);
    ack = cl.call(sub);
  }
  if (!gates.check(ok(ack), "serve: submit refused: " + ack.dump())) return;
  const Clock::time_point acked = Clock::now();

  Json status = verb("status");
  status.set("id", num(ack, "id"));
  std::vector<double> status_s;
  for (;;) {
    double one = 0.0;
    Json st;
    {
      auto s = spans.scope("serve.status", &one, -1, rep);
      st = cl.call(status);
    }
    status_s.push_back(one);
    if (!ok(st) || str(st, "state") != "queued") break;
    std::this_thread::sleep_for(kPollInterval);
  }
  const double queue_wait_s = since(acked);

  Json result = verb("result");
  result.set("id", num(ack, "id"));
  double result_s = 0.0;
  Json res;
  {
    auto s = spans.scope("serve.result", &result_s, -1, rep);
    res = cl.call(result);
  }
  const double latency_s = since(start);
  const Expected& want = plan.expected[which];
  const bool good = ok(res) && str(res, "sample_hash") == want.sample_hash &&
                    num(res, "test_loss") == want.test_loss;
  if (!gates.check(good, "serve: case " + std::to_string(which) +
                             " mismatched run_case: " +
                             res.dump().substr(0, 200)) ||
      rec == nullptr) {
    return;
  }
  rec->latency.push_back(latency_s);
  rec->submit.push_back(submit_s);
  rec->status.insert(rec->status.end(), status_s.begin(), status_s.end());
  rec->result.push_back(result_s);
  rec->queue_wait.push_back(queue_wait_s);
}

}  // namespace

LoadResult run_load(const LoadPlan& plan, Gates& gates, SpanLog& spans) {
  std::vector<Samples> per(plan.clients);
  std::latch warmed(static_cast<std::ptrdiff_t>(plan.clients));
  std::latch go(1);
  Clock::time_point deadline;  // written before go opens
  std::vector<std::thread> clients;
  clients.reserve(plan.clients);
  for (std::size_t c = 0; c < plan.clients; ++c) {
    clients.emplace_back([&, c] {
      bool arrived = false;
      try {
        Client cl(plan.port);
        const std::size_t n = plan.yaml.size();
        long k = 0;
        if (plan.cases_per_client == 0) {
          one_case(cl, plan, c % n, k++, gates, spans, nullptr);
        }
        arrived = true;
        warmed.count_down();
        go.wait();
        while (plan.cases_per_client > 0
                   ? static_cast<std::size_t>(k) < plan.cases_per_client
                   : Clock::now() < deadline) {
          one_case(cl, plan, (c + static_cast<std::size_t>(k)) % n, k, gates,
                   spans, &per[c]);
          ++k;
        }
      } catch (const std::exception& e) {
        gates.check(false, std::string("serve client: ") + e.what());
        if (!arrived) warmed.count_down();
      }
    });
  }
  warmed.wait();
  const Clock::time_point t1 = Clock::now();
  deadline = t1 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(plan.seconds));
  go.count_down();
  for (auto& th : clients) th.join();

  LoadResult out;
  out.window_s = since(t1);
  for (const Samples& s : per) {
    out.latency_s.insert(out.latency_s.end(), s.latency.begin(),
                         s.latency.end());
    out.submit_s.insert(out.submit_s.end(), s.submit.begin(), s.submit.end());
    out.status_s.insert(out.status_s.end(), s.status.begin(), s.status.end());
    out.result_s.insert(out.result_s.end(), s.result.begin(), s.result.end());
    out.queue_wait_s.insert(out.queue_wait_s.end(), s.queue_wait.begin(),
                            s.queue_wait.end());
  }

  try {
    Client cl(plan.port);
    const Json scrape = cl.call(verb("metrics"));
    const Json* m = scrape.get("metrics");
    const double hits = m != nullptr ? num(*m, "serve.shared_cache.hits") : -1;
    const double misses =
        m != nullptr ? num(*m, "serve.shared_cache.misses") : -1;
    if (gates.check(ok(scrape) && hits >= 0 && misses >= 0,
                    "serve: metrics scrape failed: " + scrape.dump())) {
      out.shared_cache_hit_ratio =
          hits + misses > 0 ? hits / (hits + misses) : 0.0;
    }
  } catch (const std::exception& e) {
    gates.check(false, std::string("serve: metrics scrape: ") + e.what());
  }
  return out;
}

}  // namespace sickle::ledger
