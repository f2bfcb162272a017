#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <inttypes.h>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "sickle/config_driver.hpp"
#include "sickle/dataset_zoo.hpp"

namespace sickle::serve {

namespace {

/// sample_hash travels as a string because JSON numbers are doubles and a
/// 64-bit hash does not survive the round trip. The format matches
/// sickle_train's stdout ("%016PRIx64") so the e2e harness can diff the
/// two without normalization.
std::string hash_hex(std::uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

/// Longest unfinished request line a connection may buffer. A client that
/// sends more than this without a newline gets a `protocol` rejection and
/// is disconnected, so no connection grows the daemon's memory unbounded.
constexpr std::size_t kMaxRequestLineBytes = 1u << 20;

Json error_response(const std::string& code, const std::string& what) {
  Json resp = Json::object();
  resp.set("ok", false);
  resp.set("code", code);
  resp.set("error", what);
  return resp;
}

void send_all(int fd, const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::send(fd, framed.data() + off, framed.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return;  // client gone; nothing useful to do
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

ServeOptions serve_options_from_config(const Config& cfg) {
  // Every value is checked before its cast (-1 runners would become
  // 2^64-1 threads), and one ConfigError names every bad field.
  std::vector<ValidationIssue> issues;
  ServeOptions o;
  o.host = cfg.get_str("server", "host", o.host);
  const long port = cfg.get_int("server", "port", 0);
  if (port < 0 || port > 65535) {
    issues.push_back({"server.port", "port must be in 0-65535", ""});
  } else {
    o.port = static_cast<std::uint16_t>(port);
  }
  o.session.max_concurrent_cases = static_cast<std::size_t>(
      positive_int(cfg, "server", "max_concurrent_cases", 1, issues));
  o.session.queue_capacity = static_cast<std::size_t>(
      positive_int(cfg, "server", "queue_capacity", 16, issues));
  o.session.shared_block_cache =
      cfg.get_bool("server", "shared_block_cache", true);
  if (!issues.empty()) throw ConfigError(std::move(issues));
  return o;
}

struct Server::Impl {
  explicit Impl(ServeOptions o) : opts(std::move(o)) {}

  struct Conn {
    int fd = -1;       ///< -1 once connection_loop has closed it
    std::thread th;
  };

  ServeOptions opts;
  std::unique_ptr<CaseSession> session;

  int listen_fd = -1;
  std::thread accept_thread;

  std::mutex conns_mu;
  std::vector<std::unique_ptr<Conn>> conns;

  std::mutex handles_mu;
  std::map<std::uint64_t, CaseHandle> handles;
  std::atomic<std::size_t> submitted{0};

  std::mutex lifecycle_mu;
  std::condition_variable lifecycle_cv;
  bool shutdown_requested = false;
  std::atomic<bool> stopping{false};
  bool stopped = false;

  // ---------------------------------------------------------------- verbs

  [[nodiscard]] CaseHandle find_handle(std::uint64_t id) {
    std::lock_guard<std::mutex> lk(handles_mu);
    auto it = handles.find(id);
    return it == handles.end() ? CaseHandle() : it->second;
  }

  /// Parse the id operand; returns an invalid handle + fills `err` when
  /// the id is missing or unknown.
  [[nodiscard]] CaseHandle handle_for(const Json& req, Json* err) {
    const Json* id = req.get("id");
    if (id == nullptr || id->type() != Json::Type::kNumber) {
      *err = error_response("protocol", "missing numeric 'id'");
      return {};
    }
    CaseHandle h = find_handle(static_cast<std::uint64_t>(id->as_number()));
    if (!h.valid()) {
      *err = error_response("unknown_id",
                            "no case with id " +
                                std::to_string(static_cast<std::uint64_t>(
                                    id->as_number())));
    }
    return h;
  }

  Json do_submit(const Json& req) {
    const Json* cfg_text = req.get("config");
    if (cfg_text == nullptr || cfg_text->type() != Json::Type::kString) {
      return error_response("protocol", "missing string 'config'");
    }
    try {
      const Config cfg = Config::parse(cfg_text->as_string());
      CaseConfig cc = case_from_config(cfg);
      ProducerBundle bundle = make_dataset_producer(
          dataset_label_from_config(cfg),
          static_cast<std::uint64_t>(cfg.get_int("shared", "seed", 42)),
          dataset_scale_from_config(cfg));
      CaseHandle h = session->submit(std::move(bundle), std::move(cc));
      {
        std::lock_guard<std::mutex> lk(handles_mu);
        handles.emplace(h.id(), h);
      }
      submitted.fetch_add(1, std::memory_order_relaxed);
      Json resp = Json::object();
      resp.set("ok", true);
      resp.set("id", static_cast<double>(h.id()));
      return resp;
    } catch (const ConfigError& e) {
      // The whole point of validate(): EVERY issue in one round trip.
      Json resp = error_response("config", e.what());
      Json issues = Json::array();
      for (const auto& issue : e.issues()) {
        Json j = Json::object();
        j.set("field", issue.field);
        j.set("message", issue.message);
        if (!issue.hint.empty()) j.set("hint", issue.hint);
        issues.push(std::move(j));
      }
      resp.set("issues", std::move(issues));
      return resp;
    } catch (const QueueFullError& e) {
      return error_response("queue_full", e.what());
    } catch (const std::exception& e) {
      // Config::parse syntax errors, unknown dataset labels, ...
      return error_response("config", e.what());
    }
  }

  Json do_status(const Json& req) {
    Json err;
    CaseHandle h = handle_for(req, &err);
    if (!h.valid()) return err;
    const CaseStatus s = h.status();
    Json resp = Json::object();
    resp.set("ok", true);
    resp.set("id", static_cast<double>(h.id()));
    resp.set("state", to_string(s.state));
    resp.set("progress_done", static_cast<double>(s.progress_done));
    resp.set("progress_total", static_cast<double>(s.progress_total));
    if (s.state == CaseState::kFailed) {
      resp.set("code", to_string(s.error_code));
      resp.set("error", s.error);
    }
    return resp;
  }

  Json do_result(const Json& req) {
    Json err;
    CaseHandle h = handle_for(req, &err);
    if (!h.valid()) return err;
    try {
      const CaseReport& r = h.wait();  // blocks this connection thread only
      Json resp = Json::object();
      resp.set("ok", true);
      resp.set("id", static_cast<double>(h.id()));
      resp.set("state", "done");
      resp.set("sample_hash", hash_hex(r.sample_hash));
      resp.set("sampled_points", static_cast<double>(r.sampled_points));
      resp.set("store_bytes", static_cast<double>(r.store_bytes));
      resp.set("test_loss", r.train.test_loss);
      resp.set("final_train_loss", r.train.final_train_loss);
      resp.set("train_seconds", r.train.seconds);
      Json metrics = Json::object();
      for (const auto& [k, v] : r.metrics) metrics.set(k, v);
      resp.set("metrics", std::move(metrics));
      return resp;
    } catch (const CancelledError& e) {
      Json resp = error_response("cancelled", e.what());
      resp.set("id", static_cast<double>(h.id()));
      return resp;
    } catch (const CaseError& e) {
      Json resp = error_response(to_string(e.code()), e.what());
      resp.set("id", static_cast<double>(h.id()));
      return resp;
    }
  }

  Json do_cancel(const Json& req) {
    Json err;
    CaseHandle h = handle_for(req, &err);
    if (!h.valid()) return err;
    const bool cancelled = h.cancel();
    Json resp = Json::object();
    resp.set("ok", true);
    resp.set("id", static_cast<double>(h.id()));
    resp.set("cancelled", cancelled);
    return resp;
  }

  Json do_metrics() {
    // The registry snapshot plus the serve.* gauges, which the daemon
    // reads from its own state rather than the registry.
    Json metrics = Json::object();
    for (const auto& [k, v] : obs::MetricsRegistry::global().snapshot()) {
      metrics.set(k, v);
    }
    metrics.set("serve.cases_submitted",
                static_cast<double>(submitted.load(std::memory_order_relaxed)));
    metrics.set("serve.cases_queued", static_cast<double>(session->queued()));
    metrics.set("serve.cases_running",
                static_cast<double>(session->running()));
    {
      std::lock_guard<std::mutex> lk(conns_mu);
      metrics.set("serve.connections", static_cast<double>(conns.size()));
    }
    const store::CacheStats cache = CaseSession::shared_cache_stats();
    metrics.set("serve.shared_cache.hits", static_cast<double>(cache.hits));
    metrics.set("serve.shared_cache.misses",
                static_cast<double>(cache.misses));
    metrics.set("serve.shared_cache.resident_bytes",
                static_cast<double>(cache.resident_bytes));
    Json resp = Json::object();
    resp.set("ok", true);
    resp.set("metrics", std::move(metrics));
    return resp;
  }

  /// One request line -> one response line. Returns false when the
  /// connection should close (shutdown verb).
  bool handle_line(int fd, const std::string& line) {
    Json resp;
    bool keep_open = true;
    try {
      const Json req = Json::parse(line);
      const Json* verb = req.get("verb");
      if (!req.is_object() || verb == nullptr ||
          verb->type() != Json::Type::kString) {
        resp = error_response("protocol", "request needs a string 'verb'");
      } else if (verb->as_string() == "submit") {
        resp = do_submit(req);
      } else if (verb->as_string() == "status") {
        resp = do_status(req);
      } else if (verb->as_string() == "result") {
        resp = do_result(req);
      } else if (verb->as_string() == "cancel") {
        resp = do_cancel(req);
      } else if (verb->as_string() == "metrics") {
        resp = do_metrics();
      } else if (verb->as_string() == "shutdown") {
        resp = Json::object();
        resp.set("ok", true);
        keep_open = false;
        // Only flag it: wait() returns and the OWNER calls stop(). stop()
        // joins this very thread, so it must never run from here.
        {
          std::lock_guard<std::mutex> lk(lifecycle_mu);
          shutdown_requested = true;
        }
        lifecycle_cv.notify_all();
      } else {
        resp = error_response("protocol",
                              "unknown verb: " + verb->as_string());
      }
    } catch (const std::exception& e) {
      resp = error_response("protocol", e.what());
    }
    send_all(fd, resp.dump());
    return keep_open;
  }

  void connection_loop(Conn* conn) {
    std::string buf;
    std::size_t scanned = 0;  // prefix of buf already known newline-free
    char chunk[4096];
    bool open = true;
    while (open && !stopping.load(std::memory_order_relaxed)) {
      const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl = buf.find('\n', scanned);
           nl != std::string::npos && open;
           nl = buf.find('\n', start)) {
        std::string line = buf.substr(start, nl - start);
        start = nl + 1;
        if (!trim(line).empty()) open = handle_line(conn->fd, line);
      }
      buf.erase(0, start);
      scanned = buf.size();
      if (open && buf.size() > kMaxRequestLineBytes) {
        send_all(conn->fd,
                 error_response("protocol",
                                "request line longer than " +
                                    std::to_string(kMaxRequestLineBytes) +
                                    " bytes")
                     .dump());
        break;
      }
    }
    // Close under the registry lock so stop() can't shutdown() a reused
    // fd number; fd == -1 then tells the accept loop this thread is done.
    std::lock_guard<std::mutex> lk(conns_mu);
    ::close(conn->fd);
    conn->fd = -1;
  }

  /// Join and drop the connections whose loop has returned, so a
  /// long-lived daemon holds one thread per open connection only.
  void reap_finished() {
    std::vector<std::unique_ptr<Conn>> finished;
    {
      std::lock_guard<std::mutex> lk(conns_mu);
      const auto done = std::stable_partition(
          conns.begin(), conns.end(),
          [](const std::unique_ptr<Conn>& c) { return c->fd >= 0; });
      std::move(done, conns.end(), std::back_inserter(finished));
      conns.erase(done, conns.end());
    }
    for (auto& conn : finished) conn->th.join();
  }

  void accept_loop() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (stopping.load(std::memory_order_relaxed)) return;
        if (errno == EINTR || errno == ECONNABORTED) continue;
        return;  // listen socket is gone
      }
      if (stopping.load(std::memory_order_relaxed)) {
        ::close(fd);
        return;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      reap_finished();
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      Conn* raw = conn.get();
      {
        std::lock_guard<std::mutex> lk(conns_mu);
        conns.push_back(std::move(conn));
      }
      raw->th = std::thread([this, raw] { connection_loop(raw); });
    }
  }
};

Server::Server(ServeOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts))) {}

Server::~Server() { stop(); }

void Server::start() {
  Impl& s = *impl_;
  SICKLE_CHECK_MSG(s.listen_fd < 0, "Server::start called twice");
  s.session = std::make_unique<CaseSession>(s.opts.session);

  s.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (s.listen_fd < 0) throw RuntimeError("serve: socket() failed");
  const int one = 1;
  ::setsockopt(s.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(s.opts.port);
  if (::inet_pton(AF_INET, s.opts.host.c_str(), &addr.sin_addr) != 1) {
    ::close(s.listen_fd);
    s.listen_fd = -1;
    throw RuntimeError("serve: bad host address: " + s.opts.host);
  }
  if (::bind(s.listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string what = std::strerror(errno);
    ::close(s.listen_fd);
    s.listen_fd = -1;
    throw RuntimeError("serve: bind " + s.opts.host + ":" +
                       std::to_string(s.opts.port) + " failed: " + what);
  }
  if (::listen(s.listen_fd, 64) != 0) {
    const std::string what = std::strerror(errno);
    ::close(s.listen_fd);
    s.listen_fd = -1;
    throw RuntimeError("serve: listen failed: " + what);
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(s.listen_fd, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  s.accept_thread = std::thread([this] { impl_->accept_loop(); });
}

void Server::wait() {
  Impl& s = *impl_;
  std::unique_lock<std::mutex> lk(s.lifecycle_mu);
  s.lifecycle_cv.wait(lk, [&] { return s.shutdown_requested; });
}

void Server::request_stop() {
  Impl& s = *impl_;
  {
    std::lock_guard<std::mutex> lk(s.lifecycle_mu);
    s.shutdown_requested = true;
  }
  s.lifecycle_cv.notify_all();
}

void Server::stop() {
  Impl& s = *impl_;
  {
    std::lock_guard<std::mutex> lk(s.lifecycle_mu);
    if (s.stopped) return;
    s.stopped = true;
    s.shutdown_requested = true;
  }
  s.lifecycle_cv.notify_all();
  s.stopping.store(true, std::memory_order_relaxed);

  // 1. Stop accepting: shutdown() unblocks accept(), then join. The fd is
  //    closed only after the join, because the accept loop reads it.
  if (s.listen_fd >= 0) ::shutdown(s.listen_fd, SHUT_RDWR);
  if (s.accept_thread.joinable()) s.accept_thread.join();
  if (s.listen_fd >= 0) {
    ::close(s.listen_fd);
    s.listen_fd = -1;
  }

  // 2. Cancel every case so connection threads blocked in result-wait()
  //    unblock with CancelledError instead of deadlocking the joins below.
  {
    std::lock_guard<std::mutex> lk(s.handles_mu);
    for (auto& [id, h] : s.handles) {
      const CaseStatus st = h.status();
      if (st.state != CaseState::kDone && st.state != CaseState::kFailed &&
          st.state != CaseState::kCancelled) {
        h.cancel();
      }
    }
  }

  // 3. Unblock reads and join every connection thread.
  {
    std::lock_guard<std::mutex> lk(s.conns_mu);
    for (auto& conn : s.conns) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (auto& conn : s.conns) {  // no new conns: accept loop is gone
    if (conn->th.joinable()) conn->th.join();
  }

  // 4. Tear down the session (joins its runner threads).
  s.session.reset();
}

std::size_t Server::cases_submitted() const {
  return impl_->submitted.load(std::memory_order_relaxed);
}

}  // namespace sickle::serve
