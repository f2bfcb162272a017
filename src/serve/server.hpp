/// @file server.hpp
/// @brief sickle-serve: a TCP daemon fronting CaseSession with a
/// newline-delimited-JSON protocol (one request object per line, one
/// response object per line). Protocol reference: docs/SERVE.md.
///
/// Verbs:
///   {"verb":"submit","config":"<inline case YAML>"}
///       -> {"ok":true,"id":N}
///       -> {"ok":false,"code":"config","error":...,"issues":[...]}
///          (EVERY validation issue at once, from ConfigError)
///       -> {"ok":false,"code":"queue_full","error":...}
///   {"verb":"status","id":N}   -> state + per-stage progress, never blocks
///   {"verb":"result","id":N}   -> blocks until terminal; report or error
///   {"verb":"cancel","id":N}   -> {"ok":true,"cancelled":bool}
///   {"verb":"metrics"}         -> MetricsRegistry::global() snapshot
///                                 plus the serve.* gauges
///   {"verb":"shutdown"}        -> ack, then the daemon drains and exits
///
/// Concurrency: one accept loop, one thread per connection (the accept
/// loop joins finished ones before it registers the next), all case
/// execution inside the embedded CaseSession (admission control =
/// server.max_concurrent_cases runners + server.queue_capacity FIFO
/// slots). Hand-rolled on POSIX sockets — no new dependencies.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/config.hpp"
#include "sickle/session.hpp"

namespace sickle::serve {

struct ServeOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via Server::port()
  /// — how the bench and e2e harnesses avoid collisions).
  std::uint16_t port = 0;
  SessionOptions session;
};

/// Map the `server:` config section (port, host, max_concurrent_cases,
/// queue_capacity, shared_block_cache) onto ServeOptions. The port must
/// be in 0-65535 and both sizes positive; throws one ConfigError naming
/// every bad field.
[[nodiscard]] ServeOptions serve_options_from_config(const Config& cfg);

class Server {
 public:
  explicit Server(ServeOptions opts = {});
  /// stop()s if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + start the accept loop. Throws RuntimeError when the
  /// address is unavailable.
  void start();

  /// The bound port (resolves an ephemeral request). Valid after start().
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Block until a client sends {"verb":"shutdown"} or request_stop() is
  /// called (the daemon's SIGTERM handler does the latter).
  void wait();

  /// Unblock wait() without tearing anything down (signal-handler safe
  /// apart from the condition variable notify, so the daemon calls it
  /// from its main loop after the sig_atomic_t flag flips).
  void request_stop();

  /// Full teardown: close the listening socket, cancel every in-flight
  /// case, unblock and join all connection threads. Idempotent.
  void stop();

  /// Cases submitted over the lifetime of this server.
  [[nodiscard]] std::size_t cases_submitted() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint16_t port_ = 0;
};

}  // namespace sickle::serve
