// sickle-serve connection lifecycle: an in-process Server on an ephemeral
// port, driven over real loopback sockets.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "common/json.hpp"
#include "serve/server.hpp"
#include "sickle/errors.hpp"

namespace sickle::serve {
namespace {

/// Connect to the server, send one request line, read one response line,
/// close. Fails the test (and returns "") on any socket error.
std::string round_trip(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (fd < 0) return "";
  timeval timeout{10, 0};  // a hung server fails the test, not the suite
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::string line;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ADD_FAILURE() << "connect failed";
  } else {
    const std::string framed = request + "\n";
    EXPECT_EQ(::send(fd, framed.data(), framed.size(), 0),
              static_cast<ssize_t>(framed.size()));
    char c = 0;
    while (::recv(fd, &c, 1, 0) == 1 && c != '\n') line.push_back(c);
  }
  ::close(fd);
  return line;
}

/// serve.connections from one `metrics` reply.
double held_connections(std::uint16_t port) {
  const Json reply = Json::parse(round_trip(port, R"({"verb":"metrics"})"));
  const Json* metrics = reply.get("metrics");
  EXPECT_NE(metrics, nullptr);
  if (metrics == nullptr) return -1.0;
  const Json* held = metrics->get("serve.connections");
  EXPECT_NE(held, nullptr) << reply.dump();
  return held == nullptr ? -1.0 : held->as_number();
}

/// The fields one ConfigError from serve_options_from_config names; empty
/// (and a test failure) when the config is accepted.
std::vector<std::string> rejected_fields(const std::string& yaml) {
  std::vector<std::string> fields;
  try {
    (void)serve_options_from_config(Config::parse(yaml));
    ADD_FAILURE() << "accepted:\n" << yaml;
  } catch (const ConfigError& e) {
    for (const auto& issue : e.issues()) fields.push_back(issue.field);
  }
  return fields;
}

TEST(Serve, OptionsRejectOutOfRangeValues) {
  // Options only: no Server or CaseSession is built, so an unchecked -1
  // can never ask for 2^64-1 runner threads here.
  EXPECT_EQ(rejected_fields("server:\n"
                            "  port: 65536\n"
                            "  max_concurrent_cases: -1\n"
                            "  queue_capacity: 0\n"),
            (std::vector<std::string>{"server.port",
                                      "server.max_concurrent_cases",
                                      "server.queue_capacity"}));
  EXPECT_EQ(rejected_fields("server:\n  port: -1\n"),
            std::vector<std::string>{"server.port"});
  // The bounds themselves are accepted.
  const ServeOptions edge = serve_options_from_config(
      Config::parse("server:\n"
                    "  port: 65535\n"
                    "  max_concurrent_cases: 1\n"
                    "  queue_capacity: 1\n"));
  EXPECT_EQ(edge.port, 65535);
  EXPECT_EQ(edge.session.max_concurrent_cases, 1u);
  EXPECT_EQ(edge.session.queue_capacity, 1u);
}

TEST(Serve, FinishedConnectionsAreJoined) {
  Server server;
  server.start();
  // Each closed connection's thread returns; the accept loop must join and
  // drop it rather than keep its thread (and stack) for the daemon's life.
  for (int i = 0; i < 64; ++i) (void)held_connections(server.port());
  // The 65th connection itself plus, at most, the 64th if its thread has
  // not returned yet.
  const double held = held_connections(server.port());
  EXPECT_GE(held, 1.0);
  EXPECT_LE(held, 2.0);
  server.stop();
}

}  // namespace
}  // namespace sickle::serve
