// sickle-serve — the case-curation daemon.
//
//   sickle_serve [case.yaml] [--port N]
//
// Speaks newline-delimited JSON over TCP (see docs/SERVE.md): submit a
// case config, poll status, block on result, scrape metrics, shutdown.
// The optional config file supplies the `server:` section (port, host,
// max_concurrent_cases, queue_capacity) plus `observability:` defaults;
// --port overrides the file. Port 0 binds an ephemeral port — the
// "listening on" line is the contract the harnesses parse.
//
// Shutdown: the `shutdown` verb, SIGTERM, or SIGINT. All three drain the
// same way — stop accepting, cancel in-flight cases, join, exit 0.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/config.hpp"
#include "common/error.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "sickle/config_driver.hpp"

namespace {

volatile std::sig_atomic_t g_signalled = 0;
sickle::serve::Server* g_server = nullptr;

void on_signal(int /*sig*/) {
  g_signalled = 1;
  // request_stop only flips a flag + notifies; the actual teardown runs
  // on the main thread after wait() returns.
  if (g_server != nullptr) g_server->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sickle;

  std::string config_path;
  int port_override = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port_override = std::atoi(argv[++i]);
      if (port_override < 0 || port_override > 65535) {
        std::fprintf(stderr, "sickle-serve: --port must be in 0-65535\n");
        return 2;
      }
    } else if (config_path.empty()) {
      config_path = argv[i];
    } else {
      std::fprintf(stderr, "usage: %s [case.yaml] [--port N]\n", argv[0]);
      return 2;
    }
  }

  try {
    serve::ServeOptions opts;
    obs::ObsOptions oo;
    if (!config_path.empty()) {
      const Config cfg = Config::load(config_path);
      opts = serve::serve_options_from_config(cfg);
      oo = obs_options_from_config(cfg);
      obs::apply(oo);
    }
    if (port_override >= 0) {
      opts.port = static_cast<std::uint16_t>(port_override);
    }

    serve::Server server(opts);
    server.start();
    g_server = &server;
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);

    std::printf("sickle-serve listening on %s:%u\n", opts.host.c_str(),
                static_cast<unsigned>(server.port()));
    std::printf("  max_concurrent_cases %zu | queue_capacity %zu\n",
                opts.session.max_concurrent_cases,
                opts.session.queue_capacity);
    std::fflush(stdout);

    server.wait();  // shutdown verb, SIGTERM, or SIGINT
    g_server = nullptr;
    server.stop();
    obs::finalize(oo);
    std::printf("sickle-serve shut down cleanly (%zu cases submitted)\n",
                server.cases_submitted());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sickle-serve: %s\n", e.what());
    return 1;
  }
}
