// Case ledger — the end-to-end benchmark of whole SICKLE cases.
//
// Four workloads run through the public entry points (run_case, and
// CaseSession behind serve::Server) with tracing off and are timed end to
// end. With --trace 1 each workload instead runs once more, rebuilt from
// the layers' public functions and timed call by call, so a regression
// names a layer. Every run checks its outputs: repeats agree, the rebuild
// reproduces run_case, and every served case matches run_case.
//
//   bench/ledger/run.sh --workload curate-series --seed 1 --trace 0
//
// One workload per process, so process-wide numbers such as peak RSS
// belong to it. Prints `workload metric value unit` lines, writes a
// JsonReport (--out), and ends stdout with one JSON line: {"correct",
// "attempted", "failed", "metrics"}. README.md in this directory explains
// every metric.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "common/timer.hpp"
#include "ledger.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "sickle/config_driver.hpp"
#include "sickle/dataset_zoo.hpp"

namespace sickle::ledger {

// ------------------------------------------------------------- helpers

bool Gates::check(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lk(mu_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
  return ok;
}

std::size_t Gates::attempted() const {
  std::lock_guard<std::mutex> lk(mu_);
  return attempted_;
}

std::size_t Gates::failed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return failed_;
}

SpanLog::Scope::Scope(SpanLog& log, const char* name, double* acc,
                      long snapshot, long rep)
    : log_(log),
      name_(name),
      acc_(acc),
      snapshot_(snapshot),
      rep_(rep),
      start_(std::chrono::steady_clock::now()) {}

SpanLog::Scope::~Scope() {
  const auto end = std::chrono::steady_clock::now();
  if (acc_ != nullptr) {
    *acc_ += std::chrono::duration<double>(end - start_).count();
  }
  if (log_.enabled_) log_.record(name_, snapshot_, rep_, start_, end);
}

void SpanLog::set_context(std::string workload, long rep) {
  std::lock_guard<std::mutex> lk(mu_);
  workload_ = std::move(workload);
  rep_ = rep;
}

void SpanLog::record(const char* name, long snapshot, long rep,
                     std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point end) {
  using us = std::chrono::duration<double, std::micro>;
  std::lock_guard<std::mutex> lk(mu_);
  const auto self = std::this_thread::get_id();
  const auto it = std::find(threads_.begin(), threads_.end(), self);
  const std::size_t tid = static_cast<std::size_t>(it - threads_.begin());
  if (it == threads_.end()) threads_.push_back(self);
  events_.push_back({name, workload_, rep >= 0 ? rep : rep_, snapshot,
                     us(start - epoch_).count(), us(end - start).count(),
                     tid});
}

bool SpanLog::write(const std::string& path) const {
  serve::Json events = serve::Json::array();
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const Event& e : events_) {
      serve::Json args = serve::Json::object();
      args.set("workload", e.workload);
      args.set("rep", static_cast<double>(e.rep));
      args.set("snapshot", static_cast<double>(e.snapshot));
      serve::Json ev = serve::Json::object();
      ev.set("name", e.name);
      ev.set("cat", "ledger");
      ev.set("ph", "X");
      ev.set("ts", e.ts_us);
      ev.set("dur", e.dur_us);
      ev.set("pid", 1.0);
      ev.set("tid", static_cast<double>(e.tid));
      ev.set("args", std::move(args));
      events.push(std::move(ev));
    }
  }
  serve::Json doc = serve::Json::object();
  doc.set("traceEvents", std::move(events));
  std::ofstream out(path);
  out << doc.dump() << '\n';
  return static_cast<bool>(out.flush());
}

namespace {

namespace fs = std::filesystem;

/// One case shape, written as the YAML sections sickle_train and the
/// daemon's submit verb read, so the library run, the layer rebuild and
/// the served cases all run the same case.
struct CaseSpec {
  const char* dataset;
  double scale;
  const char* subsample;  ///< body lines of each section
  const char* store;      ///< must not set spill_dir (case_yaml does)
  const char* temporal;   ///< "" when the temporal stage is off
  const char* train;
};

/// The full case YAML for `seed`, spilling under `spill_dir`.
std::string case_yaml(const CaseSpec& spec, std::uint64_t seed,
                      const std::string& spill_dir) {
  char head[160];
  std::snprintf(head, sizeof(head),
                "shared:\n  dataset: %s\n  scale: %g\n  seed: %" PRIu64 "\n",
                spec.dataset, spec.scale, seed);
  std::string y = head;
  y += std::string("subsample:\n") + spec.subsample;
  y += std::string("store:\n") + spec.store + "  spill_dir: " + spill_dir +
       "\n";
  if (*spec.temporal != '\0') y += std::string("temporal:\n") + spec.temporal;
  y += std::string("train:\n") + spec.train;
  return y;
}

/// Parse case_yaml into the CaseConfig run_case takes, with the variable
/// roles filled from `roles` exactly as run_case fills empty ones.
CaseConfig case_config(const CaseSpec& spec, std::uint64_t seed,
                       const std::string& spill_dir,
                       const DatasetBundle& roles) {
  CaseConfig cfg = case_from_config(Config::parse(case_yaml(spec, seed,
                                                            spill_dir)));
  auto& pl = cfg.pipeline;
  if (pl.input_vars.empty()) pl.input_vars = roles.input_vars;
  if (pl.output_vars.empty()) pl.output_vars = roles.output_vars;
  if (pl.cluster_var.empty()) pl.cluster_var = roles.cluster_var;
  return cfg;
}

/// A ProducerBundle replaying `data` through flow::DatasetProducer — the
/// only way the ledger hands a dataset to the program. `data` must
/// outlive the bundle.
ProducerBundle replay(const DatasetBundle& data) {
  ProducerBundle b;
  b.producer = std::make_unique<flow::DatasetProducer>(data.data);
  b.name = "replay";
  b.input_vars = data.input_vars;
  b.output_vars = data.output_vars;
  b.cluster_var = data.cluster_var;
  return b;
}

/// Median and nearest-rank percentile of a sample (0 when empty).
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ----------------------------------------------------------- workloads

struct Workload {
  const char* name;
  CaseSpec spec;  ///< serve: the case every client submits
  bool serve;
};

// Each workload stresses different layers (README.md has the full why).
// Sizes keep one run, set-up included, near 20 s with the 10 s window on
// a 4-core host.
const Workload kWorkloads[] = {
    // Curation-heavy: store append and decode, temporal selection, maxent
    // cube scoring and per-cube k-means; training is a few percent.
    {"curate-series",
     {"SST-P1F4", 1.0,
      "  hypercubes: maxent\n  method: maxent\n  num_hypercubes: 8\n"
      "  num_samples: 128\n  num_clusters: 8\n  threads: 1\n",
      "  backend: series\n  ingest: streaming\n  codec: gorilla\n"
      "  chunk: 16\n",
      "  num_snapshots: 4\n",
      "  arch: MLP_transformer\n  epochs: 4\n  dim: 16\n  heads: 2\n"},
     false},
    // Training-heavy and in memory: the store is never touched, so this is
    // the no-change control for store and sampling work.
    {"train-dense",
     {"SST-P1F4", 1.0,
      "  hypercubes: random\n  method: random\n  num_hypercubes: 32\n"
      "  num_samples: 128\n  threads: 1\n",
      "  backend: memory\n", "",
      "  arch: CNN_transformer\n  epochs: 4\n  dim: 32\n  heads: 4\n"},
     false},
    // Out of core: one 2 MiB variable-snapshot against a 1 MiB reader
    // cache, on the fused write-sample-delete skl2 path with a 2-worker
    // pool, so phase-1 scoring re-decodes evicted blocks.
    {"ooc-skl2",
     {"GESTS-8192", 0.5,
      "  hypercubes: maxent\n  method: uips\n  num_hypercubes: 16\n"
      "  num_samples: 128\n  num_clusters: 8\n  threads: 2\n",
      "  backend: skl2\n  ingest: streaming\n  codec: delta\n  chunk: 8\n"
      "  cache_mb: 1\n",
      "", "  arch: MLP_transformer\n  epochs: 2\n  dim: 16\n  heads: 2\n"},
     false},
    // The daemon path with tiny cases, so admission, queueing, status
    // reads, the shared block cache and the transport show.
    {"serve-closed4",
     {"SST-P1F4", 0.25,
      "  hypercubes: random\n  method: maxent\n  num_hypercubes: 2\n"
      "  num_samples: 17\n  num_clusters: 3\n",
      "  backend: series\n  ingest: streaming\n  codec: delta\n"
      "  chunk: 16\n  write_budget_mb: 1\n",
      "", "  arch: MLP_transformer\n  epochs: 1\n  batch: 4\n  dim: 8\n"
      "  heads: 2\n"},
     true},
};

// setup_s is the median of at least kMinSetups set-ups, repeated until
// kSetupSeconds have passed: a 0.2 s set-up alone is too short to be
// steady on a noisy host.
constexpr std::size_t kMinSetups = 3;
constexpr double kSetupSeconds = 2.0;
// Each timed run measures for kWindowSeconds, and at least kMinReps
// cases on a case workload. The window is fixed here so that every run
// of every commit is equally long; --seconds must repeat it.
constexpr int kWindowSeconds = 10;
constexpr std::size_t kMinReps = 3;
constexpr int kReferenceReps = 3;    // untraced runs behind a traced one
constexpr std::size_t kServeClients = 4;
constexpr std::size_t kServeSeeds = 4;  // seeds seed .. seed+3, cycled
constexpr std::size_t kSmokeCasesPerClient = 4;

bool more_setups(const std::vector<double>& done, bool smoke) {
  if (smoke) return done.empty();
  double total = 0.0;
  for (const double s : done) total += s;
  return done.size() < kMinSetups || total < kSetupSeconds;
}

serve::ServeOptions serve_options() {
  serve::ServeOptions so;
  so.port = 0;
  so.session.max_concurrent_cases = 2;
  so.session.queue_capacity = 8;
  so.session.shared_block_cache = true;
  return so;
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  bool trace = false;
  bool smoke = false;
  std::string out;  ///< default BENCH_ledger_<workload>.json
};

/// What one workload run produced.
struct Outcome {
  std::vector<Metric> metrics;  ///< end-to-end (untraced) or per-layer
  std::vector<Metric> extra;    ///< printed and written, not registered
  std::vector<double> repeats_s;
  std::vector<std::pair<std::string, std::string>> labels;
};

/// A mkdtemp spill directory in the working directory, removed on exit.
class SpillDir {
 public:
  SpillDir() {
    std::string tmpl = (fs::current_path() / "ledger-spill-XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw RuntimeError("ledger: mkdtemp failed in " +
                         fs::current_path().string());
    }
    path_ = tmpl;
  }
  ~SpillDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  SpillDir(const SpillDir&) = delete;
  SpillDir& operator=(const SpillDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Peak resident set of this process, which runs one workload only.
double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string hex(std::uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

bool same_result(const CaseReport& a, const CaseReport& b) {
  return a.sample_hash == b.sample_hash &&
         a.train.test_loss == b.train.test_loss;
}

std::vector<Metric> serve_layer_metrics(const LoadResult& r) {
  return {
      {"serve.submit_ms", median(r.submit_s) * 1e3, "ms"},
      {"serve.status_us_p50", percentile(r.status_s, 0.50) * 1e6, "us"},
      {"serve.status_us_p90", percentile(r.status_s, 0.90) * 1e6, "us"},
      {"serve.result_ms", median(r.result_s) * 1e3, "ms"},
      {"session.queue_wait_ms", median(r.queue_wait_s) * 1e3, "ms"},
      {"serve.shared_cache_hit_ratio", r.shared_cache_hit_ratio, "fraction"},
  };
}

/// R1's "rank the layers" step: each layer's rebuilt time as a share of
/// the untraced case wall time, largest first.
void print_shares(const char* workload, std::vector<Metric> shares,
                  double wall_s, std::size_t pipeline_threads) {
  std::sort(shares.begin(), shares.end(),
            [](const Metric& a, const Metric& b) { return a.value > b.value; });
  std::printf("# %s layer shares of case_wall_s %.4f s "
              "(hardware_threads %u, pipeline threads %zu)\n",
              workload, wall_s, std::thread::hardware_concurrency(),
              pipeline_threads);
  for (const Metric& m : shares) {
    std::printf("#   %-20s %9.4f s %6.1f%%\n", m.name.c_str(), m.value,
                100.0 * m.value / wall_s);
  }
}

/// Run `cfg` on a replay of `data`, returning the report and its wall time.
CaseReport timed_case(const DatasetBundle& data, const CaseConfig& cfg,
                      double* wall_s) {
  ProducerBundle bundle = replay(data);
  Timer t;
  CaseReport r = run_case(bundle, cfg);
  *wall_s = t.seconds();
  return r;
}

/// Median wall time of kReferenceReps more runs of the case, each
/// checked against `ref` — the untraced time the layer shares divide.
double reference_wall(const DatasetBundle& data, const CaseConfig& cfg,
                      const CaseReport& ref, const char* workload,
                      Gates& gates) {
  std::vector<double> walls;
  for (int i = 0; i < kReferenceReps; ++i) {
    double wall = 0.0;
    const CaseReport r = timed_case(data, cfg, &wall);
    gates.check(same_result(r, ref),
                std::string(workload) + ": reference repeat differs");
    walls.push_back(wall);
  }
  return median(walls);
}

/// The case half of a traced run: the untraced reference wall time, then
/// the layer rebuild, gated against `ref`, with its share table printed.
void add_layers(const Workload& w, const DatasetBundle& data,
                const CaseConfig& cfg, const CaseReport& ref,
                double generate_s, const std::string& spill, Gates& gates,
                SpanLog& spans, Outcome& o) {
  const double wall = reference_wall(data, cfg, ref, w.name, gates);
  spans.set_context(w.name, 0);
  const LayerReport lr = rebuild_case(data, cfg, spill, wall, spans);
  gates.check(lr.sample_hash == ref.sample_hash,
              std::string(w.name) + ": traced fingerprint " +
                  hex(lr.sample_hash) + " != " + hex(ref.sample_hash));
  gates.check(lr.test_loss == ref.train.test_loss,
              std::string(w.name) + ": traced test loss differs");
  gates.check(lr.pool_runs_match,
              std::string(w.name) + ": pool rerun samples differ");
  o.metrics.push_back({"flow.generate_s", generate_s, "s"});
  o.metrics.insert(o.metrics.end(), lr.metrics.begin(), lr.metrics.end());
  o.extra.insert(o.extra.end(), lr.extra.begin(), lr.extra.end());
  o.extra.push_back({"case_wall_s", wall, "s"});
  print_shares(w.name, lr.shares, wall, cfg.pipeline.threads);
}

Outcome run_case_workload(const Workload& w, const Options& opt,
                          const std::string& spill, Gates& gates,
                          SpanLog& spans) {
  Outcome o;
  std::vector<double> setup_s;
  DatasetBundle data;
  while (more_setups(setup_s, opt.smoke)) {
    Timer t;
    data = make_dataset(w.spec.dataset, opt.seed, w.spec.scale);
    setup_s.push_back(t.seconds());
  }
  const CaseConfig cfg = case_config(w.spec, opt.seed, spill, data);
  o.labels = {{"pipeline_threads", std::to_string(cfg.pipeline.threads)},
              {"encode_pool_workers",
               std::to_string(ThreadPool::global().size())}};

  // The first case warms caches and the allocator; it is not timed, and
  // its hash and loss are what every later repeat must reproduce.
  double wall = 0.0;
  const CaseReport ref = timed_case(data, cfg, &wall);
  gates.check(ref.sampled_points > 0, std::string(w.name) + ": no samples");
  o.labels.push_back({"sample_hash", hex(ref.sample_hash)});
  o.extra = {
      {"test_loss", ref.train.test_loss, "mse"},
      {"store_mb", static_cast<double>(ref.store_bytes) / 1e6, "MB"},
      {"energy_model_j", ref.total_kilojoules() * 1e3, "J"},
  };

  if (opt.trace) {
    add_layers(w, data, cfg, ref, median(setup_s), spill, gates, spans, o);
    return o;
  }

  Timer window;
  if (opt.smoke) {
    o.repeats_s.push_back(wall);
  } else {
    do {
      const CaseReport r = timed_case(data, cfg, &wall);
      gates.check(same_result(r, ref),
                  std::string(w.name) + ": repeat " +
                      std::to_string(o.repeats_s.size()) + " hash " +
                      hex(r.sample_hash) + " != " + hex(ref.sample_hash));
      o.repeats_s.push_back(wall);
    } while (window.seconds() < kWindowSeconds ||
             o.repeats_s.size() < kMinReps);
  }
  const double window_s = opt.smoke ? wall : window.seconds();
  const auto n = static_cast<double>(o.repeats_s.size());
  o.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"latency_p50_ms", median(o.repeats_s) * 1e3, "ms"},
      {"cases_per_s", n / window_s, "1/s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
  o.extra.push_back({"cases_measured", n, "count"});
  return o;
}

Outcome run_serve_workload(const Workload& w, const Options& opt,
                           const std::string& spill, Gates& gates,
                           SpanLog& spans) {
  Outcome o;
  // Set-up: the run_case reference of every seed the clients cycle
  // through, then a started daemon. Repeated for a median; each repeat's
  // references must agree.
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<Expected> expected;
  DatasetBundle first;
  CaseReport first_ref;
  std::unique_ptr<serve::Server> server;
  while (more_setups(setup_s, opt.smoke)) {
    server.reset();
    Timer t;
    std::vector<Expected> refs;
    for (std::size_t i = 0; i < kServeSeeds; ++i) {
      Timer g;
      DatasetBundle data = make_dataset(w.spec.dataset, opt.seed + i,
                                        w.spec.scale);
      if (i == 0) generate_s.push_back(g.seconds());
      const CaseConfig cfg = case_config(w.spec, opt.seed + i, spill, data);
      double wall = 0.0;
      CaseReport r = timed_case(data, cfg, &wall);
      refs.push_back({hex(r.sample_hash), r.train.test_loss});
      if (i == 0) {
        first = std::move(data);
        first_ref = std::move(r);
      }
    }
    server = std::make_unique<serve::Server>(serve_options());
    server->start();
    setup_s.push_back(t.seconds());
    if (!expected.empty()) {
      bool agree = true;
      for (std::size_t i = 0; i < kServeSeeds; ++i) {
        agree = agree && refs[i].sample_hash == expected[i].sample_hash &&
                refs[i].test_loss == expected[i].test_loss;
      }
      gates.check(agree, "serve: set-up references differ between repeats");
    }
    expected = std::move(refs);
  }
  const serve::ServeOptions so = serve_options();
  o.labels = {
      {"serve_runners", std::to_string(so.session.max_concurrent_cases)},
      {"serve_clients", std::to_string(kServeClients)},
      {"encode_pool_workers", std::to_string(ThreadPool::global().size())},
      {"sample_hash", expected.front().sample_hash}};

  LoadPlan plan;
  plan.port = server->port();
  plan.clients = kServeClients;
  for (std::size_t i = 0; i < kServeSeeds; ++i) {
    plan.yaml.push_back(case_yaml(w.spec, opt.seed + i, spill));
  }
  plan.expected = expected;
  plan.cases_per_client = opt.smoke ? kSmokeCasesPerClient : 0;
  plan.seconds = kWindowSeconds;

  if (opt.trace) {
    // The served case of the first seed, rebuilt layer by layer, then
    // the closed loop again for client-side per-verb times.
    const CaseConfig cfg = case_config(w.spec, opt.seed, spill, first);
    add_layers(w, first, cfg, first_ref, median(generate_s), spill, gates,
               spans, o);
    const auto served = serve_layer_metrics(run_load(plan, gates, spans));
    server->stop();
    o.extra.insert(o.extra.end(), served.begin(), served.end());
    return o;
  }

  const LoadResult r = run_load(plan, gates, spans);
  server->stop();
  o.repeats_s = r.latency_s;
  const auto n = static_cast<double>(r.latency_s.size());
  o.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"latency_p50_ms", median(r.latency_s) * 1e3, "ms"},
      {"cases_per_s", n / r.window_s, "1/s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
  o.extra = {
      {"latency_p90_ms", percentile(r.latency_s, 0.90) * 1e3, "ms"},
      {"cases_measured", n, "count"},
  };
  return o;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "ledger: %s\nusage: ledger --workload NAME [--seed S] "
               "[--seconds %d] [--trace 0|1] [--smoke] [--out FILE]\n"
               "workloads:",
               why.c_str(), kWindowSeconds);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      const std::string name = value();
      const auto* w = std::find_if(
          std::begin(kWorkloads), std::end(kWorkloads),
          [&](const Workload& x) { return name == x.name; });
      if (w == std::end(kWorkloads)) usage("unknown workload " + name);
      if (opt.workload != nullptr) usage("one --workload per run");
      opt.workload = w;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      if (value() != std::to_string(kWindowSeconds)) {
        usage("the measured window is fixed; --seconds must be " +
              std::to_string(kWindowSeconds));
      }
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--out") {
      opt.out = value();
    } else {
      usage("unknown argument " + a);
    }
  }
  if (opt.workload == nullptr) usage("--workload is required");
  if (opt.smoke && opt.trace) usage("--smoke runs untraced");
  if (opt.out.empty()) {
    opt.out = std::string("BENCH_ledger_") + opt.workload->name + ".json";
  }
  return opt;
}

void print(const char* workload, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%s %s %.6g %s\n", workload, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

}  // namespace sickle::ledger

int main(int argc, char** argv) {
  using namespace sickle;
  using namespace sickle::ledger;
  const Options opt = parse_args(argc, argv);
  const Workload& w = *opt.workload;
  const char* mode = opt.smoke ? "smoke" : opt.trace ? "trace" : "timed";
  std::printf("# ledger git %s, hardware_threads %u, seed %" PRIu64
              ", mode %s, window %d s\n",
              bench::git_sha().c_str(), std::thread::hardware_concurrency(),
              opt.seed, mode, kWindowSeconds);

  const SpillDir spill;
  SpanLog spans(opt.trace);
  Gates gates;
  Outcome o;
  try {
    o = w.serve ? run_serve_workload(w, opt, spill.path(), gates, spans)
                : run_case_workload(w, opt, spill.path(), gates, spans);
  } catch (const std::exception& e) {
    gates.check(false, std::string(w.name) + ": " + e.what());
  }
  const double failure_ratio =
      static_cast<double>(gates.failed()) /
      static_cast<double>(std::max<std::size_t>(1, gates.attempted()));
  o.extra.push_back({"failure_ratio", failure_ratio, "fraction"});
  print(w.name, o.metrics);
  print(w.name, o.extra);

  bench::JsonReport report("ledger");
  std::vector<std::pair<std::string, double>> values;
  for (const auto* list : {&o.metrics, &o.extra}) {
    for (const Metric& m : *list) values.emplace_back(m.name, m.value);
  }
  o.labels.push_back({"seed", std::to_string(opt.seed)});
  o.labels.push_back({"mode", mode});
  report.add(w.name, values, o.labels);
  for (const double s : o.repeats_s) {
    report.add_sample(std::string(w.name) + ".repeats", "wall_s", s);
  }
  report.write(opt.out);
  if (opt.trace && spans.write("ledger.trace.json")) {
    std::printf("# wrote ledger.trace.json\n");
  }

  serve::Json metrics = serve::Json::object();
  for (const Metric& m : o.metrics) {
    serve::Json entry = serve::Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  const bool correct = gates.failed() == 0;
  serve::Json result = serve::Json::object();
  result.set("correct", correct);
  result.set("attempted", static_cast<double>(gates.attempted()));
  result.set("failed", static_cast<double>(gates.failed()));
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return correct ? 0 : 1;
}
