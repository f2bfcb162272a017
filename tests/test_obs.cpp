// Observability layer: metrics registry, scoped span tracing, Chrome
// trace export, and the per-stage case telemetry the orchestrator and
// store publish through it. The pool fan-out tests double as the TSan
// targets for the tracer's locked span buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "sickle/case.hpp"
#include "sickle/dataset_zoo.hpp"
#include "store/snapshot_store.hpp"

namespace sickle {
namespace {

namespace fs = std::filesystem;

/// Disable the layer, drop every buffered span and zero every metric. The
/// registry keeps the names an earlier test in the same process registered
/// (cached handles must stay valid), so a test compares snapshots rather
/// than expecting an empty one.
void reset_obs() {
  obs::set_enabled(false);
  obs::Tracer::instance().clear();
  obs::MetricsRegistry::global().reset();
}

CaseConfig tiny_case(const std::string& backend, const std::string& ingest) {
  CaseConfig cfg;
  cfg.pipeline.cube = {8, 8, 8};
  cfg.pipeline.hypercube_method = "random";
  cfg.pipeline.point_method = "maxent";
  cfg.pipeline.num_hypercubes = 3;
  cfg.pipeline.num_samples = 51;
  cfg.pipeline.num_clusters = 5;
  cfg.pipeline.seed = 7;
  cfg.arch = "MLP_Transformer";
  cfg.train.epochs = 2;
  cfg.train.batch = 4;
  cfg.model_dim = 16;
  cfg.model_heads = 2;
  cfg.backend = backend;
  cfg.ingest = ingest;
  cfg.store.chunk = {16, 16, 16};
  cfg.store.codec = "delta";
  return cfg;
}

CaseReport run_tiny(const std::string& backend, const std::string& ingest,
                    CaseConfig cfg) {
  (void)backend;
  (void)ingest;
  ProducerBundle bundle = make_dataset_producer("SST-P1F4", 3, 0.5);
  return run_case(bundle, cfg);
}

TEST(Metrics, CounterGaugeHistogramBasics) {
  obs::MetricsRegistry reg;
  auto& c = reg.counter("test.events");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  // Same name resolves to the same instrument.
  EXPECT_EQ(&reg.counter("test.events"), &c);

  auto& g = reg.gauge("test.busy_seconds");
  g.add(0.5);
  g.add(0.25);
  EXPECT_DOUBLE_EQ(g.value(), 0.75);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);

  auto& h = reg.histogram("test.latency_seconds");
  EXPECT_DOUBLE_EQ(h.min(), 0.0);  // empty: sentinels clamp to 0
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  h.observe(3.0);
  h.observe(1.0);
  h.observe(2.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);

  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.at("test.events"), 5.0);
  EXPECT_DOUBLE_EQ(snap.at("test.busy_seconds"), 2.0);
  EXPECT_DOUBLE_EQ(snap.at("test.latency_seconds.count"), 3.0);
  EXPECT_DOUBLE_EQ(snap.at("test.latency_seconds.min"), 1.0);
  EXPECT_DOUBLE_EQ(snap.at("test.latency_seconds.max"), 3.0);

  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
}

TEST(Metrics, KindMismatchThrows) {
  obs::MetricsRegistry reg;
  (void)reg.counter("test.value");
  EXPECT_THROW((void)reg.gauge("test.value"), RuntimeError);
  EXPECT_THROW((void)reg.histogram("test.value"), RuntimeError);
}

TEST(Metrics, JsonExportIsSortedAndParsesBack) {
  obs::MetricsRegistry reg;
  reg.counter("b.count").add(2);
  reg.gauge("a.seconds").set(1.5);
  const std::string json = reg.to_json();
  const Json doc = Json::parse(json);
  const Json* metrics = doc.get("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->get("a.seconds"), nullptr);
  ASSERT_NE(metrics->get("b.count"), nullptr);
  EXPECT_EQ(metrics->get("a.seconds")->as_number(), 1.5);
  EXPECT_EQ(metrics->get("b.count")->as_number(), 2.0);
  // Sorted: "a.seconds" before "b.count".
  EXPECT_LT(json.find("\"a.seconds\""), json.find("\"b.count\""));

  const auto path = fs::temp_directory_path() / "sickle_obs_metrics.json";
  reg.write_json(path.string());
  std::ifstream in(path);
  const std::string on_disk((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, json);
  fs::remove(path);
}

TEST(Trace, DisabledSpansRecordNothing) {
  reset_obs();
  const std::size_t before = obs::Tracer::instance().size();
  const auto metrics_before = obs::MetricsRegistry::global().snapshot();
  for (int i = 0; i < 200000; ++i) {
    obs::Span span("test.disabled", "test");
  }
  EXPECT_EQ(obs::Tracer::instance().size(), before);
  // The registry is untouched too: disabled instrumentation publishes
  // nothing (the BlockCache/pool publications are gated on enabled()).
  EXPECT_EQ(obs::MetricsRegistry::global().snapshot(), metrics_before);
}

TEST(Trace, NestedSpansSingleThread) {
  reset_obs();
  obs::set_enabled(true);
  {
    obs::Span root("test.root", "test");
    {
      obs::Span child("test.child", "test");
      { obs::Span leaf("test.leaf", "test"); }
    }
    { obs::Span sibling("test.sibling", "test"); }
  }
  obs::set_enabled(false);

  const auto events = obs::Tracer::instance().events();
  ASSERT_EQ(events.size(), 4u);
  // Sorted (tid, ts, -dur): root first, then child, leaf, sibling.
  EXPECT_STREQ(events[0].name, "test.root");
  EXPECT_STREQ(events[1].name, "test.child");
  EXPECT_STREQ(events[2].name, "test.leaf");
  EXPECT_STREQ(events[3].name, "test.sibling");
  EXPECT_EQ(events[0].parent, 0u);
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].parent, events[0].id);
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].parent, events[1].id);
  EXPECT_EQ(events[2].depth, 2u);
  EXPECT_EQ(events[3].parent, events[0].id);
  EXPECT_EQ(events[3].depth, 1u);
  // Containment: every child interval inside its parent's.
  for (const auto& ev : events) {
    if (ev.parent == 0) continue;
    const auto parent = std::find_if(
        events.begin(), events.end(),
        [&](const obs::TraceEvent& p) { return p.id == ev.parent; });
    ASSERT_NE(parent, events.end());
    EXPECT_GE(ev.ts_ns, parent->ts_ns);
    EXPECT_LE(ev.ts_ns + ev.dur_ns, parent->ts_ns + parent->dur_ns);
  }
  obs::Tracer::instance().clear();
  EXPECT_EQ(obs::Tracer::instance().size(), 0u);
}

TEST(Trace, PoolFanOutNestingDeterministic) {
  // Spans on pool workers land in the one locked buffer; every task's
  // inner/outer pair must nest under that worker's pool.task span with
  // consistent parent links regardless of scheduling. This is the TSan
  // target for the tracer's buffer and its thread-local span stacks.
  reset_obs();
  obs::set_enabled(true);
  const std::uint64_t tasks_before =
      obs::MetricsRegistry::global().counter("pool.tasks_executed").value();
  constexpr int kTasks = 16;
  {
    ThreadPool pool(2);
    TaskGroup group(pool);
    for (int i = 0; i < kTasks; ++i) {
      group.run([] {
        obs::Span outer("test.outer", "test");
        obs::Span inner("test.inner", "test");
      });
    }
    group.wait();
  }
  obs::set_enabled(false);

  const auto events = obs::Tracer::instance().events();
  std::map<std::uint64_t, const obs::TraceEvent*> by_id;
  int pool_spans = 0, outer_spans = 0, inner_spans = 0;
  for (const auto& ev : events) by_id[ev.id] = &ev;
  for (const auto& ev : events) {
    if (std::string_view(ev.name) == "pool.task") {
      ++pool_spans;
      EXPECT_EQ(ev.parent, 0u);
      EXPECT_EQ(ev.depth, 0u);
    } else if (std::string_view(ev.name) == "test.outer") {
      ++outer_spans;
      ASSERT_TRUE(by_id.count(ev.parent));
      EXPECT_STREQ(by_id[ev.parent]->name, "pool.task");
      EXPECT_EQ(by_id[ev.parent]->tid, ev.tid);
      EXPECT_EQ(ev.depth, 1u);
    } else if (std::string_view(ev.name) == "test.inner") {
      ++inner_spans;
      ASSERT_TRUE(by_id.count(ev.parent));
      EXPECT_STREQ(by_id[ev.parent]->name, "test.outer");
      EXPECT_EQ(by_id[ev.parent]->tid, ev.tid);
      EXPECT_EQ(ev.depth, 2u);
    }
  }
  EXPECT_EQ(pool_spans, kTasks);
  EXPECT_EQ(outer_spans, kTasks);
  EXPECT_EQ(inner_spans, kTasks);
  EXPECT_EQ(
      obs::MetricsRegistry::global().counter("pool.tasks_executed").value(),
      tasks_before + kTasks);
  reset_obs();
}

TEST(Trace, ChromeExportParsesBackToTheBufferedEvents) {
  // The exporter's own round trip, which needs no python3: one line of
  // JSON holding every buffered event in events() order, with integer
  // ids, parents, depths and dropped_events.
  reset_obs();
  obs::set_enabled(true);
  {
    obs::Span root("test.root", "test");
    obs::Span child("test.child", "test");
    ThreadPool pool(2);
    TaskGroup group(pool);
    for (int i = 0; i < 4; ++i) {
      group.run([] { obs::Span task_span("test.task", "test"); });
    }
    group.wait();
  }
  obs::set_enabled(false);

  const auto want = obs::Tracer::instance().events();
  const auto path = fs::temp_directory_path() / "sickle_obs_parse.json";
  obs::Tracer::instance().write_chrome_trace(path.string());
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  fs::remove(path);
  EXPECT_EQ(text.find('\n'), text.size() - 1);

  const Json doc = Json::parse(text);
  ASSERT_NE(doc.get("otherData"), nullptr);
  EXPECT_EQ(doc.get("otherData")->dump(), "{\"dropped_events\":0}");
  const Json* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), want.size());
  ASSERT_EQ(want.size(), 10u);  // root, child, 4 tasks, 4 pool.task
  for (std::size_t i = 0; i < want.size(); ++i) {
    const obs::TraceEvent& e = want[i];
    const Json& ev = events->items()[i];
    ASSERT_TRUE(ev.is_object());
    ASSERT_NE(ev.get("name"), nullptr);
    EXPECT_EQ(ev.get("name")->as_string(), e.name);
    ASSERT_NE(ev.get("ts"), nullptr);
    EXPECT_EQ(ev.get("ts")->as_number(), static_cast<double>(e.ts_ns) / 1e3);
    ASSERT_NE(ev.get("dur"), nullptr);
    EXPECT_EQ(ev.get("dur")->as_number(),
              static_cast<double>(e.dur_ns) / 1e3);
    ASSERT_NE(ev.get("tid"), nullptr);
    EXPECT_EQ(ev.get("tid")->dump(), std::to_string(e.tid));
    ASSERT_NE(ev.get("args"), nullptr);
    EXPECT_EQ(ev.get("args")->dump(),
              "{\"id\":" + std::to_string(e.id) +
                  ",\"parent\":" + std::to_string(e.parent) +
                  ",\"depth\":" + std::to_string(e.depth) + "}");
  }
  reset_obs();
}

TEST(TraceCap, ConcurrentRecordersStopAtExactlyTheCap) {
  // 2^20 events are kept, every span past them is counted as dropped,
  // however many threads race for the last slots.
  reset_obs();
  constexpr std::size_t kCap = std::size_t{1} << 20;
  obs::set_enabled(true);
  const auto fill = [] {
    for (std::size_t i = 0; i < kCap / 2 + 2; ++i) {
      obs::Span span("test.fill", "test");
    }
  };
  std::thread a(fill), b(fill);
  a.join();
  b.join();
  obs::set_enabled(false);
  EXPECT_EQ(obs::Tracer::instance().size(), kCap);
  EXPECT_EQ(obs::Tracer::instance().dropped(), 4u);
  reset_obs();
  EXPECT_EQ(obs::Tracer::instance().dropped(), 0u);
}

TEST(Trace, ChromeExportRoundTripsThroughTraceCheck) {
  if (std::system("python3 --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  reset_obs();
  obs::set_enabled(true);
  {
    obs::Span root("test.root", "test");
    obs::Span child("test.child", "test");
    ThreadPool pool(2);
    TaskGroup group(pool);
    for (int i = 0; i < 4; ++i) {
      group.run([] { obs::Span task_span("test.task", "test"); });
    }
    group.wait();
  }
  obs::set_enabled(false);

  const auto path = fs::temp_directory_path() / "sickle_obs_roundtrip.json";
  obs::Tracer::instance().write_chrome_trace(path.string());
  const std::string cmd =
      "python3 \"" SICKLE_SOURCE_DIR "/tools/trace_check.py\" \"" +
      path.string() +
      "\" --require-span test.root --require-span test.child "
      "--require-span test.task --require-span pool.task "
      "--require-cat test --require-cat pool > /dev/null 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << "trace_check.py rejected "
                                         << path.string();
  fs::remove(path);
  reset_obs();
}

TEST(Case, StageSpansCoverOrchestratorAndStore) {
  reset_obs();
  obs::set_enabled(true);
  auto cfg = tiny_case("series", "streaming");
  cfg.temporal.num_snapshots = 2;
  cfg.pipeline.threads = 2;  // dedicated pool => pool.task spans
  const auto report = run_tiny("series", "streaming", cfg);
  obs::set_enabled(false);
  EXPECT_GT(report.sampled_points, 0u);

  const auto events = obs::Tracer::instance().events();
  std::map<std::string, const obs::TraceEvent*> first;
  for (const auto& ev : events) first.emplace(ev.name, &ev);
  for (const char* want :
       {"case.run", "case.ingest", "case.selection", "case.sampling",
        "case.training", "store.append", "store.summarize",
        "store.load_chunk", "codec.encode", "codec.decode", "pool.task"}) {
    EXPECT_TRUE(first.count(want)) << "missing span: " << want;
  }
  // The four stages nest directly under the case.run root.
  ASSERT_TRUE(first.count("case.run"));
  const auto root_id = first["case.run"]->id;
  EXPECT_EQ(first["case.run"]->parent, 0u);
  for (const char* stage : {"case.ingest", "case.selection", "case.sampling",
                            "case.training"}) {
    ASSERT_TRUE(first.count(stage));
    EXPECT_EQ(first[stage]->parent, root_id) << stage;
    EXPECT_EQ(first[stage]->depth, 1u) << stage;
  }
  reset_obs();
}

TEST(Case, StageMetricsEqualTheirSpans) {
  // Each case.<stage>_seconds metric is the wall time of the scope its
  // case.<stage> span covers: one clock per stage, whatever the backend
  // or retention policy does inside it.
  auto memory = tiny_case("memory", "materialize");
  auto rolling = tiny_case("skl2", "streaming");  // temporal off: rolls
  auto series = tiny_case("series", "streaming");
  series.temporal.num_snapshots = 2;
  for (const CaseConfig& cfg : {memory, rolling, series}) {
    reset_obs();
    obs::set_enabled(true);
    const auto report = run_tiny(cfg.backend, cfg.ingest, cfg);
    obs::set_enabled(false);
    std::map<std::string, std::vector<double>> spans;
    for (const auto& ev : obs::Tracer::instance().events()) {
      spans[ev.name].push_back(static_cast<double>(ev.dur_ns) * 1e-9);
    }
    for (const std::string stage : {"case.ingest", "case.selection",
                                    "case.sampling", "case.training"}) {
      ASSERT_EQ(spans[stage].size(), 1u) << cfg.backend << " " << stage;
      const double span_seconds = spans[stage].front();
      EXPECT_NEAR(report.metrics.at(stage + "_seconds"), span_seconds,
                  1e-3 + 0.01 * span_seconds)
          << cfg.backend << " " << stage;
    }
  }
  reset_obs();
}

TEST(Case, MetricsBitStableAcrossRunsAndBackends) {
  // Everything except wall-clock keys must be identical run to run at
  // threads == 1 — and populated even with the obs layer disabled.
  reset_obs();
  const auto strip_seconds = [](const std::map<std::string, double>& m) {
    std::map<std::string, double> out;
    for (const auto& [k, v] : m) {
      if (k.size() < 8 || k.substr(k.size() - 8) != "_seconds") out[k] = v;
    }
    return out;
  };
  auto cfg = tiny_case("series", "streaming");
  const auto a = run_tiny("series", "streaming", cfg);
  const auto b = run_tiny("series", "streaming", cfg);
  EXPECT_FALSE(a.metrics.empty());
  EXPECT_EQ(strip_seconds(a.metrics), strip_seconds(b.metrics));
  EXPECT_EQ(a.metrics.at("case.sampled_points"),
            static_cast<double>(a.sampled_points));
  EXPECT_GT(a.metrics.at("store.io_bytes_read"), 0.0);

  const auto mem = run_tiny("memory", "materialize",
                            tiny_case("memory", "materialize"));
  EXPECT_EQ(mem.sample_hash, a.sample_hash);
  EXPECT_EQ(mem.metrics.at("case.sampled_points"),
            a.metrics.at("case.sampled_points"));
  EXPECT_EQ(mem.metrics.count("store.cache_hits"), 0u);  // no spill store
}

TEST(Case, CachePressureSurfacesEvictionsAndIoBytes) {
  // Small chunks + a cache holding ~2 blocks: the sampling pass must
  // observe evictions, and both tallies must surface in the report.
  reset_obs();
  auto cfg = tiny_case("series", "streaming");
  cfg.store.chunk = {8, 8, 8};
  cfg.store.cache_bytes = 8u << 10;
  const auto report = run_tiny("series", "streaming", cfg);
  EXPECT_GT(report.metrics.at("store.cache_misses"), 0.0);
  EXPECT_GT(report.metrics.at("store.cache_evictions"), 0.0);
  EXPECT_GT(report.metrics.at("store.io_bytes_read"), 0.0);
}

TEST(Store, ReaderExposesCacheStatsAndIoBytes) {
  // The satellite accessors: ChunkReader::io_bytes_read() plus
  // cache_stats() evictions under pressure, without the case runner.
  const auto bundle = make_dataset("SST-P1F4", 3, 0.5);
  const auto dir = fs::temp_directory_path() / "sickle_obs_reader";
  fs::create_directories(dir);
  const std::string path = (dir / "snap.skl2").string();
  store::StoreOptions opts;
  opts.chunk = {8, 8, 8};
  opts.codec = "delta";
  (void)store::write_store(bundle.data.snapshot(0), path, opts);

  const store::ChunkReader reader(path, /*cache_bytes=*/8u << 10);
  const auto round_trip = reader.load_snapshot();
  EXPECT_EQ(round_trip.names(), bundle.data.snapshot(0).names());
  const auto stats = reader.cache_stats();
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(reader.io_bytes_read(), 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sickle
