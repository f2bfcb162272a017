// CaseSession: concurrent bit-identity vs run_case, admission control,
// queue-slot-freeing cancellation, typed errors, shared-cache stats.
// Runs under TSan in CI (the session's runner threads + shared BlockCache
// are exactly the code this job exists to race-check).
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sickle/config_driver.hpp"
#include "sickle/dataset_zoo.hpp"
#include "sickle/session.hpp"

namespace sickle {
namespace {

std::string tiny_yaml(std::uint64_t seed, const std::string& backend,
                      const std::string& ingest) {
  std::string y;
  y += "shared:\n  dataset: SST-P1F4\n  scale: 0.25\n";
  y += "  seed: " + std::to_string(seed) + "\n";
  y += "subsample:\n  hypercubes: random\n  method: maxent\n";
  y += "  num_hypercubes: 2\n  num_samples: 17\n  num_clusters: 3\n";
  y += "  nxsl: 8\n  nysl: 8\n  nzsl: 8\n";
  y += "store:\n  backend: " + backend + "\n  ingest: " + ingest + "\n";
  y += "  codec: delta\n  chunk: 16\n  write_budget_mb: 1\n";
  y += "  spill_dir: " +
       (std::filesystem::temp_directory_path() / "sickle_test_session")
           .string() +
       "\n";
  y += "train:\n  arch: MLP_transformer\n  epochs: 1\n  batch: 4\n";
  y += "  dim: 8\n  heads: 2\n";
  return y;
}

struct TinyCase {
  CaseConfig cfg;
  ProducerBundle bundle;
};

TinyCase tiny_case(std::uint64_t seed, const std::string& backend = "series",
                   const std::string& ingest = "streaming") {
  const Config cfg = Config::parse(tiny_yaml(seed, backend, ingest));
  TinyCase t;
  t.cfg = case_from_config(cfg);
  t.bundle = make_dataset_producer(dataset_label_from_config(cfg), seed,
                                   dataset_scale_from_config(cfg));
  return t;
}

/// Wraps an inner producer; the FIRST next() call blocks until release().
/// Lets tests pin a case inside stage A while they poke at the queue.
class GateProducer final : public flow::SnapshotProducer {
 public:
  explicit GateProducer(std::unique_ptr<flow::SnapshotProducer> inner)
      : inner_(std::move(inner)) {}

  void release() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

  /// Blocks until the case under test has actually reached next().
  void wait_until_blocked() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return waiting_; });
  }

  [[nodiscard]] std::size_t num_snapshots() const override {
    return inner_->num_snapshots();
  }

  [[nodiscard]] std::optional<field::Snapshot> next() override {
    {
      std::unique_lock<std::mutex> lk(mu_);
      waiting_ = true;
      cv_.notify_all();
      cv_.wait(lk, [&] { return open_; });
    }
    return inner_->next();
  }

  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<flow::SnapshotProducer> inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  bool waiting_ = false;
};

/// next() always throws — drives a case into kFailed during stage A.
class ExplodingProducer final : public flow::SnapshotProducer {
 public:
  [[nodiscard]] std::size_t num_snapshots() const override { return 4; }
  [[nodiscard]] std::optional<field::Snapshot> next() override {
    throw RuntimeError("synthetic producer failure");
  }
  void reset() override {}
};

TEST(Session, ConcurrentCasesBitIdenticalToRunCase) {
  // Serial references through the plain batch API.
  std::vector<std::uint64_t> want_hash;
  std::vector<double> want_loss;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    TinyCase t = tiny_case(seed);
    const CaseReport r = run_case(t.bundle, std::move(t.cfg));
    want_hash.push_back(r.sample_hash);
    want_loss.push_back(r.train.test_loss);
  }

  // Six cases in flight across three runners, two per seed.
  CaseSession session({.max_concurrent_cases = 3, .queue_capacity = 16});
  std::vector<CaseHandle> handles;
  std::vector<std::uint64_t> seeds;
  for (int rep = 0; rep < 2; ++rep) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      TinyCase t = tiny_case(seed);
      handles.push_back(session.submit(std::move(t.bundle), std::move(t.cfg)));
      seeds.push_back(seed);
    }
  }
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const CaseReport& r = handles[i].wait();
    EXPECT_EQ(r.sample_hash, want_hash[seeds[i]]) << "case " << i;
    EXPECT_EQ(r.train.test_loss, want_loss[seeds[i]]) << "case " << i;
    EXPECT_EQ(handles[i].status().state, CaseState::kDone);
  }
}

TEST(Session, MemoryBackendMatchesToo) {
  TinyCase serial = tiny_case(7, "memory", "materialize");
  const CaseReport want = run_case(serial.bundle, std::move(serial.cfg));

  CaseSession session({.max_concurrent_cases = 2});
  TinyCase t = tiny_case(7, "memory", "materialize");
  const CaseReport& got =
      session.submit(std::move(t.bundle), std::move(t.cfg)).wait();
  EXPECT_EQ(got.sample_hash, want.sample_hash);
  EXPECT_EQ(got.train.final_train_loss, want.train.final_train_loss);
}

TEST(Session, CancelQueuedFreesItsQueueSlot) {
  CaseSession session({.max_concurrent_cases = 1, .queue_capacity = 1});

  // Case A occupies the single runner, gated inside stage A.
  TinyCase a = tiny_case(0);
  auto* gate = new GateProducer(std::move(a.bundle.producer));
  a.bundle.producer.reset(gate);
  CaseHandle ha = session.submit(std::move(a.bundle), std::move(a.cfg));
  gate->wait_until_blocked();
  EXPECT_EQ(session.running(), 1u);

  // Case B fills the one queue slot; C must bounce.
  TinyCase b = tiny_case(1);
  CaseHandle hb = session.submit(std::move(b.bundle), std::move(b.cfg));
  TinyCase c = tiny_case(2);
  EXPECT_THROW(session.submit(std::move(c.bundle), std::move(c.cfg)),
               QueueFullError);
  // The rejected bundle is untouched — still usable for a retry. (The
  // by-value CaseConfig is consumed by the call; rebuild it.)
  ASSERT_NE(c.bundle.producer, nullptr);

  // Cancelling queued B frees the slot IMMEDIATELY (no runner involved:
  // the runner is still stuck inside A).
  EXPECT_TRUE(hb.cancel());
  EXPECT_EQ(hb.status().state, CaseState::kCancelled);
  EXPECT_THROW((void)hb.wait(), CancelledError);
  EXPECT_EQ(session.queued(), 0u);
  CaseHandle hd;
  EXPECT_NO_THROW({
    hd = session.submit(std::move(c.bundle), std::move(tiny_case(2).cfg));
  });

  // Cancel running A, then open the gate: the orchestrator notices at its
  // next checkpoint and A terminates kCancelled.
  EXPECT_TRUE(ha.cancel());
  gate->release();
  EXPECT_THROW((void)ha.wait(), CancelledError);
  EXPECT_EQ(ha.status().state, CaseState::kCancelled);

  // D got the freed capacity and runs to completion.
  EXPECT_NO_THROW((void)hd.wait());
  EXPECT_EQ(hd.status().state, CaseState::kDone);
}

TEST(Session, CancelledCaseRemovesItsSpill) {
  const auto spill = std::filesystem::temp_directory_path() /
                     "sickle_test_session_cancel_spill";
  std::filesystem::remove_all(spill);
  std::filesystem::create_directories(spill);
  {
    CaseSession session({.max_concurrent_cases = 1});
    TinyCase a = tiny_case(0);  // series backend, streaming ingest
    a.cfg.spill_dir = spill.string();
    auto* gate = new GateProducer(std::move(a.bundle.producer));
    a.bundle.producer.reset(gate);
    CaseHandle h = session.submit(std::move(a.bundle), std::move(a.cfg));
    // Stage A has created the spill directory and the unsealed SKL3
    // container by the time the producer is asked for a snapshot.
    gate->wait_until_blocked();
    EXPECT_FALSE(std::filesystem::is_empty(spill));
    EXPECT_TRUE(h.cancel());
    gate->release();
    EXPECT_THROW((void)h.wait(), CancelledError);
  }
  // A cancel is not a failure to inspect: nothing is left behind.
  EXPECT_TRUE(std::filesystem::is_empty(spill));
  std::filesystem::remove_all(spill);
}

TEST(Session, SubmitRejectsBadConfigWithEveryIssueAtOnce) {
  CaseSession session;
  TinyCase t = tiny_case(0);
  t.cfg.backend = "floppy";     // store.backend
  t.cfg.arch = "Perceptron9000";    // train.arch
  t.cfg.window = 0;                 // train.window
  try {
    session.submit(std::move(t.bundle), std::move(t.cfg));
    FAIL() << "submit accepted an invalid config";
  } catch (const ConfigError& e) {
    EXPECT_GE(e.issues().size(), 3u);
    std::vector<std::string> fields;
    for (const auto& issue : e.issues()) fields.push_back(issue.field);
    EXPECT_NE(std::find(fields.begin(), fields.end(), "store.backend"),
              fields.end());
    EXPECT_NE(std::find(fields.begin(), fields.end(), "train.arch"),
              fields.end());
    EXPECT_NE(std::find(fields.begin(), fields.end(), "train.window"),
              fields.end());
  }
  // Rejection happened before the bundle was consumed.
  EXPECT_NE(t.bundle.producer, nullptr);
}

TEST(Session, FailingProducerSurfacesTypedIngestError) {
  CaseSession session;
  TinyCase t = tiny_case(0);
  t.bundle.producer = std::make_unique<ExplodingProducer>();
  CaseHandle h = session.submit(std::move(t.bundle), std::move(t.cfg));
  try {
    (void)h.wait();
    FAIL() << "case with an exploding producer reported success";
  } catch (const CaseError& e) {
    EXPECT_EQ(e.code(), CaseErrorCode::kIngest);
    EXPECT_NE(std::string(e.what()).find("synthetic producer failure"),
              std::string::npos);
  }
  const CaseStatus s = h.status();
  EXPECT_EQ(s.state, CaseState::kFailed);
  EXPECT_EQ(s.error_code, CaseErrorCode::kIngest);
  EXPECT_FALSE(s.error.empty());
}

TEST(Session, SharedCacheAccumulatesAcrossConcurrentSeriesCases) {
  const store::CacheStats before = CaseSession::shared_cache_stats();
  CaseSession session({.max_concurrent_cases = 2});
  std::vector<CaseHandle> handles;
  for (std::uint64_t seed = 0; seed < 2; ++seed) {
    TinyCase t = tiny_case(seed, "series", "streaming");
    handles.push_back(session.submit(std::move(t.bundle), std::move(t.cfg)));
  }
  for (const auto& h : handles) (void)h.wait();
  const store::CacheStats after = CaseSession::shared_cache_stats();
  // Both cases' readers routed through the one process-global cache.
  EXPECT_GT(after.hits + after.misses, before.hits + before.misses);
}

TEST(Session, DestructorCancelsQueuedCases) {
  CaseHandle orphan;
  {
    CaseSession session({.max_concurrent_cases = 1, .queue_capacity = 4});
    TinyCase a = tiny_case(0);
    auto* gate = new GateProducer(std::move(a.bundle.producer));
    a.bundle.producer.reset(gate);
    (void)session.submit(std::move(a.bundle), std::move(a.cfg));
    gate->wait_until_blocked();
    TinyCase b = tiny_case(1);
    orphan = session.submit(std::move(b.bundle), std::move(b.cfg));
    gate->release();  // let the dtor's cancel land at a checkpoint
  }
  EXPECT_EQ(orphan.status().state, CaseState::kCancelled);
}

}  // namespace
}  // namespace sickle
