// Unit tests: thread pool, per-call task groups, parallel_for, SPMD world
// collectives.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "parallel/thread_pool.hpp"
#include "parallel/world.hpp"

namespace sickle {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  TaskGroup group(pool);
  for (int i = 0; i < 100; ++i) {
    group.run([&count] { ++count; });
  }
  group.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelFor, SumMatchesSerial) {
  std::vector<double> v(10000);
  std::iota(v.begin(), v.end(), 0.0);
  std::atomic<long> sum{0};
  parallel_for(v.size(), [&](std::size_t i) {
    sum += static_cast<long>(v[i]);
  }, nullptr, 64);
  EXPECT_EQ(sum.load(), 10000L * 9999L / 2L);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, TaskExceptionsRethrowOnCaller) {
  // A throwing chunk must surface as a catchable exception on the calling
  // thread (not std::terminate in a worker). The throwing chunk abandons
  // its remaining indices; the other chunks still complete before the
  // rethrow (the call's TaskGroup waits first).
  ThreadPool pool(4);
  std::atomic<int> visited{0};
  EXPECT_THROW(
      parallel_for(
          100,
          [&](std::size_t i) {
            ++visited;
            if (i == 37) throw std::runtime_error("boom");
          },
          &pool, 1),
      std::runtime_error);
  // All four 25-index chunks started; only [25,50) stopped early, at 37.
  EXPECT_GE(visited.load(), 76);
  EXPECT_LT(visited.load(), 100);
}

TEST(TaskGroup, WaitsForExactlyItsOwnTasks) {
  ThreadPool pool(4);
  std::atomic<int> mine{0};
  TaskGroup group(pool);
  for (int i = 0; i < 50; ++i) {
    group.run([&mine] { ++mine; });
  }
  group.wait();
  EXPECT_EQ(mine.load(), 50);
  // wait() after completion returns immediately; the group is reusable.
  group.wait();
  group.run([&mine] { ++mine; });
  group.wait();
  EXPECT_EQ(mine.load(), 51);
}

/// A parallel_for must complete while an unrelated task on the same pool
/// is still blocked in flight. A pool-wide wait would deadlock here —
/// parallel_for would wait for the blocked stranger too. The pool's
/// destructor drains the queue and joins the released blocker.
TEST(TaskGroup, ParallelForDoesNotWaitOnStrangersTasks) {
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  pool.submit([released] { released.wait(); });  // occupies one worker

  std::atomic<int> count{0};
  parallel_for(100, [&](std::size_t) { ++count; }, &pool, 1);
  EXPECT_EQ(count.load(), 100);  // finished while the blocker still runs

  release.set_value();
}

/// Overlapping parallel_for calls from concurrent host threads on one
/// shared pool: each call must see exactly its own completion. Runs under
/// TSan in CI (the tsan-concurrency job runs all of test_parallel).
TEST(TaskGroup, ConcurrentParallelForCallsAreIndependent) {
  ThreadPool pool(4);
  constexpr std::size_t kCallers = 6;
  constexpr std::size_t kRounds = 25;
  constexpr std::size_t kN = 512;
  std::vector<std::string> failures(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        std::vector<std::atomic<int>> hits(kN);
        parallel_for_range(
            kN,
            [&](std::size_t b, std::size_t e) {
              for (std::size_t i = b; i < e; ++i) ++hits[i];
            },
            &pool, 16);
        // parallel_for returned: every one of *our* indices must be done
        // exactly once, no matter what the other callers are running.
        for (std::size_t i = 0; i < kN; ++i) {
          if (hits[i].load() != 1) {
            failures[c] = "caller " + std::to_string(c) + " round " +
                          std::to_string(round) + ": index " +
                          std::to_string(i) + " hit " +
                          std::to_string(hits[i].load()) + " times";
            return;
          }
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& f : failures) EXPECT_EQ(f, "");
}

/// Nested fan-out on a one-worker pool: the outer task's TaskGroup::wait
/// must *help* (run the inner tasks itself) rather than block — a blocking
/// wait deadlocks here, since the inner tasks sit queued behind the
/// blocked outer task forever.
TEST(TaskGroup, NestedWaitOnSingleWorkerDoesNotDeadlock) {
  ThreadPool pool(1);
  std::atomic<int> inner{0};
  TaskGroup outer(pool);
  outer.run([&] {
    TaskGroup group(pool);
    for (int i = 0; i < 8; ++i) {
      group.run([&inner] { ++inner; });
    }
    group.wait();  // worker thread: helps, never blocks on itself
  });
  outer.wait();
  EXPECT_EQ(inner.load(), 8);
}

// Three levels of nested parallel_for computing a deterministic triple
// sum. The chunk cuts depend only on (n, workers, grain), so every pool
// size must produce the bit-identical integer result of the serial loop.
long nested_triple_sum(ThreadPool* pool) {
  constexpr std::size_t kOuter = 24;
  constexpr std::size_t kMid = 16;
  constexpr std::size_t kInner = 12;
  std::vector<long> outer_sums(kOuter, 0);
  parallel_for(
      kOuter,
      [&](std::size_t i) {
        std::vector<long> mid_sums(kMid, 0);
        parallel_for(
            kMid,
            [&](std::size_t j) {
              std::atomic<long> s{0};
              parallel_for(
                  kInner,
                  [&](std::size_t k) {
                    s += static_cast<long>((i + 1) * (j + 2) * (k + 3));
                  },
                  pool, 3);
              mid_sums[j] = s.load();
            },
            pool, 2);
        long total = 0;
        for (long v : mid_sums) total += v;
        outer_sums[i] = total;
      },
      pool, 2);
  long total = 0;
  for (long v : outer_sums) total += v;
  return total;
}

TEST(ParallelFor, NestedThreeLevelsBitExactAcrossPoolSizes) {
  long serial = 0;
  for (std::size_t i = 0; i < 24; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      for (std::size_t k = 0; k < 12; ++k) {
        serial += static_cast<long>((i + 1) * (j + 2) * (k + 3));
      }
    }
  }
  ThreadPool pool1(1);
  EXPECT_EQ(nested_triple_sum(&pool1), serial);
  ThreadPool pool4(4);
  EXPECT_EQ(nested_triple_sum(&pool4), serial);
}

/// Pool stress: many host threads hammer one small pool with nested
/// parallel_for rounds, forcing contended submits and pops on the shared
/// queue, helper waits, and sleep/wake transitions concurrently. Runs
/// under TSan in CI (the tsan-concurrency job runs all of test_parallel).
TEST(ThreadPool, NestedStressManyCallersIsRaceFree) {
  ThreadPool pool(3);
  constexpr std::size_t kCallers = 5;
  constexpr std::size_t kRounds = 20;
  std::vector<std::thread> callers;
  std::vector<long> results(kCallers, 0);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      long acc = 0;
      for (std::size_t round = 0; round < kRounds; ++round) {
        std::atomic<long> sum{0};
        parallel_for(
            64,
            [&](std::size_t i) {
              std::atomic<long> inner{0};
              parallel_for(
                  8, [&](std::size_t j) { inner += static_cast<long>(j + i); },
                  &pool, 1);
              sum += inner.load();
            },
            &pool, 4);
        acc += sum.load();
      }
      results[c] = acc;
    });
  }
  for (auto& t : callers) t.join();
  // sum over i<64, j<8 of (i+j) = 64*28 + 8*2016 = 17920 per round.
  for (std::size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(results[c], 17920L * kRounds) << "caller " << c;
  }
}

/// The destructor drains the queue: tasks still queued behind a busy
/// worker when destruction starts all run before the workers join.
TEST(ThreadPool, DestructorRunsEveryQueuedTask) {
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    pool.submit([released] { released.wait(); });  // holds the one worker
    for (int i = 0; i < 50; ++i) {
      pool.submit([&ran] { ++ran; });
    }
    release.set_value();
  }  // ~ThreadPool
  EXPECT_EQ(ran.load(), 50);
}

TEST(PoolHandle, ResolvesThreadsKnob) {
  // 1 = serial: no pool at all.
  EXPECT_EQ(resolve_threads(1).get(), nullptr);
  // 0 = the process-global pool.
  EXPECT_EQ(resolve_threads(0).get(), &ThreadPool::global());
  // N = dedicated pool with exactly N workers, owned by the handle.
  const PoolHandle h = resolve_threads(3);
  ASSERT_NE(h.get(), nullptr);
  EXPECT_NE(h.get(), &ThreadPool::global());
  EXPECT_EQ(h.get()->size(), 3u);
  std::atomic<int> count{0};
  parallel_for(100, [&](std::size_t) { ++count; }, h.get(), 1);
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelForRange, CoversAllIndicesExactlyOnce) {
  std::vector<std::atomic<int>> hits(5000);
  parallel_for_range(hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  }, nullptr, 32);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(CommModel, CostsGrowWithRanksAndBytes) {
  CommModel m;
  EXPECT_EQ(m.broadcast(1, 1024), 0.0);
  EXPECT_EQ(m.gather(1, 1024), 0.0);
  EXPECT_LT(m.broadcast(2, 1024), m.broadcast(64, 1024));
  EXPECT_LT(m.broadcast(64, 8), m.broadcast(64, 1 << 20));
  EXPECT_LT(m.gather(2, 1024), m.gather(512, 1024));
  EXPECT_LT(m.gather(64, 8), m.gather(64, 1 << 20));
}

TEST(World, RanksSeeCorrectIds) {
  World world(4);
  std::vector<int> seen(4, -1);
  world.run([&](Comm& comm) {
    seen[comm.rank()] = static_cast<int>(comm.rank());
    EXPECT_EQ(comm.size(), 4u);
  });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(seen[r], r);
}

TEST(World, AllgatherOrderedByRank) {
  World world(4);
  world.run([](Comm& comm) {
    const std::vector<double> local{
        static_cast<double>(comm.rank() * 10),
        static_cast<double>(comm.rank() * 10 + 1)};
    const auto all = comm.allgather(local);
    ASSERT_EQ(all.size(), 8u);
    for (std::size_t r = 0; r < 4; ++r) {
      EXPECT_DOUBLE_EQ(all[2 * r], static_cast<double>(r * 10));
      EXPECT_DOUBLE_EQ(all[2 * r + 1], static_cast<double>(r * 10 + 1));
    }
  });
}

TEST(World, AllgatherRaggedSizes) {
  World world(3);
  world.run([](Comm& comm) {
    std::vector<std::size_t> local(comm.rank() + 1, comm.rank());
    const auto all = comm.allgather(local);
    EXPECT_EQ(all.size(), 6u);  // 1 + 2 + 3
    EXPECT_EQ(all[0], 0u);
    EXPECT_EQ(all[5], 2u);
  });
}

TEST(World, Broadcast) {
  World world(4);
  world.run([](Comm& comm) {
    std::vector<double> v;
    if (comm.is_root()) v = {3.0, 1.0, 4.0};
    comm.broadcast(v, 0);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_DOUBLE_EQ(v[2], 4.0);
  });
}

TEST(World, BlockRangePartitionsExactly) {
  World world(3);
  std::vector<std::pair<std::size_t, std::size_t>> ranges(3);
  world.run([&](Comm& comm) {
    ranges[comm.rank()] = comm.block_range(10);
  });
  EXPECT_EQ(ranges[0].first, 0u);
  std::size_t total = 0;
  for (std::size_t r = 0; r < 3; ++r) {
    total += ranges[r].second - ranges[r].first;
    if (r > 0) {
      EXPECT_EQ(ranges[r].first, ranges[r - 1].second);
    }
  }
  EXPECT_EQ(total, 10u);
}

TEST(World, ReportsCpuAndCommTime) {
  World world(4);
  const auto report = world.run([](Comm& comm) {
    // Some busy work plus a collective.
    volatile double acc = 0.0;
    for (int i = 0; i < 100000; ++i) acc = acc + 1.0;
    (void)comm.allgather(std::vector<double>{acc});
  });
  EXPECT_EQ(report.nranks, 4u);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.max_rank_cpu_seconds, 0.0);
  EXPECT_GE(report.sum_rank_cpu_seconds, report.max_rank_cpu_seconds);
  EXPECT_GT(report.modeled_comm_seconds, 0.0);
  EXPECT_GT(report.simulated_seconds(), 0.0);
}

TEST(World, ExceptionPropagates) {
  World world(3);
  EXPECT_THROW(world.run([](Comm& comm) {
    if (comm.rank() == 1) throw std::runtime_error("rank failure");
    // Other ranks must not deadlock in the collective.
    (void)comm.allgather(std::vector<double>{1.0});
  }),
               std::runtime_error);
}

TEST(World, SingleRankWorldWorks) {
  World world(1);
  world.run([](Comm& comm) {
    std::vector<double> v{5.0};
    comm.broadcast(v);
    EXPECT_EQ(v, std::vector<double>{5.0});
    const auto all = comm.allgather(std::vector<double>{1.0});
    EXPECT_EQ(all.size(), 1u);
  });
}

}  // namespace
}  // namespace sickle
