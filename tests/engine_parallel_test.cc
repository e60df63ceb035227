// Tests for the ThreadPool primitive behind grounding's parallel emission,
// and for the engine's plan cache and per-stratum stats. Run under
// ThreadSanitizer by scripts/check.sh --tsan.
#include <atomic>
#include <vector>

#include "engine/evaluation.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/thread_pool.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool.
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int32_t>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(257, [&](int32_t task, int32_t worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, 4);
    hits[task].fetch_add(1);
  });
  for (int32_t t = 0; t < 257; ++t) {
    EXPECT_EQ(hits[t].load(), 1) << "task " << t;
  }
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  int64_t total = 0;
  for (int batch = 0; batch < 50; ++batch) {
    std::vector<std::atomic<int64_t>> partial(pool.num_threads());
    for (auto& p : partial) p.store(0);
    pool.ParallelFor(batch, [&](int32_t task, int32_t worker) {
      partial[worker].fetch_add(task + 1);
    });
    for (auto& p : partial) total += p.load();
  }
  // Sum over batches of batch*(batch+1)/2.
  int64_t expected = 0;
  for (int batch = 0; batch < 50; ++batch) {
    expected += static_cast<int64_t>(batch) * (batch + 1) / 2;
  }
  EXPECT_EQ(total, expected);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  int32_t calls = 0;
  pool.ParallelFor(10, [&](int32_t task, int32_t worker) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(task, calls);  // inline = in order
    ++calls;
  });
  EXPECT_EQ(calls, 10);
}

TEST(ThreadPoolTest, EffectiveThreadsResolvesZeroToHardware) {
  EXPECT_GE(ThreadPool::EffectiveThreads(0), 1);
  EXPECT_EQ(ThreadPool::EffectiveThreads(1), 1);
  EXPECT_EQ(ThreadPool::EffectiveThreads(7), 7);
}

// ---------------------------------------------------------------------------
// Plan cache and stats.
// ---------------------------------------------------------------------------

TEST(PlanCacheTest, CachedPlansServeSteadyStateRounds) {
  Program program = TransitiveClosureProgram();
  Database db = *CycleDatabase(&program, "e", 64);
  EngineStats stats;
  Result<Database> result =
      EvaluateStratified(program, db, EngineOptions{}, &stats);
  ASSERT_TRUE(result.ok());
  // A 64-cycle takes ~64 delta rounds; without caching every round would
  // recompile. With caching, compilations stay near the number of distinct
  // (rule, delta-literal) pairs (plus drift refreshes) and the rounds hit,
  // and the cached plans still compute the perfect model.
  EXPECT_GT(stats.plan_cache_hits, stats.plans_compiled);
  testing_util::ExpectMatchesPerfectModel(program, db, *result, "tc_cycle_64");
}

TEST(EngineStatsTest, PerStratumTimingsCoverAllStrata) {
  Program program = StratifiedTowerProgram(6);
  Database db = *UnarySetDatabase(&program, "e", 32);
  EngineStats stats;
  ASSERT_TRUE(EvaluateStratified(program, db, EngineOptions{}, &stats).ok());
  EXPECT_EQ(stats.strata, 7);  // level0..level6 + EDB stratum layering
  ASSERT_FALSE(stats.per_stratum.empty());
  int64_t tuples = 0;
  int32_t iterations = 0;
  for (const StratumStats& s : stats.per_stratum) {
    EXPECT_GE(s.seconds, 0.0);
    tuples += s.tuples_derived;
    iterations += s.iterations;
  }
  EXPECT_EQ(tuples, stats.tuples_derived);
  EXPECT_EQ(iterations, stats.iterations);
}

}  // namespace
}  // namespace tiebreak
