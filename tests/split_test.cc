// Big-task decomposition tests: range kernels partition exactly, runs of a
// budgeted app (which adds its range children with AddTask) produce
// bit-identical counts to unbudgeted runs, the TakePulls post-move state is
// pinned, timeout exits stay accounted with splitting armed, and the
// conservation ledger balances while splits race steals and spills.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "apps/kclique_app.h"
#include "apps/kernels.h"
#include "apps/maximalclique_app.h"
#include "apps/quasiclique_app.h"
#include "apps/triangle_app.h"
#include "apps/split_context.h"
#include "core/cluster.h"
#include "graph/generator.h"

namespace gthinker {
namespace {

// ---------------------------------------------------------------------------
// Satellite 1: TakePulls leaves an explicitly empty, reusable pull set.
// ---------------------------------------------------------------------------

TEST(TakePulls, LeavesEmptyReusableState) {
  MaximalCliqueTask task;
  const int64_t base_bytes = task.MemoryBytes();
  for (VertexId v = 0; v < 100; ++v) task.Pull(v);
  EXPECT_GT(task.MemoryBytes(), base_bytes);

  const std::vector<VertexId> taken = task.TakePulls();
  ASSERT_EQ(taken.size(), 100u);
  EXPECT_TRUE(task.pulls().empty());
  // The post-take state is pinned to capacity zero — NOT moved-from — so
  // MemoryBytes() no longer charges the old buffer (the mem-accounting skew
  // the worker engine used to accumulate once per iteration).
  EXPECT_EQ(task.MemoryBytes(), base_bytes);

  // And the task is fully reusable for the next iteration's pulls.
  task.Pull(7);
  ASSERT_EQ(task.pulls().size(), 1u);
  EXPECT_EQ(task.TakePulls().front(), 7u);
}

// ---------------------------------------------------------------------------
// Range kernels: any partition of the candidate range reproduces the
// unsharded result, on both the bitset and CSR paths, with and without
// yield-driven re-entry.
// ---------------------------------------------------------------------------

std::vector<uint64_t> RandomCuts(uint64_t end, std::mt19937_64* rng) {
  std::vector<uint64_t> cuts = {0, end};
  if (end > 1) {
    std::uniform_int_distribution<uint64_t> dist(1, end - 1);
    for (int i = 0; i < 3; ++i) cuts.push_back(dist(*rng));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

TEST(RangeKernels, MaximalCliquePartitionIsExact) {
  for (int bitset_max : {0, 2048}) {
    SetKernelBitsetMaxVertices(bitset_max);
    for (uint64_t seed : {901, 902, 903}) {
      std::mt19937_64 rng(seed);
      Graph g = Generator::ErdosRenyi(40, 240, seed);
      const CompactGraph cg = CompactFromGraph(g);
      for (int root = 0; root < cg.NumVertices(); ++root) {
        const uint64_t whole = CountMaximalCliquesFromRoot(cg, root);
        const uint64_t end = LargerIdNeighbors(cg, root);
        const std::vector<uint64_t> cuts = RandomCuts(end, &rng);
        uint64_t sharded = 0;
        for (size_t i = 0; i + 1 < cuts.size(); ++i) {
          uint64_t next = 0;
          sharded += CountMaximalCliquesFromRootRange(
              cg, root, cuts[i], cuts[i + 1], /*yield=*/nullptr, &next);
          EXPECT_EQ(next, cuts[i + 1]);
        }
        EXPECT_EQ(sharded, whole)
            << "root=" << root << " seed=" << seed << " dense=" << bitset_max;
      }
    }
  }
  SetKernelBitsetMaxVertices(2048);
}

TEST(RangeKernels, MaximalCliqueYieldResumesExactly) {
  for (int bitset_max : {0, 2048}) {
    SetKernelBitsetMaxVertices(bitset_max);
    Graph g = Generator::ErdosRenyi(36, 220, 907);
    const CompactGraph cg = CompactFromGraph(g);
    for (int root = 0; root < cg.NumVertices(); ++root) {
      const uint64_t whole = CountMaximalCliquesFromRoot(cg, root);
      const uint64_t end = LargerIdNeighbors(cg, root);
      // Yield after every top-level candidate: worst-case re-entry.
      uint64_t resumed = 0;
      uint64_t begin = 0;
      int rounds = 0;
      while (begin < end) {
        uint64_t next = 0;
        resumed += CountMaximalCliquesFromRootRange(
            cg, root, begin, end, /*yield=*/[] { return true; }, &next);
        ASSERT_GT(next, begin) << "yield kernel must always make progress";
        begin = next;
        ASSERT_LE(++rounds, static_cast<int>(end) + 1);
      }
      EXPECT_EQ(resumed, whole) << "root=" << root << " dense=" << bitset_max;
    }
  }
  SetKernelBitsetMaxVertices(2048);
}

TEST(RangeKernels, KCliquePartitionIsExact) {
  for (int bitset_max : {0, 2048}) {
    SetKernelBitsetMaxVertices(bitset_max);
    for (int k : {2, 3, 4, 5}) {
      std::mt19937_64 rng(1000 + k);
      Graph g = Generator::ErdosRenyi(32, 200, 911 + k);
      const CompactGraph cg = CompactFromGraph(g);
      uint64_t total = 0;
      for (int root = 0; root < cg.NumVertices(); ++root) {
        const uint64_t end = LargerIdNeighbors(cg, root);
        const std::vector<uint64_t> cuts = RandomCuts(end, &rng);
        for (size_t i = 0; i + 1 < cuts.size(); ++i) {
          uint64_t next = 0;
          total += CountCliquesFromRootRange(cg, root, k, cuts[i],
                                             cuts[i + 1], nullptr, &next);
        }
      }
      EXPECT_EQ(total, CountKCliquesSerial(g, k))
          << "k=" << k << " dense=" << bitset_max;
    }
  }
  SetKernelBitsetMaxVertices(2048);
}

TEST(RangeKernels, QuasiCliqueShardMaxMatchesWhole) {
  for (uint64_t seed : {921, 922}) {
    std::mt19937_64 rng(seed);
    Graph g = Generator::ErdosRenyi(28, 170, seed);
    const CompactGraph cg = CompactFromGraph(g);
    for (int root = 0; root < cg.NumVertices(); root += 3) {
      const std::vector<VertexId> whole =
          LargestQuasiCliqueFromRoot(cg, root, 0.6, 3);
      const uint64_t end = LargerIdVertices(cg, root);
      const std::vector<uint64_t> cuts = RandomCuts(end, &rng);
      // Seed every shard one below the whole-root size, the way the app
      // seeds it with the aggregator: the shards may then report only
      // results of at least |whole|, so a shard that misses the maximum, or
      // finds a larger one, still fails the check, while the pruning keeps
      // the test fast enough for the sanitizer lanes.
      const size_t lower_bound = whole.empty() ? 0 : whole.size() - 1;
      size_t best = 0;
      for (size_t i = 0; i + 1 < cuts.size(); ++i) {
        uint64_t next = 0;
        const std::vector<VertexId> found = LargestQuasiCliqueFromRootRange(
            cg, root, 0.6, 3, lower_bound, cuts[i], cuts[i + 1], nullptr,
            &next);
        best = std::max(best, found.size());
      }
      EXPECT_EQ(best, whole.size()) << "root=" << root << " seed=" << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Distributed differential: aggressive splitting (a 1 µs compute budget, so
// every task with two or more candidates left after its first one splits)
// must reproduce the unsplit counts bit-identically, while actually adding
// range children (more tasks spawned than the unbudgeted run).
// ---------------------------------------------------------------------------

/// Budget that every task mining more than one top-level candidate overruns.
constexpr int64_t kTinyBudgetUs = 1;

/// Runs one job on 3 workers x 2 compers; `make(budget_us)` builds a comper
/// with budget kTinyBudgetUs when `split`, else 0.
template <typename ComperT>
RunResult<ComperT> RunCountJob(
    Graph* g, std::function<std::unique_ptr<ComperT>(int64_t)> make,
    std::function<void(Vertex<AdjList>&)> trimmer, bool split) {
  Job<ComperT> job;
  job.config.num_workers = 3;
  job.config.compers_per_worker = 2;
  job.graph = g;
  const int64_t budget_us = split ? kTinyBudgetUs : 0;
  job.comper_factory = [make, budget_us] { return make(budget_us); };
  job.trimmer = trimmer;
  return Cluster<ComperT>::Run(job);
}

std::unique_ptr<MaximalCliqueComper> MakeMaximalClique(int64_t budget_us) {
  return std::make_unique<MaximalCliqueComper>(budget_us);
}

TEST(SplitDifferential, MaximalCliqueCountsBitIdentical) {
  for (uint64_t seed : {931, 932, 933}) {
    Graph g = Generator::PowerLaw(300, 10.0, 2.3, seed);
    auto base = RunCountJob<MaximalCliqueComper>(&g, MakeMaximalClique,
                                                 nullptr, /*split=*/false);
    auto split = RunCountJob<MaximalCliqueComper>(&g, MakeMaximalClique,
                                                  nullptr, /*split=*/true);
    EXPECT_EQ(split.result, base.result) << "seed=" << seed;
    // Every range child is a ledger creation on top of the base spawn set.
    EXPECT_GT(split.stats.tasks_spawned, base.stats.tasks_spawned)
        << "seed=" << seed;
    EXPECT_EQ(split.stats.tasks_lost, 0);
    EXPECT_EQ(split.stats.tasks_live_at_exit, 0);
  }
}

TEST(SplitDifferential, KCliqueCountsBitIdentical) {
  Graph g = Generator::PowerLaw(260, 11.0, 2.3, 941);
  for (int k : {3, 4}) {
    const uint64_t truth = CountKCliquesSerial(g, k);
    const auto make = [k](int64_t budget_us) {
      return std::make_unique<KCliqueComper>(k, budget_us);
    };
    auto base = RunCountJob<KCliqueComper>(&g, make, TrimToGreater,
                                           /*split=*/false);
    auto split = RunCountJob<KCliqueComper>(&g, make, TrimToGreater,
                                            /*split=*/true);
    EXPECT_EQ(split.result, truth) << "k=" << k;
    EXPECT_GT(split.stats.tasks_spawned, base.stats.tasks_spawned)
        << "k=" << k;
    EXPECT_EQ(split.stats.tasks_lost, 0) << "k=" << k;
  }
}

TEST(SplitDifferential, QuasiCliqueMaxSizeIdentical) {
  Graph g = Generator::ErdosRenyi(48, 200, 951);
  const auto make = [](int64_t budget_us) {
    return std::make_unique<QuasiCliqueComper>(0.6, 3, budget_us);
  };
  auto base = RunCountJob<QuasiCliqueComper>(&g, make, nullptr,
                                             /*split=*/false);
  auto split = RunCountJob<QuasiCliqueComper>(&g, make, nullptr,
                                              /*split=*/true);
  EXPECT_EQ(split.result.size(), base.result.size());
  EXPECT_GT(split.stats.tasks_spawned, base.stats.tasks_spawned);
  EXPECT_EQ(split.stats.tasks_lost, 0);
}

TEST(SplitBudget, NegativeBudgetIsRejected) {
  // The budget is a constructor argument of each range-decomposable app;
  // a negative one fails at construction, before any job starts.
  EXPECT_DEATH(MaximalCliqueComper(-1), "compute budget");
  EXPECT_DEATH(KCliqueComper(3, -1), "compute budget");
  EXPECT_DEATH(QuasiCliqueComper(0.6, 3, -1), "compute budget");
}

// ---------------------------------------------------------------------------
// Satellite 2: a time-budget abort with splitting armed exits with an
// accounted ledger — abandoned live tasks are reported, never fataled on.
// ---------------------------------------------------------------------------

TEST(SplitTermination, TimeoutExitStaysAccountedWithSplittingArmed) {
  Graph g = Generator::PowerLaw(2000, 16.0, 2.4, 971);
  Job<MaximalCliqueComper> job;
  job.config.num_workers = 4;
  job.config.compers_per_worker = 1;
  job.config.enable_stealing = true;
  job.config.time_budget_s = 0.05;
  job.config.comm.net.latency_us = 300;
  job.config.comm.net.bandwidth_mbps = 2.0;
  job.config.cache_capacity = 256;
  job.config.cache_num_buckets = 32;
  job.graph = &g;
  job.comper_factory = [] {
    return std::make_unique<MaximalCliqueComper>(/*budget_us=*/200);
  };
  auto result = Cluster<MaximalCliqueComper>::Run(job);

  const JobStats& stats = result.stats;
  EXPECT_EQ(stats.tasks_lost, 0);
  EXPECT_LE(stats.ledger.received, stats.ledger.donated);
  if (stats.timed_out) {
    // Abandoned-but-accounted: reported live, not zeroed, not fataled.
    EXPECT_EQ(stats.ledger.ExpectedLive(), stats.tasks_live_at_exit);
  } else {
    EXPECT_EQ(stats.tasks_live_at_exit, 0);
  }
}

// ---------------------------------------------------------------------------
// Conservation stress: splits racing steals and spills. Small batches and a
// tight queue force spill churn, stealing ships batches between workers
// while compers split on their budget — and the ledger must balance every
// round with the result still bit-identical.
// ---------------------------------------------------------------------------

TEST(SplitConservation, SplitsRacingStealsAndSpills) {
  Graph g = Generator::PowerLaw(400, 12.0, 2.4, 981);
  auto base = RunCountJob<MaximalCliqueComper>(&g, MakeMaximalClique, nullptr,
                                               /*split=*/false);
  for (int round = 0; round < 4; ++round) {
    Job<MaximalCliqueComper> job;
    job.config.num_workers = 4;
    job.config.compers_per_worker = 2;
    job.config.enable_stealing = true;
    job.config.task_batch_size = 4;  // force refill/spill churn
    job.config.inflight_task_cap = 32;
    job.config.progress_interval_us = 500;
    job.graph = &g;
    job.comper_factory = [] { return MakeMaximalClique(kTinyBudgetUs); };
    auto result = Cluster<MaximalCliqueComper>::Run(job);
    ASSERT_EQ(result.result, base.result) << "round=" << round;

    const JobStats& stats = result.stats;
    ASSERT_FALSE(stats.timed_out);
    EXPECT_EQ(stats.tasks_lost, 0) << "round=" << round;
    EXPECT_EQ(stats.tasks_live_at_exit, 0) << "round=" << round;
    // Conservation under splitting: spawned (incl. every range child)
    // plus restored equals finished — a split of 1 into k that leaked or
    // double-counted any child breaks this exactly.
    EXPECT_EQ(stats.ledger.spawned + stats.ledger.restored,
              stats.ledger.finished)
        << "round=" << round;
    EXPECT_EQ(stats.ledger.donated, stats.ledger.received);
    EXPECT_GT(stats.tasks_spawned, base.stats.tasks_spawned)
        << "round=" << round;
  }
}

}  // namespace
}  // namespace gthinker
