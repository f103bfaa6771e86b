// Lossless-termination tests: the task-conservation ledger must balance at
// exit, clean runs must finish every spawned task, and shutdown must drain
// the wire rather than dropping whatever is still in flight.
//
// Cluster::Run itself fatally checks the conservation invariant, so every
// test here doubles as a crash test: a silently lost task aborts the run
// instead of letting an EXPECT see a plausible-looking partial answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "apps/kernels.h"
#include "apps/triangle_app.h"
#include "core/cluster.h"
#include "graph/generator.h"

namespace gthinker {
namespace {

// Many workers racing over few vertices: workers go idle almost immediately,
// steal orders fly while spawn queues are nearly empty, and the master sees
// lots of idle->busy->idle flapping. This is the regime where the old
// multi-counter IsIdle() check could observe a task "nowhere" (popped but
// not yet registered) and let the master terminate early, losing the task.
TEST(Termination, IdleRaceStressManyWorkersFewVertices) {
  Graph g = Generator::PowerLaw(60, 6.0, 2.4, 17);
  const uint64_t truth = CountTrianglesSerial(g);
  for (int round = 0; round < 8; ++round) {
    Job<TriangleComper> job;
    job.config.num_workers = 8;
    job.config.compers_per_worker = 2;
    job.config.enable_stealing = true;
    job.config.task_batch_size = 4;  // force refill/spill churn
    job.config.inflight_task_cap = 32;
    job.config.progress_interval_us = 500;  // frequent snapshots
    job.graph = &g;
    job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
    job.trimmer = TrimToGreater;
    auto result = Cluster<TriangleComper>::Run(job);
    ASSERT_EQ(result.result, truth) << "round " << round;
    const JobStats& stats = result.stats;
    EXPECT_FALSE(stats.timed_out);
    EXPECT_EQ(stats.tasks_spawned, stats.tasks_finished) << "round " << round;
    EXPECT_EQ(stats.tasks_lost, 0);
    EXPECT_EQ(stats.tasks_live_at_exit, 0);
  }
}

/// Runs TC on `g` and checks every ledger identity a clean (untimed-out)
/// run must satisfy, whether or not any steal completed.
JobStats RunAndCheckCleanLedger(const Graph& g, const JobConfig& config) {
  Job<TriangleComper> job;
  job.config = config;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
  job.trimmer = TrimToGreater;
  auto result = Cluster<TriangleComper>::Run(job);
  EXPECT_EQ(result.result, CountTrianglesSerial(g));

  const JobStats& stats = result.stats;
  EXPECT_FALSE(stats.timed_out);
  const TaskLedger& l = stats.ledger;
  // Every task ever created was finished somewhere.
  EXPECT_EQ(l.spawned + l.restored, l.finished);
  EXPECT_EQ(stats.tasks_spawned, stats.tasks_finished);
  // The drain protocol delivered every donated batch before shutdown.
  EXPECT_EQ(l.donated, l.received);
  // L_file ends empty: everything that entered it (spilled, stolen and
  // banked on arrival, restored) left it (refilled, or re-donated).
  EXPECT_EQ(l.spilled + l.received + l.restored, l.loaded + l.disk_donated);
  EXPECT_EQ(stats.tasks_lost, 0);
  EXPECT_EQ(stats.tasks_live_at_exit, 0);
  return stats;
}

TEST(Termination, CleanRunLedgerBalances) {
  Graph g = Generator::PowerLaw(800, 12.0, 2.4, 23);
  JobConfig config;
  config.num_workers = 3;
  config.compers_per_worker = 2;
  config.enable_stealing = true;
  config.task_batch_size = 16;
  config.inflight_task_cap = 64;
  RunAndCheckCleanLedger(g, config);
}

// Every edge joins multiples of 3, so worker 0 owns all the work, spills,
// and the master has it donate to the starving workers 1 and 2. Stolen
// batches enter the thief's L_file as `received` and donated spill files
// leave the donor's unloaded, so spilled and loaded need not match; the
// L_file flow identity must still hold.
TEST(Termination, CleanRunLedgerBalancesWhileStealing) {
  const Graph base = Generator::ErdosRenyi(3000, 200000, 74);
  Graph g(3 * base.NumVertices());
  for (VertexId u = 0; u < base.NumVertices(); ++u) {
    for (VertexId v : base.GreaterNeighbors(u)) g.AddEdge(3 * u, 3 * v);
  }
  g.Finalize();
  JobConfig config;
  config.num_workers = 3;
  config.compers_per_worker = 1;
  config.enable_stealing = true;
  config.task_batch_size = 4;
  config.task_queue_capacity_batches = 2;
  config.inflight_task_cap = 8;
  config.progress_interval_us = 500;  // plan steals early and often
  const JobStats stats = RunAndCheckCleanLedger(g, config);
  EXPECT_GT(stats.spilled_batches, 0);
  EXPECT_GT(stats.stolen_batches, 0);
}

// Abort mid-flight via the time budget with a throttled wire and stealing
// on: kTaskBatch donations are in the air when kTerminate lands. The drain
// must receive and bank every one of them, never discard it.
TEST(Termination, TimeoutShutdownDrainsInFlightWork) {
  Graph g = Generator::PowerLaw(2000, 16.0, 2.4, 29);
  Job<TriangleComper> job;
  job.config.num_workers = 4;
  job.config.compers_per_worker = 1;
  job.config.enable_stealing = true;
  job.config.time_budget_s = 0.06;
  job.config.comm.net.latency_us = 300;
  job.config.comm.net.bandwidth_mbps = 2.0;
  job.config.cache_capacity = 128;
  job.config.cache_num_buckets = 32;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
  job.trimmer = TrimToGreater;
  auto result = Cluster<TriangleComper>::Run(job);

  const JobStats& stats = result.stats;
  // Whether or not the budget struck first, the ledger must balance: the
  // in-cluster GT_CHECK already aborted if not, and tasks_lost is its
  // residue.
  EXPECT_EQ(stats.tasks_lost, 0);
  // The drain runs until the wire is empty, so every donated task landed.
  EXPECT_EQ(stats.ledger.received, stats.ledger.donated);
  if (stats.timed_out) {
    // Aborted runs leave live tasks behind by design — but they are *known*
    // live, not leaked.
    EXPECT_EQ(stats.ledger.ExpectedLive(), stats.tasks_live_at_exit);
  } else {
    EXPECT_EQ(stats.tasks_live_at_exit, 0);
    EXPECT_EQ(stats.tasks_spawned, stats.tasks_finished);
  }
}

/// Triangle comper whose first Compute() across the job sleeps for `nap`.
class NapOnceComper : public TriangleComper {
 public:
  NapOnceComper(std::atomic<bool>* napped, std::chrono::milliseconds nap)
      : napped_(napped), nap_(nap) {}
  bool Compute(TaskT* task, const Frontier& frontier) override {
    if (!napped_->exchange(true)) std::this_thread::sleep_for(nap_);
    return TriangleComper::Compute(task, frontier);
  }

 private:
  std::atomic<bool>* napped_;
  std::chrono::milliseconds nap_;
};

// Compute() cannot be interrupted, so a budget exit can land while one task
// runs far longer than the master's silence bound. The busy worker keeps
// reporting progress while it waits for that comper, and the idle one while
// it waits for the release, so the master must wait it out and return a
// timed-out result instead of failing the drain; and with no worker
// deadline to give up on, both workers drain the wire dry.
TEST(Termination, BudgetExitOutlastsLongComputeWithoutAborting) {
  Graph g = Generator::PowerLaw(400, 8.0, 2.4, 31);
  std::atomic<bool> napped{false};
  Job<TriangleComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 1;
  job.config.time_budget_s = 0.1;
  job.config.drain_timeout_us = 150'000;  // the nap outlasts 8x this
  job.config.enable_span_tracing = true;
  job.graph = &g;
  job.comper_factory = [&napped] {
    return std::make_unique<NapOnceComper>(&napped,
                                           std::chrono::milliseconds(1200));
  };
  job.trimmer = TrimToGreater;
  auto result = Cluster<TriangleComper>::Run(job);

  const JobStats& stats = result.stats;
  EXPECT_TRUE(napped.load());
  EXPECT_TRUE(stats.timed_out);
  EXPECT_GE(stats.elapsed_s, 1.0);  // the master waited for the nap
  EXPECT_EQ(stats.tasks_lost, 0);
  EXPECT_EQ(stats.ledger.ExpectedLive(), stats.tasks_live_at_exit);
  // Each worker reached drain phase 2: its wire drained empty.
  for (int w = 0; w < 2; ++w) {
    EXPECT_TRUE(std::any_of(stats.spans.begin(), stats.spans.end(),
                            [w](const obs::SpanEvent& e) {
                              return e.worker == w &&
                                     e.kind == obs::EventKind::kDrain &&
                                     e.a == 2;
                            }))
        << "worker " << w << " never drained its wire";
  }
}

}  // namespace
}  // namespace gthinker
