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
#include <utility>
#include <vector>

#include "apps/kclique_app.h"
#include "apps/kernels.h"
#include "apps/maxclique_app.h"
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

/// `base` with every vertex ID tripled: on 3 workers with layout.reorder
/// off, worker 0 owns every edge and so all of the work.
Graph OnWorkerZero(const Graph& base) {
  Graph g(3 * base.NumVertices());
  for (VertexId u = 0; u < base.NumVertices(); ++u) {
    for (VertexId v : base.GreaterNeighbors(u)) g.AddEdge(3 * u, 3 * v);
  }
  g.Finalize();
  return g;
}

// Every edge joins multiples of 3, so worker 0 owns all the work, spills,
// and the master has it donate to the starving workers 1 and 2. Stolen
// batches enter the thief's L_file as `received` and donated spill files
// leave the donor's unloaded, so spilled and loaded need not match; the
// L_file flow identity must still hold.
TEST(Termination, CleanRunLedgerBalancesWhileStealing) {
  const Graph g = OnWorkerZero(Generator::ErdosRenyi(3000, 200000, 74));
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
  // Each worker reached drain phase 2: the master released it once the
  // reports proved the wire empty.
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

// ---------------------------------------------------------------------------
// Late delivery. Every batch below lands milliseconds after it was sent, so
// a worker's idle report, the master's report requests, aggregator syncs and
// the confirming reports all arrive late and cross each other on the wire.
// Detection may take round trips, never a wrong turn: each job must return
// the serial answer, lose no task and end far inside its time budget.
// ---------------------------------------------------------------------------

/// A hung job would hit this budget; a healthy one ends in well under
/// kLateEndS even under TSan.
constexpr double kLateBudgetS = 60.0;
constexpr double kLateEndS = 20.0;

JobConfig LateConfig(int64_t latency_us) {
  JobConfig config;
  config.num_workers = 3;
  config.compers_per_worker = 1;
  config.enable_stealing = true;
  config.comm.net.latency_us = latency_us;
  config.time_budget_s = kLateBudgetS;
  return config;
}

void ExpectCleanLateEnd(const JobStats& stats) {
  EXPECT_FALSE(stats.timed_out);
  EXPECT_LT(stats.elapsed_s, kLateEndS);
  EXPECT_EQ(stats.tasks_lost, 0);
  EXPECT_EQ(stats.tasks_live_at_exit, 0);
  EXPECT_EQ(stats.ledger.donated, stats.ledger.received);
}

// TC runs root bundles: one task per spawn batch of roots. Worker 0 holds
// all the work, so workers 1 and 2 turn idle early, and stolen bundles
// sent to them land late and make them busy again.
TEST(Termination, LateDeliveryTriangleBundles) {
  const Graph g = OnWorkerZero(Generator::ErdosRenyi(600, 12000, 41));
  Job<TriangleComper> job;
  job.config = LateConfig(1'000);
  job.config.layout.reorder = false;
  // Small queues and a tight in-flight cap keep worker 0 busy for many
  // round trips, long enough for the master to plan steals.
  job.config.task_batch_size = 4;
  job.config.task_queue_capacity_batches = 2;
  job.config.inflight_task_cap = 8;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
  job.trimmer = TrimToGreater;
  auto result = Cluster<TriangleComper>::Run(job);
  EXPECT_EQ(result.result, CountTrianglesSerial(g));
  ExpectCleanLateEnd(result.stats);
}

// MCF prunes with the global aggregate, which reaches the workers only in
// the (late) kAggregatorSync that follows each snapshot.
TEST(Termination, LateDeliveryMaxCliqueAggregator) {
  Graph g = Generator::ErdosRenyi(200, 2000, 93);
  Job<MaxCliqueComper> job;
  job.config = LateConfig(2'000);
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<MaxCliqueComper>(30); };
  job.trimmer = TrimToGreater;
  auto result = Cluster<MaxCliqueComper>::Run(job);
  EXPECT_EQ(result.result.size(), MaxCliqueSerial(g).size());
  ExpectCleanLateEnd(result.stats);
}

// A 1 us compute budget makes every k-clique task that mines more than one
// candidate add its range children from Compute, so tasks are born while
// the worker is busy and the idle transition comes late and often.
TEST(Termination, LateDeliveryBudgetedKClique) {
  Graph g = Generator::PowerLaw(300, 10.0, 2.4, 43);
  Job<KCliqueComper> job;
  job.config = LateConfig(3'000);
  job.graph = &g;
  job.comper_factory = [] {
    return std::make_unique<KCliqueComper>(/*k=*/4, /*budget_us=*/1);
  };
  job.trimmer = TrimToGreater;
  auto result = Cluster<KCliqueComper>::Run(job);
  EXPECT_EQ(result.result, CountKCliquesSerial(g, 4));
  EXPECT_GT(result.stats.tasks_spawned, static_cast<int64_t>(g.NumVertices()))
      << "the compute budget never split a task";
  ExpectCleanLateEnd(result.stats);
}

// The master asks for reports only when every worker's latest report is
// idle and once more per quiet snapshot, so the reports it receives stay
// within the progress cadence plus a few per worker. A ping-pong (a report
// answered by a request or a sync that prompts the next report) would blow
// through the bound at this long cadence: the job lasts many round trips
// but few progress intervals.
TEST(Termination, ProgressReportsStayNearTheCadence) {
  Graph g = Generator::PowerLaw(3000, 12.0, 2.4, 47);
  Job<TriangleComper> job;
  job.config = LateConfig(1'000);
  // Small bundles and a tight in-flight cap make the job a long chain of
  // late pull round trips.
  job.config.task_batch_size = 4;
  job.config.task_queue_capacity_batches = 2;
  job.config.inflight_task_cap = 8;
  job.config.progress_interval_us = 10'000;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
  job.trimmer = TrimToGreater;
  auto result = Cluster<TriangleComper>::Run(job);
  EXPECT_EQ(result.result, CountTrianglesSerial(g));
  const JobStats& stats = result.stats;
  ExpectCleanLateEnd(stats);

  int64_t reports = 0;
  for (const obs::MetricsSnapshot& snap : stats.metrics) {
    if (snap.scope == "hub") {
      reports = snap.CounterValue("hub.progress_report.delivered");
    }
  }
  ASSERT_GT(reports, 0);
  const int64_t workers = job.config.num_workers;
  const int64_t intervals = static_cast<int64_t>(
      stats.elapsed_s * 1e6 / static_cast<double>(
                                  job.config.progress_interval_us));
  // Per worker: its cadence, the idle report, one answer to the idle round
  // and one to the confirm round, the final report, plus slack for a steal
  // that makes a worker busy and idle again.
  constexpr int64_t kExtraPerWorker = 8;
  EXPECT_LE(reports, workers * (intervals + 1 + kExtraPerWorker))
      << "elapsed " << stats.elapsed_s << " s";
}

// The release is event-driven, not polled: the master sends it on the
// report that proves the wire empty, and a quiesced worker reports as soon
// as a drain term moves. At a 1 s progress interval a release that waited
// for the cadence would stretch a worker's quiesced -> released gap (kDrain
// phase 1 -> 2) to the whole interval.
TEST(Termination, WokenDrainEndsWellInsideTheProgressInterval) {
  Graph g = Generator::PowerLaw(2000, 10.0, 2.4, 53);
  Job<TriangleComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 2;
  job.config.progress_interval_us = 1'000'000;
  job.config.enable_span_tracing = true;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
  job.trimmer = TrimToGreater;
  auto result = Cluster<TriangleComper>::Run(job);
  EXPECT_EQ(result.result, CountTrianglesSerial(g));
  EXPECT_FALSE(result.stats.timed_out);
  for (int w = 0; w < job.config.num_workers; ++w) {
    int64_t quiesced_us = -1;
    int64_t released_us = -1;
    for (const obs::SpanEvent& e : result.stats.spans) {
      if (e.worker != w || e.kind != obs::EventKind::kDrain) continue;
      if (e.a == 1) quiesced_us = e.t_us;
      if (e.a == 2) released_us = e.t_us;
    }
    ASSERT_GE(quiesced_us, 0) << "worker " << w;
    ASSERT_GE(released_us, quiesced_us) << "worker " << w;
    EXPECT_LT(released_us - quiesced_us, 250'000) << "worker " << w;
  }
}

// The master's steal plan for fixed progress reports, read back off the hub
// as (thief, donor) pairs in donor order. C = 10, so a donor must report
// more than 2C = 20 remaining roots.
using Orders = std::vector<std::pair<int, int>>;

Orders PlannedSteals(const std::vector<ProgressReport>& latest) {
  const int n = static_cast<int>(latest.size());
  CommHub hub(n + 1);  // endpoint n is the master
  JobConfig config;
  config.task_batch_size = 10;
  Master<TriangleComper>::PlanSteals(latest, config, /*master_id=*/n, &hub);
  Orders orders;
  for (int w = 0; w < n; ++w) {
    MessageBatch mb;
    while (hub.Receive(w, 0, &mb)) {
      EXPECT_EQ(mb.type, MsgType::kStealOrder);
      EXPECT_EQ(mb.src_worker, n);
      int32_t thief = -1;
      int64_t order_t_us = 0;
      EXPECT_TRUE(DecodeStealOrder(mb.payload, &thief, &order_t_us).ok());
      orders.emplace_back(thief, w);
    }
  }
  EXPECT_EQ(hub.TotalBatchesSent(), static_cast<int64_t>(orders.size()));
  return orders;
}

ProgressReport Report(bool idle, int64_t remaining) {
  ProgressReport r;
  r.idle = idle ? 1 : 0;
  r.remaining_estimate = remaining;
  return r;
}

TEST(StealPlanner, IdleThiefGetsOneOrderToTheDonorAbove2C) {
  EXPECT_EQ(PlannedSteals({Report(true, 0), Report(false, 21),
                           Report(false, 5)}),
            (Orders{{0, 1}}));
  // The most loaded donor wins.
  EXPECT_EQ(PlannedSteals({Report(false, 30), Report(true, 0),
                           Report(false, 90)}),
            (Orders{{1, 2}}));
}

TEST(StealPlanner, DonorAtOrBelow2CGetsNoOrder) {
  EXPECT_EQ(PlannedSteals({Report(true, 0), Report(false, 20)}), Orders{});
  EXPECT_EQ(PlannedSteals({Report(true, 0), Report(false, 3),
                           Report(false, 20)}),
            Orders{});
  // An idle worker that still estimates remaining work is no thief.
  EXPECT_EQ(PlannedSteals({Report(true, 4), Report(false, 90)}), Orders{});
}

TEST(StealPlanner, TwoIdleThievesBothGetOrders) {
  EXPECT_EQ(PlannedSteals({Report(true, 0), Report(true, 0),
                           Report(false, 100)}),
            (Orders{{0, 2}, {1, 2}}));
}

}  // namespace
}  // namespace gthinker
