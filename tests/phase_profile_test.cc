// Phase-attribution tests: the per-comper breakdown is built from disjoint
// timers, so its parts must account for the loop's wall time exactly
// (named + other == total), and a real run must produce plausible rows for
// every comper plus a straggler table when span tracing is on.

#include "obs/phase_profile.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/maxclique_app.h"
#include "apps/triangle_app.h"  // TrimToGreater
#include "core/cluster.h"
#include "graph/generator.h"
#include "obs/json.h"

namespace gthinker {
namespace {

obs::MetricsSnapshot MakeWorkerSnap(int worker) {
  obs::MetricsSnapshot snap;
  snap.scope = "worker" + std::to_string(worker);
  return snap;
}

TEST(PhaseProfile, BuildsRowsFromCounters) {
  obs::MetricsSnapshot snap = MakeWorkerSnap(0);
  snap.counters.emplace_back("phase.compute_us{comper=0}", 600);
  snap.counters.emplace_back("phase.pull_wait_us{comper=0}", 100);
  snap.counters.emplace_back("phase.queue_wait_us{comper=0}", 150);
  snap.counters.emplace_back("phase.spill_us{comper=0}", 50);
  snap.counters.emplace_back("phase.loop_us{comper=0}", 1000);
  snap.counters.emplace_back("phase.compute_us{comper=1}", 300);
  snap.counters.emplace_back("phase.loop_us{comper=1}", 400);
  snap.counters.emplace_back("phase.steal_us", 42);

  obs::PhaseProfile profile =
      obs::BuildPhaseProfile({snap}, /*spans=*/{}, /*top_k=*/8);
  ASSERT_EQ(profile.per_comper.size(), 2u);
  ASSERT_EQ(profile.per_worker.size(), 1u);

  const obs::PhaseBreakdown& c0 = profile.per_comper[0];
  EXPECT_EQ(c0.worker, 0);
  EXPECT_EQ(c0.comper, 0);
  EXPECT_EQ(c0.compute_us, 600);
  EXPECT_EQ(c0.pull_wait_us, 100);
  EXPECT_EQ(c0.queue_wait_us, 150);
  EXPECT_EQ(c0.spill_us, 50);
  // The unattributed remainder closes the books exactly.
  EXPECT_EQ(c0.other_us, 100);
  EXPECT_EQ(c0.NamedSum() + c0.other_us, c0.total_us);
  EXPECT_DOUBLE_EQ(c0.Coverage(), 0.9);

  const obs::PhaseBreakdown& c1 = profile.per_comper[1];
  EXPECT_EQ(c1.comper, 1);
  EXPECT_EQ(c1.other_us, 100);

  // Worker row: comper sums plus the comm-thread steal time.
  const obs::PhaseBreakdown& w = profile.per_worker[0];
  EXPECT_EQ(w.comper, -1);
  EXPECT_EQ(w.compute_us, 900);
  EXPECT_EQ(w.steal_us, 42);
  EXPECT_EQ(w.total_us, 1000 + 400 + 42);
  EXPECT_EQ(w.NamedSum() + w.other_us, w.total_us);
}

TEST(PhaseProfile, PhaseCounterCarriesSubMicrosecondRemainders) {
  obs::Counter us;
  obs::PhaseCounter phase(&us);
  // 1,000 intervals of 999 ns are 999 µs; truncating each one read 0.
  for (int i = 0; i < 1000; ++i) phase.AddNanos(999);
  EXPECT_EQ(us.value(), 999);
  // A carry is never added early, so the counter never runs ahead of the
  // time measured.
  phase.AddNanos(999);
  EXPECT_EQ(us.value(), 999);
  phase.AddNanos(1);
  EXPECT_EQ(us.value(), 1000);
  phase.AddNanos(2'500);
  EXPECT_EQ(us.value(), 1002);
}

TEST(PhaseProfile, EmptyWithoutPhaseCounters) {
  obs::MetricsSnapshot snap = MakeWorkerSnap(0);
  snap.counters.emplace_back("cache.hits", 10);
  obs::MetricsSnapshot hub;
  hub.scope = "hub";
  hub.counters.emplace_back("phase.compute_us{comper=0}", 5);  // wrong scope
  const obs::PhaseProfile profile = obs::BuildPhaseProfile({snap, hub}, {});
  EXPECT_TRUE(profile.empty());
}

TEST(PhaseProfile, StragglerTableRanksByComputeWithLineage) {
  std::vector<obs::SpanEvent> spans;
  auto exec = [&](uint64_t task, int64_t dur) {
    obs::SpanEvent e;
    e.kind = obs::EventKind::kExecute;
    e.id = task;
    e.dur_us = dur;
    e.worker = 0;
    e.comper = 0;
    spans.push_back(e);
  };
  exec(10, 100);
  exec(11, 900);
  exec(11, 50);  // second iteration of the same task accumulates
  obs::SpanEvent spawn;
  spawn.kind = obs::EventKind::kSpawn;
  spawn.id = 11;
  spawn.parent = 10;
  spans.push_back(spawn);

  const obs::PhaseProfile profile =
      obs::BuildPhaseProfile({}, spans, /*top_k=*/1);
  ASSERT_EQ(profile.stragglers.size(), 1u);  // top_k truncation applies
  EXPECT_EQ(profile.stragglers[0].task_id, 11u);
  EXPECT_EQ(profile.stragglers[0].compute_us, 950);
  EXPECT_EQ(profile.stragglers[0].iterations, 2);
  EXPECT_EQ(profile.stragglers[0].parent_task_id, 10u);
}

TEST(PhaseProfile, JsonAndHumanTableRender) {
  obs::MetricsSnapshot snap = MakeWorkerSnap(2);
  snap.counters.emplace_back("phase.compute_us{comper=0}", 750);
  snap.counters.emplace_back("phase.loop_us{comper=0}", 1000);
  const obs::PhaseProfile profile = obs::BuildPhaseProfile({snap}, {});

  obs::JsonWriter w;
  profile.WriteJson(&w);
  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonParse(w.str(), &root).ok()) << w.str();
  ASSERT_TRUE(root.Find("per_comper")->IsArray());
  const obs::JsonValue& row = root.Find("per_comper")->array[0];
  EXPECT_EQ(row.Find("worker")->number, 2.0);
  EXPECT_EQ(row.Find("compute_us")->number, 750.0);
  EXPECT_EQ(row.Find("coverage")->number, 0.75);

  const std::string table = profile.HumanTable();
  EXPECT_NE(table.find("phase profile"), std::string::npos) << table;
  EXPECT_NE(table.find("w2.c0"), std::string::npos) << table;
}

// Invariant test on a real run: every comper gets a row whose parts account
// for its loop wall time exactly, and the loop totals are plausible against
// the job's elapsed time.
TEST(PhaseProfileE2E, RealRunAccountsForComperWallTime) {
  static Graph g = Generator::PowerLaw(500, 10.0, 2.4, 3307);
  Job<MaxCliqueComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 2;
  job.config.enable_span_tracing = true;  // feeds the straggler table
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<MaxCliqueComper>(200); };
  job.trimmer = TrimToGreater;
  auto result = Cluster<MaxCliqueComper>::Run(job);
  ASSERT_FALSE(result.result.empty());

  const obs::PhaseProfile& phases = result.stats.phases;
  ASSERT_EQ(phases.per_worker.size(), 2u);
  ASSERT_EQ(phases.per_comper.size(), 4u);

  const int64_t elapsed_us =
      static_cast<int64_t>(result.stats.elapsed_s * 1e6);
  for (const obs::PhaseBreakdown& row : phases.per_comper) {
    // Exact accounting: disjoint timers + computed remainder.
    EXPECT_EQ(row.NamedSum() + row.other_us, row.total_us)
        << "w" << row.worker << ".c" << row.comper;
    EXPECT_GT(row.total_us, 0);
    // A comper loop cannot out-live the job by more than scheduling slack.
    EXPECT_LT(row.total_us, 2 * elapsed_us + 1'000'000);
    EXPECT_GE(row.compute_us, 0);
    EXPECT_GE(row.Coverage(), 0.0);
    EXPECT_LE(row.Coverage(), 1.0);
  }
  for (const obs::PhaseBreakdown& row : phases.per_worker) {
    EXPECT_EQ(row.NamedSum() + row.other_us, row.total_us)
        << "w" << row.worker;
  }
  // Something actually computed, and the stragglers reflect it.
  int64_t total_compute = 0;
  for (const obs::PhaseBreakdown& row : phases.per_comper) {
    total_compute += row.compute_us;
  }
  EXPECT_GT(total_compute, 0);
  ASSERT_FALSE(phases.stragglers.empty());
  for (size_t i = 1; i < phases.stragglers.size(); ++i) {
    EXPECT_GE(phases.stragglers[i - 1].compute_us,
              phases.stragglers[i].compute_us);
  }
}

}  // namespace
}  // namespace gthinker
