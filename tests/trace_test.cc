// Task-lifecycle invariants of a real job, read off the job's event ring
// (JobConfig::enable_span_tracing), the lineage of tasks added from Compute,
// and the Chrome trace rendering.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/kclique_app.h"
#include "apps/kernels.h"
#include "apps/triangle_app.h"
#include "core/cluster.h"
#include "graph/generator.h"
#include "obs/json.h"
#include "obs/span_trace.h"

namespace gthinker {
namespace {

TEST(Trace, JobProducesCoherentLifecycle) {
  Graph g = Generator::PowerLaw(300, 9.0, 2.4, 901);
  Job<TriangleComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 2;
  job.config.enable_span_tracing = true;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
  job.trimmer = TrimToGreater;
  auto result = Cluster<TriangleComper>::Run(job);

  const std::vector<obs::SpanEvent>& spans = result.stats.spans;
  ASSERT_FALSE(spans.empty());
  // The ring is far from full on this job, so nothing was overwritten.
  EXPECT_EQ(result.stats.span_events_total,
            static_cast<int64_t>(spans.size()));
  std::map<obs::EventKind, int64_t> counts;
  for (const obs::SpanEvent& e : spans) ++counts[e.kind];
  // Every TC task runs exactly one iteration and finishes.
  EXPECT_GT(counts[obs::EventKind::kSpawn], 0);
  EXPECT_GT(counts[obs::EventKind::kExecute], 0);
  EXPECT_EQ(counts[obs::EventKind::kExecute], counts[obs::EventKind::kFinish]);
  // Every task that went pending must have become ready.
  EXPECT_EQ(counts[obs::EventKind::kPending], counts[obs::EventKind::kReady]);
  // Timestamps are sorted by the collector.
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].t_us, spans[i].t_us);
  }
}

// Every edge joins multiples of 3, so one worker owns all the work, spills
// it and donates it to the starving workers (as in termination_test). The
// Chrome trace of that job draws the spill and steal marks on the task
// slices' timeline.
TEST(Trace, ChromeTraceShowsSpillAndStealNextToTaskSlices) {
  const Graph base = Generator::ErdosRenyi(3000, 200000, 74);
  Graph g(3 * base.NumVertices());
  for (VertexId u = 0; u < base.NumVertices(); ++u) {
    for (VertexId v : base.GreaterNeighbors(u)) g.AddEdge(3 * u, 3 * v);
  }
  g.Finalize();
  Job<TriangleComper> job;
  job.config.num_workers = 3;
  job.config.compers_per_worker = 1;
  job.config.enable_stealing = true;
  job.config.task_batch_size = 4;
  job.config.task_queue_capacity_batches = 2;
  job.config.inflight_task_cap = 8;
  job.config.progress_interval_us = 500;  // plan steals early and often
  job.config.enable_span_tracing = true;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
  job.trimmer = TrimToGreater;
  auto result = Cluster<TriangleComper>::Run(job);
  ASSERT_GT(result.stats.spilled_batches, 0);
  ASSERT_GT(result.stats.stolen_batches, 0);
  EXPECT_EQ(result.stats.span_events_total,
            static_cast<int64_t>(result.stats.spans.size()));

  const std::string text =
      obs::ChromeTraceJson(result.stats.spans, job.config.num_workers);
  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonParse(text, &root).ok());
  std::map<std::string, int64_t> slices, marks;
  for (const obs::JsonValue& e : root.Find("traceEvents")->array) {
    const std::string ph = e.Find("ph")->string;
    if (ph == "M") continue;
    ++(ph == "X" ? slices : marks)[e.Find("name")->string];
  }
  EXPECT_GT(slices["execute"], 0);
  EXPECT_GT(marks["spill_write"], 0);
  EXPECT_GT(marks["steal_donate"], 0);
  EXPECT_GT(marks["steal_receive"], 0);
}

// A cache far below the working set keeps compers gated, so the GC runs
// many passes. Each pass is one gc_pass event whose `a` counts what it
// evicted, so the events add up to the job's eviction counter, and the
// Chrome trace draws each pass as a slice.
TEST(Trace, GcPassEventsSumToCacheEvictions) {
  Graph g = Generator::PowerLaw(400, 10.0, 2.4, 80);
  Job<TriangleComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 2;
  job.config.cache_capacity = 16;
  job.config.enable_span_tracing = true;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
  job.trimmer = TrimToGreater;
  auto result = Cluster<TriangleComper>::Run(job);
  ASSERT_GT(result.stats.cache_evictions, 0);
  ASSERT_EQ(result.stats.span_events_total,
            static_cast<int64_t>(result.stats.spans.size()));

  int64_t passes = 0, evicted = 0;
  for (const obs::SpanEvent& e : result.stats.spans) {
    if (e.kind != obs::EventKind::kGcPass) continue;
    ++passes;
    evicted += e.a;
    EXPECT_EQ(e.comper, -1);
    EXPECT_LE(e.a, e.b);  // a pass never evicts past its target
    EXPECT_GE(e.dur_us, 0);
  }
  EXPECT_GT(passes, 0);
  EXPECT_EQ(evicted, result.stats.cache_evictions);

  const std::string text =
      obs::ChromeTraceJson(result.stats.spans, job.config.num_workers);
  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonParse(text, &root).ok());
  int64_t slices = 0;
  for (const obs::JsonValue& e : root.Find("traceEvents")->array) {
    if (e.Find("name")->string == "gc_pass") {
      EXPECT_EQ(e.Find("ph")->string, "X");
      ++slices;
    }
  }
  EXPECT_EQ(slices, passes);
}

// Three hubs (IDs 0-2) each see the whole pool, and the pool is a perfect
// matching, so in ID order with the Γ_> trim only the hubs root a 3-clique
// task: every other task in the job is a range child that a budgeted
// Compute added. Each spawn of a child names the span of the task whose
// Compute added it, that task executed, and the straggler table (the top
// tasks by compute, at most 3 of them roots) carries the lineage.
TEST(Trace, TasksAddedFromComputeNameTheirParent) {
  constexpr VertexId kHubs = 3;
  constexpr VertexId kPool = 600;
  Graph g(kHubs + kPool);
  for (VertexId h = 0; h < kHubs; ++h) {
    for (VertexId p = kHubs; p < kHubs + kPool; ++p) g.AddEdge(h, p);
  }
  for (VertexId p = kHubs; p < kHubs + kPool; p += 2) g.AddEdge(p, p + 1);
  g.Finalize();
  Job<KCliqueComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 2;
  job.config.layout.reorder = false;  // keep the hubs at the lowest IDs
  // No spill and no steal: a task that crosses either starts a fresh span
  // at its new home (`loaded`), with no spawn event to carry a parent.
  job.config.enable_stealing = false;
  job.config.task_batch_size = 1000;
  job.config.enable_span_tracing = true;
  job.graph = &g;
  job.comper_factory = [] {
    return std::make_unique<KCliqueComper>(3, /*budget_us=*/1);
  };
  job.trimmer = TrimToGreater;
  auto result = Cluster<KCliqueComper>::Run(job);
  EXPECT_EQ(result.result, CountKCliquesSerial(g, 3));
  ASSERT_EQ(result.stats.spilled_batches, 0);

  const std::vector<obs::SpanEvent>& spans = result.stats.spans;
  ASSERT_EQ(result.stats.span_events_total,
            static_cast<int64_t>(spans.size()));
  std::set<uint64_t> executed;
  for (const obs::SpanEvent& e : spans) {
    if (e.kind == obs::EventKind::kExecute) executed.insert(e.id);
  }
  int64_t roots = 0;
  int64_t children = 0;
  for (const obs::SpanEvent& e : spans) {
    if (e.kind != obs::EventKind::kSpawn) continue;
    if (e.parent == 0) {
      ++roots;
      continue;
    }
    ++children;
    EXPECT_TRUE(executed.count(e.parent)) << "parent " << e.parent;
    EXPECT_NE(e.parent, e.id);
  }
  EXPECT_EQ(roots, kHubs);
  EXPECT_GT(children, 0);
  EXPECT_EQ(roots + children, result.stats.tasks_spawned);

  const std::vector<obs::Straggler>& stragglers =
      result.stats.phases.stragglers;
  ASSERT_GT(stragglers.size(), kHubs);
  int64_t with_parent = 0;
  for (const obs::Straggler& s : stragglers) {
    if (s.parent_task_id == 0) continue;
    ++with_parent;
    EXPECT_TRUE(executed.count(s.parent_task_id)) << "task " << s.task_id;
  }
  EXPECT_GE(with_parent, static_cast<int64_t>(stragglers.size() - kHubs));
}

TEST(Trace, DisabledByDefault) {
  Graph g = Generator::ErdosRenyi(80, 300, 902);
  Job<TriangleComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 1;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
  job.trimmer = TrimToGreater;
  auto result = Cluster<TriangleComper>::Run(job);
  EXPECT_TRUE(result.stats.spans.empty());
  EXPECT_EQ(result.stats.span_events_total, 0);
}

}  // namespace
}  // namespace gthinker
