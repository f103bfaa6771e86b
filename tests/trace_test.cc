// Task-lifecycle invariants of a real job, read off the per-task spans
// (JobConfig::enable_span_tracing).

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "apps/triangle_app.h"
#include "core/cluster.h"
#include "graph/generator.h"
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
  // The rings are far from full on this job, so nothing was overwritten.
  EXPECT_EQ(result.stats.span_events_total,
            static_cast<int64_t>(spans.size()));
  std::map<obs::SpanPhase, int64_t> counts;
  for (const obs::SpanEvent& e : spans) ++counts[e.phase];
  // Every TC task runs exactly one iteration and finishes.
  EXPECT_GT(counts[obs::SpanPhase::kSpawn], 0);
  EXPECT_GT(counts[obs::SpanPhase::kExecute], 0);
  EXPECT_EQ(counts[obs::SpanPhase::kExecute], counts[obs::SpanPhase::kFinish]);
  // Every task that went pending must have become ready.
  EXPECT_EQ(counts[obs::SpanPhase::kPending], counts[obs::SpanPhase::kReady]);
  // Timestamps are sorted by the collector.
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].t_us, spans[i].t_us);
  }
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
