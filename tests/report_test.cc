// End-to-end tests for the run-report and span-trace artifacts: a real job
// with observability enabled must produce a valid JSON report (per-worker
// cache hit rates, non-zero latency histograms, per-worker time-series
// sampled from the progress reports) and a well-formed Chrome trace;
// JobReport must round-trip through its own JSON.

#include "core/job_report.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "apps/maxclique_app.h"
#include "apps/triangle_app.h"  // TrimToGreater
#include "core/cluster.h"
#include "graph/generator.h"
#include "obs/json.h"

namespace gthinker {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

RunResult<MaxCliqueComper> RunObservedMaxClique(const std::string& report_path,
                                                const std::string& trace_path) {
  static Graph g = Generator::PowerLaw(400, 10.0, 2.4, 1201);
  Job<MaxCliqueComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 2;
  job.config.enable_span_tracing = !trace_path.empty();
  job.config.report_path = report_path;
  job.config.trace_path = trace_path;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<MaxCliqueComper>(100); };
  job.trimmer = TrimToGreater;
  return Cluster<MaxCliqueComper>::Run(job);
}

TEST(JobReportE2E, ObservedRunProducesFullReportAndTrace) {
  const std::string report_path = testing::TempDir() + "/gt_report.json";
  const std::string trace_path = testing::TempDir() + "/gt_trace.json";
  auto result = RunObservedMaxClique(report_path, trace_path);
  ASSERT_FALSE(result.result.empty());

  // ---- in-memory stats: metrics snapshots per worker + hub ----
  // 2 worker registries + 1 hub registry.
  ASSERT_EQ(result.stats.metrics.size(), 3u);

  // The three headline latency histograms must have recorded samples:
  // task wait (pending -> ready), compute iteration, message delivery.
  int64_t wait_count = 0, compute_count = 0, delivery_count = 0;
  for (const obs::MetricsSnapshot& snap : result.stats.metrics) {
    for (const obs::HistogramSnapshot& h : snap.histograms) {
      if (h.name == "task.wait_us") wait_count += h.count;
      if (h.name == "comper.compute_iter_us") compute_count += h.count;
      if (h.name == "hub.delivery_us") delivery_count += h.count;
    }
  }
  EXPECT_GT(wait_count, 0);
  EXPECT_GT(compute_count, 0);
  EXPECT_GT(delivery_count, 0);

  // Per-worker cache stats folded into each registry.
  for (const obs::MetricsSnapshot& snap : result.stats.metrics) {
    if (snap.scope == "hub") continue;
    EXPECT_GT(snap.CounterValue("cache.requests"), 0) << snap.scope;
    EXPECT_GE(snap.CounterValue("cache.hits"), 0) << snap.scope;
  }

  // ---- sampled time-series ----
  ASSERT_FALSE(result.stats.timeseries.empty());
  // One series per sampled gauge per worker; the expected count is derived
  // from the sampled gauge list, not hardcoded.
  const size_t expected_series = 2 * obs::kNumWorkerSampledGauges;
  EXPECT_EQ(result.stats.timeseries.size(), expected_series);
  bool any_points = false;
  for (const obs::TimeSeries& ts : result.stats.timeseries) {
    if (!ts.points.empty()) any_points = true;
  }
  EXPECT_TRUE(any_points);

  // ---- span events ----
  EXPECT_GT(result.stats.span_events_total, 0);
  ASSERT_FALSE(result.stats.spans.empty());
  for (size_t i = 1; i < result.stats.spans.size(); ++i) {
    EXPECT_LE(result.stats.spans[i - 1].t_us, result.stats.spans[i].t_us);
  }

  // ---- derived ratios ----
  EXPECT_GE(result.stats.CacheHitRate(), 0.0);
  EXPECT_LE(result.stats.CacheHitRate(), 1.0);
  EXPECT_GE(result.stats.ComperUtilization(), 0.0);
  EXPECT_LE(result.stats.ComperUtilization(), 1.0);
  const std::string summary = result.stats.Summary();
  EXPECT_NE(summary.find("hit rate"), std::string::npos) << summary;
  EXPECT_NE(summary.find("utilization"), std::string::npos) << summary;

  // ---- report artifact ----
  const std::string report_text = ReadFile(report_path);
  ASSERT_FALSE(report_text.empty());
  ASSERT_TRUE(obs::JsonValid(report_text));
  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonParse(report_text, &root).ok());
  EXPECT_EQ(root.Find("job")->string, "gthinker");
  EXPECT_EQ(root.Find("num_workers")->number, 2.0);
  // Per-worker derived cache hit rates present.
  const obs::JsonValue* derived = root.Find("derived");
  ASSERT_NE(derived, nullptr);
  ASSERT_NE(derived->Find("cluster"), nullptr);
  for (const std::string scope : {"worker0", "worker1"}) {
    const obs::JsonValue* per_worker = derived->Find(scope);
    ASSERT_NE(per_worker, nullptr) << scope;
    const obs::JsonValue* rate = per_worker->Find("cache_hit_rate");
    ASSERT_NE(rate, nullptr) << scope;
    EXPECT_GE(rate->number, 0.0);
    EXPECT_LE(rate->number, 1.0);
  }
  // Metrics and time-series sections are structurally present and non-empty.
  ASSERT_TRUE(root.Find("metrics")->IsArray());
  EXPECT_EQ(root.Find("metrics")->array.size(), 3u);
  ASSERT_TRUE(root.Find("timeseries")->IsArray());
  EXPECT_EQ(root.Find("timeseries")->array.size(), expected_series);

  // ---- phase-attribution profile (on by default) ----
  ASSERT_FALSE(result.stats.phases.empty());
  EXPECT_EQ(result.stats.phases.per_worker.size(), 2u);
  EXPECT_EQ(result.stats.phases.per_comper.size(), 4u);  // 2 workers x 2
  EXPECT_NE(summary.find("phase profile"), std::string::npos) << summary;
  const obs::JsonValue* phases = root.Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_TRUE(phases->Find("per_comper")->IsArray());
  EXPECT_EQ(phases->Find("per_comper")->array.size(), 4u);
  // Span tracing was on, so the straggler table has compute-heavy tasks.
  EXPECT_FALSE(result.stats.phases.stragglers.empty());

  // ---- exit accounting in the report scalars; splitting is app code and
  // has no engine roll-up ----
  EXPECT_EQ(root.Find("tasks_live_at_exit")->number, 0.0);
  EXPECT_EQ(root.Find("splits"), nullptr);

  // ---- Chrome trace artifact ----
  const std::string trace_text = ReadFile(trace_path);
  ASSERT_FALSE(trace_text.empty());
  ASSERT_TRUE(obs::JsonValid(trace_text));
  obs::JsonValue trace_root;
  ASSERT_TRUE(obs::JsonParse(trace_text, &trace_root).ok());
  const obs::JsonValue* events = trace_root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  // 2 process_name metadata entries + the span events.
  ASSERT_GT(events->array.size(), 2u);
  int complete_slices = 0;
  for (const obs::JsonValue& e : events->array) {
    const obs::JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "X") {
      ++complete_slices;
      EXPECT_NE(e.Find("dur"), nullptr);
    }
  }
  EXPECT_GT(complete_slices, 0);  // execute slices with real durations
}

TEST(JobReportE2E, ObservabilityOffByDefault) {
  static Graph g = Generator::ErdosRenyi(100, 400, 1301);
  Job<TriangleComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 1;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
  job.trimmer = TrimToGreater;
  auto result = Cluster<TriangleComper>::Run(job);
  // Metrics are always collected (cheap relaxed atomics)...
  EXPECT_FALSE(result.stats.metrics.empty());
  // ...and so are the gauge series, one per worker and gauge, from the
  // progress reports the master decodes anyway...
  ASSERT_EQ(result.stats.timeseries.size(), 2 * obs::kNumWorkerSampledGauges);
  for (const obs::TimeSeries& ts : result.stats.timeseries) {
    EXPECT_GE(ts.worker, 0) << ts.name;
    EXPECT_LT(ts.worker, 2) << ts.name;
    EXPECT_FALSE(ts.points.empty()) << ts.name << " worker " << ts.worker;
  }
  // ...but spans need their knob.
  EXPECT_TRUE(result.stats.spans.empty());
  EXPECT_EQ(result.stats.span_events_total, 0);
}

TEST(JobReport, RoundTripsScalarsThroughJson) {
  obs::JobReport report;
  report.job = "unit";
  report.ints["tasks_finished"] = 1234;
  report.ints["num_workers"] = 4;
  report.doubles["elapsed_s"] = 1.5;
  report.strings["dataset"] = "youtube";
  std::map<std::string, double> cluster;
  cluster["cache_hit_rate"] = 0.75;
  report.derived.emplace_back("cluster", std::move(cluster));

  obs::MetricsSnapshot snap;
  snap.scope = "worker0";
  snap.counters.emplace_back("cache.hits", 10);
  obs::HistogramSnapshot h;
  h.name = "task.wait_us";
  h.count = 2;
  h.sum = 10;
  h.max = 8;
  h.buckets.assign(obs::Histogram::kNumBuckets, 0);
  h.buckets[2] = 1;
  h.buckets[4] = 1;
  snap.histograms.push_back(h);
  report.metrics.push_back(snap);

  obs::TimeSeries ts;
  ts.name = "cache_size";
  ts.worker = 0;
  ts.points = {{100, 5}, {200, 9}};
  report.series.push_back(ts);

  const std::string text = report.ToJson();
  ASSERT_TRUE(obs::JsonValid(text)) << text;

  obs::JobReport back;
  ASSERT_TRUE(obs::JobReport::FromJson(text, &back).ok());
  EXPECT_EQ(back.job, "unit");
  EXPECT_EQ(back.ints["tasks_finished"], 1234);
  EXPECT_EQ(back.ints["num_workers"], 4);
  EXPECT_DOUBLE_EQ(back.doubles["elapsed_s"], 1.5);
  EXPECT_EQ(back.strings["dataset"], "youtube");

  // Structural sections validate as JSON and carry the histogram summary.
  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonParse(text, &root).ok());
  const obs::JsonValue& metrics0 = root.Find("metrics")->array[0];
  EXPECT_EQ(metrics0.Find("scope")->string, "worker0");
  const obs::JsonValue& hist0 = metrics0.Find("histograms")->array[0];
  EXPECT_EQ(hist0.Find("count")->number, 2.0);
  EXPECT_EQ(hist0.Find("buckets")->array.size(), 2u);  // sparse encoding
}

TEST(JobReport, WriteJsonRoundTripsThroughDisk) {
  obs::JobReport report;
  report.job = "disk";
  report.ints["n"] = 7;
  report.doubles["r"] = 0.25;
  const std::string path = testing::TempDir() + "/gt_report_rt.json";
  ASSERT_TRUE(report.WriteJson(path).ok());
  obs::JobReport back;
  ASSERT_TRUE(obs::JobReport::FromJson(ReadFile(path), &back).ok());
  EXPECT_EQ(back.job, "disk");
  EXPECT_EQ(back.ints["n"], 7);
  EXPECT_DOUBLE_EQ(back.doubles["r"], 0.25);
}

TEST(JobReport, MakeJobReportFillsDerivedRatios) {
  JobConfig config;
  config.num_workers = 3;
  JobStats stats;
  stats.cache_hits = 80;
  stats.cache_requests = 100;
  stats.stolen_batches = 6;
  stats.steal_orders = 12;
  stats.comper_idle_rounds = 25;
  stats.comper_rounds = 100;
  obs::JobReport report = MakeJobReport("ratios", config, stats);
  ASSERT_FALSE(report.derived.empty());
  EXPECT_EQ(report.derived[0].first, "cluster");
  const auto& cluster = report.derived[0].second;
  EXPECT_DOUBLE_EQ(cluster.at("cache_hit_rate"), 0.8);
  EXPECT_DOUBLE_EQ(cluster.at("steal_efficiency"), 0.5);
  EXPECT_DOUBLE_EQ(cluster.at("comper_utilization"), 0.75);
  EXPECT_EQ(report.ints["num_workers"], 3);
}

}  // namespace
}  // namespace gthinker
