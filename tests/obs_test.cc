// Tests for the observability primitives: histograms (bucket boundaries and
// quantile estimation), the metrics registry (identity, labels, concurrent
// recording while snapshotting), the sharded event ring, bounded time-series
// decimation, and the in-repo JSON writer/parser.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/sampler.h"
#include "obs/sharded_ring.h"
#include "obs/span_trace.h"

namespace gthinker::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  // Bucket 0: <= 0. Bucket i >= 1: [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::BucketIndex(-5), 0);
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(7), 3);
  EXPECT_EQ(Histogram::BucketIndex(8), 4);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11);
  // Everything past the last boundary lands in the final bucket.
  EXPECT_EQ(Histogram::BucketIndex(int64_t{1} << 50),
            Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(INT64_MAX), Histogram::kNumBuckets - 1);

  // Snapshot bounds must agree with BucketIndex: every value maps into a
  // bucket whose [lower, upper] range contains it.
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{2}, int64_t{3}, int64_t{7},
                    int64_t{100}, int64_t{65536}, int64_t{999999}}) {
    const int idx = Histogram::BucketIndex(v);
    EXPECT_LE(HistogramSnapshot::BucketLowerBound(idx), v) << v;
    if (idx < Histogram::kNumBuckets - 1) {
      EXPECT_GE(HistogramSnapshot::BucketUpperBound(idx), v) << v;
    }
  }
}

TEST(Histogram, CountSumMax) {
  Histogram h;
  h.Record(10);
  h.Record(20);
  h.Record(5);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.sum(), 35);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 3);
  EXPECT_EQ(snap.sum, 35);
  EXPECT_EQ(snap.max, 20);
  EXPECT_DOUBLE_EQ(snap.Mean(), 35.0 / 3.0);
}

TEST(Histogram, PercentileInterpolation) {
  Histogram h;
  // 100 values all in bucket [64, 127]: percentiles interpolate inside it.
  for (int i = 0; i < 100; ++i) h.Record(64);
  const HistogramSnapshot snap = h.Snapshot();
  const double p50 = snap.Percentile(0.50);
  EXPECT_GE(p50, 64.0);
  EXPECT_LE(p50, 127.0);
  // p100 never exceeds the recorded max.
  EXPECT_LE(snap.Percentile(1.0), 127.0);
  EXPECT_EQ(snap.Percentile(0.0), 64.0);
}

TEST(Histogram, PercentileOrdering) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i);
  const HistogramSnapshot snap = h.Snapshot();
  const double p25 = snap.Percentile(0.25);
  const double p50 = snap.Percentile(0.50);
  const double p95 = snap.Percentile(0.95);
  const double p99 = snap.Percentile(0.99);
  EXPECT_LE(p25, p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // With power-of-2 buckets the estimate is within 2x of the true quantile.
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_LE(p99, 1024.0);
  // Empty histogram degrades to 0.
  EXPECT_EQ(Histogram().Snapshot().Percentile(0.5), 0.0);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, ReturnsStableIdentity) {
  MetricsRegistry reg("worker0");
  Counter* a = reg.GetCounter("tasks");
  Counter* b = reg.GetCounter("tasks");
  EXPECT_EQ(a, b);
  // Different labels are distinct instances of the same metric.
  Counter* c0 = reg.GetCounter("compute", "comper=0");
  Counter* c1 = reg.GetCounter("compute", "comper=1");
  EXPECT_NE(c0, c1);
  c0->Add(3);
  c1->Increment();
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.scope, "worker0");
  EXPECT_EQ(snap.CounterValue("compute{comper=0}"), 3);
  EXPECT_EQ(snap.CounterValue("compute{comper=1}"), 1);
  EXPECT_EQ(snap.CounterValue("missing"), -1);
}

TEST(MetricsRegistry, GaugesAndHistogramsInSnapshot) {
  MetricsRegistry reg("hub");
  reg.GetGauge("inbox")->Set(7);
  reg.GetHistogram("latency_us")->Record(33);
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "inbox");
  EXPECT_EQ(snap.gauges[0].second, 7);
  const HistogramSnapshot* h = snap.FindHistogram("latency_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1);
  EXPECT_EQ(h->sum, 33);
}

TEST(MetricsRegistry, ConcurrentRecordingDuringSnapshots) {
  // Threads register + record while another thread snapshots: no torn metric
  // (snapshot counters are never above the final total) and no crash.
  // Run under TSan to check the lock-free recording paths.
  MetricsRegistry reg("stress");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const MetricsSnapshot snap = reg.Snapshot();
      const int64_t v = snap.CounterValue("events");
      if (v >= 0) {
        EXPECT_LE(v, int64_t{kThreads} * kPerThread);
      }
    }
  });
  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&reg, t] {
      Counter* events = reg.GetCounter("events");
      Histogram* lat = reg.GetHistogram("lat", "thread=" + std::to_string(t));
      for (int i = 0; i < kPerThread; ++i) {
        events->Increment();
        lat->Record(i % 4096);
      }
    });
  }
  for (auto& th : recorders) th.join();
  stop.store(true, std::memory_order_release);
  snapshotter.join();
  const MetricsSnapshot final_snap = reg.Snapshot();
  EXPECT_EQ(final_snap.CounterValue("events"),
            int64_t{kThreads} * kPerThread);
  int64_t hist_total = 0;
  for (const HistogramSnapshot& h : final_snap.histograms) {
    hist_total += h.count;
  }
  EXPECT_EQ(hist_total, int64_t{kThreads} * kPerThread);
}

// ---------------------------------------------------------------------------
// ShardedRing
// ---------------------------------------------------------------------------

TEST(ShardedRing, KeepsNewestAcrossShards) {
  ShardedRing<int> ring(8);
  for (int i = 0; i < 100; ++i) ring.Record(i);
  const std::vector<int> got = ring.Snapshot();
  ASSERT_EQ(got.size(), 8u);
  // Single-threaded recording: exactly the classic newest-capacity ring.
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], 92 + static_cast<int>(i));
  }
  EXPECT_EQ(ring.total(), 100);
}

TEST(ShardedRing, ConcurrentRecordingCountsEverything) {
  ShardedRing<int> ring(1 << 14);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ring, t] {
      for (int i = 0; i < kPerThread; ++i) ring.Record(t);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ring.total(), int64_t{kThreads} * kPerThread);
  EXPECT_EQ(ring.Snapshot().size(),
            static_cast<size_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------------
// BoundedSeries
// ---------------------------------------------------------------------------

TEST(BoundedSeries, DecimatesInsteadOfTruncating) {
  BoundedSeries series("cache_size", /*worker=*/0, /*max_points=*/16);
  for (int64_t i = 0; i < 1000; ++i) series.Append(i, i * 10);
  const TimeSeries ts = series.series();
  EXPECT_EQ(ts.name, "cache_size");
  EXPECT_EQ(ts.worker, 0);
  EXPECT_LE(ts.points.size(), 17u);  // bounded (one slot of slack post-halving)
  EXPECT_GT(ts.stride, 1);          // decimation happened
  ASSERT_FALSE(ts.points.empty());
  // Full temporal coverage: first point near the start, last near the end.
  EXPECT_LT(ts.points.front().first, 100);
  EXPECT_GT(ts.points.back().first, 900);
  // Points stay time-ordered through decimation.
  for (size_t i = 1; i < ts.points.size(); ++i) {
    EXPECT_LT(ts.points[i - 1].first, ts.points[i].first);
  }
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(Json, WriterProducesValidDocuments) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String("va\"lue\n\t");
  w.Key("n");
  w.Int(-42);
  w.Key("d");
  w.Double(3.25);
  w.Key("inf");
  w.Double(1.0 / 0.0);  // degrades to null
  w.Key("list");
  w.BeginArray();
  w.Bool(true);
  w.Null();
  w.UInt(UINT64_C(18446744073709551615));
  w.EndArray();
  w.EndObject();
  const std::string text = w.str();
  EXPECT_TRUE(JsonValid(text)) << text;

  JsonValue root;
  ASSERT_TRUE(JsonParse(text, &root).ok());
  ASSERT_TRUE(root.IsObject());
  const JsonValue* name = root.Find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->string, "va\"lue\n\t");
  EXPECT_EQ(root.Find("n")->number, -42.0);
  EXPECT_EQ(root.Find("inf")->type, JsonValue::Type::kNull);
  ASSERT_TRUE(root.Find("list")->IsArray());
  EXPECT_EQ(root.Find("list")->array.size(), 3u);
}

TEST(Json, ParserRejectsMalformed) {
  JsonValue v;
  EXPECT_FALSE(JsonParse("", &v).ok());
  EXPECT_FALSE(JsonParse("{", &v).ok());
  EXPECT_FALSE(JsonParse("{\"a\":1,}", &v).ok());
  EXPECT_FALSE(JsonParse("[1 2]", &v).ok());
  EXPECT_FALSE(JsonParse("{\"a\":1} trailing", &v).ok());
  EXPECT_FALSE(JsonParse("\"unterminated", &v).ok());
  EXPECT_TRUE(JsonParse("  {\"a\": [1, 2.5, -3e2, true, null]}  ", &v).ok());
}

TEST(Json, ChromeTraceShapeIsValid) {
  std::vector<SpanEvent> events;
  events.push_back({100, 0, 42, 0, 0, 0, EventKind::kSpawn});
  events.push_back({150, 50, 42, 0, 0, 1, EventKind::kExecute});
  events.push_back({210, 0, 42, 0, 0, -1, EventKind::kFinish});
  const std::string text = ChromeTraceJson(events, /*num_workers=*/2);
  ASSERT_TRUE(JsonValid(text)) << text;
  JsonValue root;
  ASSERT_TRUE(JsonParse(text, &root).ok());
  const JsonValue* trace_events = root.Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->IsArray());
  // 2 process_name metadata records + 3 span events.
  ASSERT_EQ(trace_events->array.size(), 5u);
  const JsonValue& exec = trace_events->array[3];
  EXPECT_EQ(exec.Find("ph")->string, "X");
  EXPECT_EQ(exec.Find("dur")->number, 50.0);
  EXPECT_EQ(exec.Find("ts")->number, 150.0);
  const JsonValue& finish = trace_events->array[4];
  EXPECT_EQ(finish.Find("ph")->string, "i");
  EXPECT_EQ(finish.Find("tid")->number, 999.0);  // comper -1 lane
}

}  // namespace
}  // namespace gthinker::obs
