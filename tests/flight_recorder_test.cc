// Flight-recorder tests: the job's bounded event ring must retain the newest
// transitions, serialize to valid JSON, and — the part that matters in
// production — dump that JSON to disk when the process dies on a fatal
// check, exactly the path a task-ledger violation takes.

#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/maxclique_app.h"
#include "apps/kernels.h"
#include "apps/triangle_app.h"  // TrimToGreater
#include "core/cluster.h"
#include "graph/generator.h"
#include "obs/json.h"
#include "util/logging.h"

namespace gthinker {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(FlightRecorder, RecordsAndSerializes) {
  obs::FlightRecorder rec(64);
  rec.Record({.worker = 0, .comper = 1, .kind = obs::EventKind::kSpawnBatch,
              .a = 32});
  rec.Record({.id = 7, .parent = 3, .worker = 0, .comper = 1,
              .kind = obs::EventKind::kSpawn});
  rec.Record({.worker = 1, .kind = obs::EventKind::kLedger, .a = 10, .b = 10});
  EXPECT_EQ(rec.total(), 3);
  const std::vector<obs::SpanEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 3u);

  const std::string json = rec.DumpJson();
  ASSERT_TRUE(obs::JsonValid(json)) << json;
  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonParse(json, &root).ok());
  EXPECT_EQ(root.Find("recorded_total")->number, 3.0);
  const obs::JsonValue* arr = root.Find("events");
  ASSERT_TRUE(arr->IsArray());
  ASSERT_EQ(arr->array.size(), 3u);
  EXPECT_EQ(arr->array[0].Find("kind")->string, "spawn_batch");
  EXPECT_EQ(arr->array[1].Find("kind")->string, "spawn");
  // The spawn names its span and the span of the task that added it;
  // events without a span carry no id and no parent.
  EXPECT_EQ(arr->array[1].Find("id")->number, 7.0);
  EXPECT_EQ(arr->array[1].Find("parent")->number, 3.0);
  EXPECT_EQ(arr->array[0].Find("id"), nullptr);
  EXPECT_EQ(arr->array[0].Find("parent"), nullptr);
  EXPECT_EQ(arr->array[2].Find("comper"), nullptr);
}

TEST(FlightRecorder, BoundedRetentionKeepsNewest) {
  obs::FlightRecorder rec(16);
  for (int i = 0; i < 200; ++i) {
    rec.Record({.worker = 0, .kind = obs::EventKind::kSpawnBatch, .a = i});
  }
  EXPECT_EQ(rec.total(), 200);
  const std::vector<obs::SpanEvent> events = rec.Snapshot();
  ASSERT_LE(events.size(), 16u);
  ASSERT_FALSE(events.empty());
  // The retained window ends at the newest event.
  EXPECT_EQ(events.back().a, 199);
}

TEST(FlightRecorder, WriteCrashDumpWritesParseableFile) {
  const std::string dir = testing::TempDir() + "/gt_flight_unit";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  obs::FlightRecorder::SetDumpDir(dir);
  obs::FlightRecorder rec(32);
  rec.Record({.worker = 0, .kind = obs::EventKind::kDrain, .a = 2});
  ASSERT_TRUE(obs::FlightRecorder::WriteCrashDump("unit-test"));
  obs::FlightRecorder::SetDumpDir("");

  std::vector<std::string> dumps;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    dumps.push_back(entry.path().string());
  }
  ASSERT_EQ(dumps.size(), 1u);
  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonParse(ReadFile(dumps[0]), &root).ok());
  EXPECT_EQ(root.Find("reason")->string, "unit-test");
  ASSERT_TRUE(root.Find("recorders")->IsArray());
  ASSERT_FALSE(root.Find("recorders")->array.empty());
}

// The production failure path: a GT_CHECK violation (how the task-ledger
// conservation check fires) must leave a JSON dump of the recorded events
// behind. The fatal runs in a death-test child; the parent validates the
// file the child wrote.
TEST(FlightRecorderDeathTest, FatalCheckDumpsRecorder) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = testing::TempDir() + "/gt_flight_fatal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  EXPECT_DEATH(
      {
        obs::FlightRecorder::SetDumpDir(dir);
        obs::FlightRecorder::InstallCrashHandlers();
        obs::FlightRecorder rec(64);
        rec.Record({.worker = 0, .comper = 0,
                    .kind = obs::EventKind::kSpawnBatch, .a = 8});
        rec.Record(
            {.worker = 0, .kind = obs::EventKind::kLedger, .a = 5, .b = 4});
        const int64_t expected_live = 5;
        const int64_t live = 4;
        GT_CHECK_EQ(expected_live, live) << "task-conservation violation";
      },
      "task-conservation violation");

  std::vector<std::string> dumps;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    dumps.push_back(entry.path().string());
  }
  ASSERT_EQ(dumps.size(), 1u) << "fatal exit did not write a flight dump";
  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonParse(ReadFile(dumps[0]), &root).ok());
  // The dump reason is the fatal log line itself.
  EXPECT_NE(root.Find("reason")->string.find("task-conservation violation"),
            std::string::npos);
  const obs::JsonValue& recorders = *root.Find("recorders");
  ASSERT_TRUE(recorders.IsArray());
  ASSERT_EQ(recorders.array.size(), 1u);
  const obs::JsonValue* events = recorders.array[0].Find("events");
  ASSERT_TRUE(events->IsArray());
  EXPECT_EQ(events->array.size(), 2u);
  EXPECT_EQ(events->array[1].Find("kind")->string, "ledger");
}

// A crash dump is the tail of the ring: a ring sized for span tracing still
// dumps only the newest kFlightEvents events.
TEST(FlightRecorder, DumpIsTheNewestTail) {
  const int64_t n = static_cast<int64_t>(obs::kFlightEvents) + 50;
  obs::FlightRecorder rec(obs::kFlightEvents + obs::kTraceEventsPerWorker);
  for (int64_t i = 0; i < n; ++i) {
    rec.Record({.worker = 0, .kind = obs::EventKind::kSpawnBatch, .a = i});
  }
  EXPECT_EQ(static_cast<int64_t>(rec.Snapshot().size()), n);
  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonParse(rec.DumpJson(), &root).ok());
  EXPECT_EQ(root.Find("recorded_total")->number, static_cast<double>(n));
  EXPECT_EQ(root.Find("retained")->number,
            static_cast<double>(obs::kFlightEvents));
  const obs::JsonValue* events = root.Find("events");
  ASSERT_EQ(events->array.size(), obs::kFlightEvents);
  EXPECT_EQ(events->array.front().Find("a")->number, 50.0);
  EXPECT_EQ(events->array.back().Find("a")->number,
            static_cast<double>(n - 1));
}

// A healthy end-to-end run records its batch-level transitions in the same
// ring as the per-task spans: a traced job's snapshot carries every worker's
// spawn batches, ledger reports, terminate and drain phases, on the hub
// clock next to the task events.
TEST(FlightRecorderE2E, JobRecordsBatchTransitions) {
  static Graph g = Generator::ErdosRenyi(120, 500, 771);
  Job<TriangleComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 1;
  job.config.enable_span_tracing = true;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
  job.trimmer = TrimToGreater;
  auto result = Cluster<TriangleComper>::Run(job);
  EXPECT_EQ(result.result, CountTrianglesSerial(g));

  std::map<std::pair<int, obs::EventKind>, int> counts;
  for (const obs::SpanEvent& e : result.stats.spans) {
    ++counts[{e.worker, e.kind}];
  }
  for (int w = 0; w < 2; ++w) {
    EXPECT_GT((counts[{w, obs::EventKind::kSpawnBatch}]), 0) << "worker " << w;
    EXPECT_GT((counts[{w, obs::EventKind::kLedger}]), 0) << "worker " << w;
    EXPECT_EQ((counts[{w, obs::EventKind::kTerminate}]), 1) << "worker " << w;
    // Drain phases 0, 1, 2 and 4.
    EXPECT_EQ((counts[{w, obs::EventKind::kDrain}]), 4) << "worker " << w;
    EXPECT_GT((counts[{w, obs::EventKind::kExecute}]), 0) << "worker " << w;
  }
}

}  // namespace
}  // namespace gthinker
