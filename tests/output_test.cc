// Tests for the output-collection path (Comper::Output + Job::output_dir):
// triangle listing must emit every triangle exactly once, across workers,
// spills and stealing.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "apps/kernels.h"
#include "apps/triangle_app.h"
#include "apps/trianglelist_app.h"
#include "core/cluster.h"
#include "graph/generator.h"
#include "storage/mini_dfs.h"

namespace gthinker {
namespace {

std::vector<Triangle> BruteTriangleList(const Graph& g) {
  std::vector<Triangle> out;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId u = v + 1; u < g.NumVertices(); ++u) {
      if (!g.HasEdge(v, u)) continue;
      for (VertexId w = u + 1; w < g.NumVertices(); ++w) {
        if (g.HasEdge(v, w) && g.HasEdge(u, w)) out.push_back({v, u, w});
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Triangle> RunListing(const Graph& g, JobConfig config,
                                 JobStats* stats) {
  const std::string dir = MakeTempDir("tri_out");
  Job<TriangleListComper> job;
  job.config = config;
  job.graph = &g;
  job.output_dir = dir;
  job.comper_factory = [] { return std::make_unique<TriangleListComper>(); };
  job.trimmer = TrimToGreater;
  auto result = Cluster<TriangleListComper>::Run(job);
  *stats = result.stats;

  std::vector<std::string> records;
  GT_CHECK_OK(ReadOutputRecords(dir, &records));
  std::vector<Triangle> triangles;
  for (const std::string& r : records) {
    Triangle t;
    GT_CHECK_OK(DecodeTriangle(r, &t));
    triangles.push_back(t);
  }
  std::sort(triangles.begin(), triangles.end());
  EXPECT_EQ(result.result, triangles.size());  // count == listed
  EXPECT_EQ(stats->records_output, static_cast<int64_t>(triangles.size()));
  RemoveTree(dir);
  return triangles;
}

TEST(Output, TriangleListingMatchesBruteForce) {
  Graph g = Generator::ErdosRenyi(80, 500, 501);
  const auto truth = BruteTriangleList(g);
  ASSERT_FALSE(truth.empty());
  JobConfig config;
  config.num_workers = 3;
  config.compers_per_worker = 2;
  JobStats stats;
  EXPECT_EQ(RunListing(g, config, &stats), truth);
}

TEST(Output, ListingSurvivesSpillsAndStealing) {
  Graph g = Generator::HubSkewed(200, 4, 60, 2.5, 502);
  const auto truth = BruteTriangleList(g);
  JobConfig config;
  config.num_workers = 4;
  config.compers_per_worker = 1;
  config.task_batch_size = 4;
  config.inflight_task_cap = 32;
  config.enable_stealing = true;
  JobStats stats;
  EXPECT_EQ(RunListing(g, config, &stats), truth);
}

// Records are written in the caller's IDs whatever the load-time layout:
// the hub-last listing (the default) equals the ID-order listing record for
// record, on a graph where renumbering reorders most triangles' corners.
TEST(Output, ListingIdenticalWithLayoutOnAndOff) {
  Graph g = Generator::HubSkewed(300, 6, 80, 2.5, 503);
  JobConfig config;
  config.num_workers = 3;
  config.compers_per_worker = 2;
  ASSERT_TRUE(config.layout.reorder);
  JobStats stats;
  const auto on = RunListing(g, config, &stats);
  config.layout.reorder = false;
  const auto off = RunListing(g, config, &stats);
  ASSERT_FALSE(off.empty());
  EXPECT_EQ(on, off);
  EXPECT_EQ(on, BruteTriangleList(g));
}

TEST(Output, EmptyWhenNoTriangles) {
  Graph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.Finalize();
  JobConfig config;
  config.num_workers = 2;
  config.compers_per_worker = 1;
  JobStats stats;
  EXPECT_TRUE(RunListing(g, config, &stats).empty());
  EXPECT_EQ(stats.records_output, 0);
}

TEST(Output, TriangleRecordRoundtrip) {
  const Triangle t{3, 9, 100};
  Triangle back;
  ASSERT_TRUE(DecodeTriangle(EncodeTriangle(t), &back).ok());
  EXPECT_EQ(back, t);
  EXPECT_FALSE(DecodeTriangle("xy", &back).ok());
}

TEST(Output, ReadOutputRecordsOnMissingDirIsEmpty) {
  std::vector<std::string> records = {"sentinel"};
  ASSERT_TRUE(ReadOutputRecords("/nonexistent/dir", &records).ok());
  EXPECT_TRUE(records.empty());
}

}  // namespace
}  // namespace gthinker
