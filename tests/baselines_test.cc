// Baseline engines must agree with the serial ground truth, and their
// failure modes (memory blowup, disk-queue churn) must be observable.

#include <gtest/gtest.h>

#include "apps/kernels.h"
#include "baselines/arabesque_apps.h"
#include "baselines/gminer_apps.h"
#include "baselines/pregel_apps.h"
#include "baselines/rstream_tc.h"
#include "graph/generator.h"

namespace gthinker {
namespace {

using namespace gthinker::baselines;  // NOLINT: test-local convenience

class BaselineSeedTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  Graph MakeGraph() const {
    return Generator::PowerLaw(300, 8.0, 2.5, GetParam());
  }
};

TEST_P(BaselineSeedTest, PregelTriangleCountCorrect) {
  Graph g = MakeGraph();
  PregelOptions opts;
  opts.num_workers = 2;
  auto result = PregelTriangleCount(g, opts);
  EXPECT_EQ(result.triangles, CountTrianglesSerial(g));
  EXPECT_GT(result.stats.messages_sent, 0);
  EXPECT_GT(result.stats.message_bytes, 0);
  EXPECT_EQ(result.stats.supersteps, 2);
}

TEST_P(BaselineSeedTest, PregelMaxCliqueCorrect) {
  Graph g = MakeGraph();
  PregelOptions opts;
  opts.num_workers = 2;
  auto result = PregelMaxClique(g, opts);
  EXPECT_EQ(result.best_clique.size(), MaxCliqueSerial(g).size());
}

TEST_P(BaselineSeedTest, ArabesqueTriangleCountCorrect) {
  Graph g = MakeGraph();
  ArabesqueEngine::Options opts;
  opts.num_threads = 2;
  auto result = ArabesqueTriangleCount(g, opts);
  EXPECT_EQ(result.triangles, CountTrianglesSerial(g));
  EXPECT_GT(result.stats.embeddings_materialized, 0);
}

TEST_P(BaselineSeedTest, ArabesqueMaxCliqueCorrect) {
  Graph g = MakeGraph();
  ArabesqueEngine::Options opts;
  opts.num_threads = 2;
  auto result = ArabesqueMaxClique(g, opts);
  EXPECT_EQ(result.best_clique.size(), MaxCliqueSerial(g).size());
}

TEST_P(BaselineSeedTest, GMinerTriangleCountCorrect) {
  Graph g = MakeGraph();
  GMinerEngine::Options opts;
  opts.num_workers = 2;
  opts.threads_per_worker = 2;
  auto result = GMinerTriangleCount(g, opts);
  EXPECT_EQ(result.triangles, CountTrianglesSerial(g));
  EXPECT_GT(result.stats.disk_reads, 0);
  EXPECT_GT(result.stats.disk_writes, 0);
}

TEST_P(BaselineSeedTest, GMinerMaxCliqueCorrect) {
  Graph g = MakeGraph();
  GMinerEngine::Options opts;
  opts.num_workers = 2;
  opts.threads_per_worker = 2;
  auto result = GMinerMaxClique(g, /*tau=*/40, opts);
  EXPECT_EQ(result.best_clique.size(), MaxCliqueSerial(g).size());
}

TEST_P(BaselineSeedTest, RStreamTriangleCountCorrect) {
  Graph g = MakeGraph();
  RStreamTc::Options opts;
  auto result = RStreamTc::Run(g, opts);
  EXPECT_EQ(result.triangles, CountTrianglesSerial(g));
  EXPECT_GT(result.bytes_read, 0);
  EXPECT_GT(result.bytes_written, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineSeedTest,
                         ::testing::Values(201, 202, 203));

TEST(Baselines, GMinerMatchCorrect) {
  Graph g = Generator::ErdosRenyi(200, 1200, 210);
  auto labels = Generator::RandomLabels(g.NumVertices(), 3, 211);
  const QueryGraph q = QueryGraph::Triangle(0, 1, 2);
  GMinerEngine::Options opts;
  opts.num_workers = 2;
  opts.threads_per_worker = 2;
  auto result = GMinerMatch(g, labels, q, opts);
  EXPECT_EQ(result.matches, CountMatchesSerial(g, labels, q));
}

TEST(Baselines, GMinerMatchTwoHopReinserts) {
  Graph g = Generator::ErdosRenyi(120, 500, 212);
  auto labels = Generator::RandomLabels(g.NumVertices(), 2, 213);
  const QueryGraph q = QueryGraph::Path3(0, 1, 0);  // depth 2 => continuation
  GMinerEngine::Options opts;
  opts.num_workers = 2;
  opts.threads_per_worker = 2;
  auto result = GMinerMatch(g, labels, q, opts);
  EXPECT_EQ(result.matches, CountMatchesSerial(g, labels, q));
  EXPECT_GT(result.stats.reinserts, 0);  // the disk-queue churn
}

TEST(Baselines, GMinerMatchDiamondQuery) {
  // Two triangles sharing edge 1-2: vertices 2 and 3 each have two
  // backward neighbors, and vertex 3 is two hops from the root.
  Graph g = Generator::ErdosRenyi(150, 900, 215);
  auto labels = Generator::RandomLabels(g.NumVertices(), 2, 216);
  QueryGraph q;
  q.labels = {0, 1, 1, 0};
  q.adj = {{1, 2}, {0, 2, 3}, {0, 1, 3}, {1, 2}};
  GMinerEngine::Options opts;
  opts.num_workers = 2;
  opts.threads_per_worker = 2;
  auto result = GMinerMatch(g, labels, q, opts);
  EXPECT_EQ(result.matches, CountMatchesSerial(g, labels, q));
  EXPECT_GT(result.matches, 0u);
}

TEST(Baselines, GMinerMcfDecompositionReinserts) {
  // Tiny τ forces decomposition children back through the disk queue.
  Graph g = Generator::ErdosRenyi(100, 1200, 214);
  GMinerEngine::Options opts;
  opts.num_workers = 1;
  opts.threads_per_worker = 2;
  auto result = GMinerMaxClique(g, /*tau=*/5, opts);
  EXPECT_EQ(result.best_clique.size(), MaxCliqueSerial(g).size());
  EXPECT_GT(result.stats.reinserts, 0);
}

TEST(Baselines, PregelMemoryCapAborts) {
  // Dense graph => clique-candidate message blowup; a tight cap must abort
  // (the Table III OOM stand-in).
  Graph g = Generator::ErdosRenyi(300, 8000, 215);
  PregelOptions opts;
  opts.num_workers = 2;
  opts.mem_cap_bytes = 1 << 16;
  auto result = PregelMaxClique(g, opts);
  EXPECT_TRUE(result.stats.mem_exceeded);
}

TEST(Baselines, ArabesqueMemoryCapAborts) {
  Graph g = Generator::ErdosRenyi(300, 8000, 216);
  ArabesqueEngine::Options opts;
  opts.num_threads = 2;
  opts.mem_cap_bytes = 1 << 16;
  auto result = ArabesqueMaxClique(g, opts);
  EXPECT_TRUE(result.stats.mem_exceeded);
}

TEST(Baselines, ArabesqueTimeBudgetAborts) {
  Graph g = Generator::PowerLaw(5000, 30.0, 2.3, 217);
  ArabesqueEngine::Options opts;
  opts.num_threads = 1;
  opts.time_budget_s = 0.01;
  auto result = ArabesqueMaxClique(g, opts);
  EXPECT_TRUE(result.stats.timed_out || result.stats.mem_exceeded);
}

TEST(Baselines, PregelSingleWorkerMatchesMulti) {
  Graph g = Generator::ErdosRenyi(150, 800, 218);
  PregelOptions one, four;
  one.num_workers = 1;
  four.num_workers = 4;
  EXPECT_EQ(PregelTriangleCount(g, one).triangles,
            PregelTriangleCount(g, four).triangles);
}

TEST(Baselines, GMinerLshOrderIsDeterministicallyCorrect) {
  // Different worker/thread configs must agree despite LSH reordering.
  Graph g = Generator::PowerLaw(250, 10.0, 2.4, 219);
  GMinerEngine::Options a, b;
  a.num_workers = 1;
  a.threads_per_worker = 1;
  b.num_workers = 3;
  b.threads_per_worker = 2;
  EXPECT_EQ(GMinerTriangleCount(g, a).triangles,
            GMinerTriangleCount(g, b).triangles);
}

TEST(Baselines, RStreamOnTrivialGraphs) {
  Graph empty(10);
  empty.Finalize();
  EXPECT_EQ(RStreamTc::Run(empty, {}).triangles, 0u);

  Graph tri;
  tri.AddEdge(0, 1);
  tri.AddEdge(1, 2);
  tri.AddEdge(0, 2);
  tri.Finalize();
  EXPECT_EQ(RStreamTc::Run(tri, {}).triangles, 1u);
}

}  // namespace
}  // namespace gthinker
