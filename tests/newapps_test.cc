// Tests for the maximal-clique-enumeration app and root-bundled TC (the
// paper's future-work task-bundling optimization, done in the engine).

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "apps/kernels.h"
#include "apps/maximalclique_app.h"
#include "apps/triangle_app.h"
#include "core/cluster.h"
#include "graph/generator.h"

namespace gthinker {
namespace {

// Brute-force maximal clique counter for tiny graphs.
uint64_t BruteMaximalCliques(const Graph& g) {
  const VertexId n = g.NumVertices();
  EXPECT_LE(n, 18u);
  auto is_clique = [&g](uint32_t mask) {
    for (VertexId a = 0; a < g.NumVertices(); ++a) {
      if (!(mask & (1u << a))) continue;
      for (VertexId b = a + 1; b < g.NumVertices(); ++b) {
        if ((mask & (1u << b)) && !g.HasEdge(a, b)) return false;
      }
    }
    return true;
  };
  uint64_t count = 0;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    if (!is_clique(mask)) continue;
    bool maximal = true;
    for (VertexId v = 0; v < n && maximal; ++v) {
      if (mask & (1u << v)) continue;
      bool adj_all = true;
      for (VertexId u = 0; u < n && adj_all; ++u) {
        if ((mask & (1u << u)) && !g.HasEdge(u, v)) adj_all = false;
      }
      if (adj_all) maximal = false;  // extendable by v
    }
    if (maximal) ++count;
  }
  return count;
}

class MaximalCliqueSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaximalCliqueSeedTest, SerialMatchesBruteForce) {
  Graph g = Generator::ErdosRenyi(15, 45, GetParam());
  EXPECT_EQ(CountMaximalCliquesSerial(g), BruteMaximalCliques(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaximalCliqueSeedTest,
                         ::testing::Values(41, 42, 43, 44, 45, 46));

TEST(MaximalClique, KnownSmallCases) {
  // A triangle has exactly one maximal clique.
  Graph tri;
  tri.AddEdge(0, 1);
  tri.AddEdge(1, 2);
  tri.AddEdge(0, 2);
  tri.Finalize();
  EXPECT_EQ(CountMaximalCliquesSerial(tri), 1u);

  // A path a-b-c has two maximal cliques {a,b} and {b,c}.
  Graph path;
  path.AddEdge(0, 1);
  path.AddEdge(1, 2);
  path.Finalize();
  EXPECT_EQ(CountMaximalCliquesSerial(path), 2u);

  // Isolated vertices are maximal cliques of size one.
  Graph iso(3);
  iso.Finalize();
  EXPECT_EQ(CountMaximalCliquesSerial(iso), 3u);
}

TEST(MaximalClique, DistributedMatchesSerial) {
  Graph g = Generator::PowerLaw(400, 8.0, 2.4, 101);
  const uint64_t truth = CountMaximalCliquesSerial(g);
  Job<MaximalCliqueComper> job;
  job.config.num_workers = 3;
  job.config.compers_per_worker = 2;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<MaximalCliqueComper>(); };
  auto result = Cluster<MaximalCliqueComper>::Run(job);
  EXPECT_EQ(result.result, truth);
}

TEST(MaximalClique, HandlesIsolatedVertices) {
  Graph g;
  g.AddEdge(0, 1);
  g.Resize(6);  // vertices 2..5 isolated
  g.Finalize();
  Job<MaximalCliqueComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 1;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<MaximalCliqueComper>(); };
  auto result = Cluster<MaximalCliqueComper>::Run(job);
  EXPECT_EQ(result.result, 5u);  // {0,1} plus four singletons
}

/// Runs TriangleComper with spawn batches (and so root bundles) of C roots.
RunResult<TriangleComper> RunTc(const Graph& g, JobConfig config) {
  Job<TriangleComper> job;
  job.config = config;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
  job.trimmer = TrimToGreater;
  return Cluster<TriangleComper>::Run(job);
}

class BundleSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(BundleSizeTest, BundledTcMatchesUnbundled) {
  Graph g = Generator::PowerLaw(500, 6.0, 2.5, 102);
  JobConfig config;
  config.num_workers = 3;
  config.compers_per_worker = 2;
  config.task_batch_size = GetParam();
  auto result = RunTc(g, config);
  EXPECT_EQ(result.result, CountTrianglesSerial(g));
}

// C = 1 is one root per task; the others do not divide the vertex counts,
// so every comper closes a partial last bundle.
INSTANTIATE_TEST_SUITE_P(Bundles, BundleSizeTest,
                         ::testing::Values(1, 3, 7, 16, 1000));

TEST(BundledTc, FewerTasksThanUnbundled) {
  Graph g = Generator::PowerLaw(600, 6.0, 2.5, 103);
  JobConfig config;
  config.num_workers = 2;
  config.compers_per_worker = 1;
  auto b = RunTc(g, config);  // default C
  config.task_batch_size = 1;
  auto p = RunTc(g, config);

  EXPECT_EQ(b.result, p.result);
  EXPECT_LT(b.stats.tasks_finished, p.stats.tasks_finished / 4);
}

TEST(BundledTc, SurvivesSpillsAndTinyQueues) {
  Graph g = Generator::PowerLaw(500, 8.0, 2.4, 104);
  JobConfig config;
  config.num_workers = 2;
  config.compers_per_worker = 2;
  config.task_batch_size = 4;  // force spill/refill of bundled tasks
  config.inflight_task_cap = 32;
  auto result = RunTc(g, config);
  EXPECT_EQ(result.result, CountTrianglesSerial(g));
}

TEST(BundledTc, WorksWithStealingOnSkew) {
  Graph g = Generator::HubSkewed(400, 5, 100, 2.0, 105);
  JobConfig config;
  config.num_workers = 4;
  config.compers_per_worker = 1;
  config.enable_stealing = true;
  config.task_batch_size = 4;
  auto result = RunTc(g, config);
  EXPECT_EQ(result.result, CountTrianglesSerial(g));
}

}  // namespace
}  // namespace gthinker
