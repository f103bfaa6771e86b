// Tests for k-clique counting: kernel vs brute force, app vs serial, k=3
// equivalence with triangle counting, and the no-Z-table cache ablation.

#include <gtest/gtest.h>

#include <memory>

#include "apps/kclique_app.h"
#include "apps/kernels.h"
#include "apps/triangle_app.h"
#include "core/cluster.h"
#include "graph/generator.h"

namespace gthinker {
namespace {

uint64_t BruteKCliques(const Graph& g, int k) {
  const VertexId n = g.NumVertices();
  EXPECT_LE(n, 20u);
  uint64_t count = 0;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    if (__builtin_popcount(mask) != k) continue;
    bool clique = true;
    for (VertexId a = 0; a < n && clique; ++a) {
      if (!(mask & (1u << a))) continue;
      for (VertexId b = a + 1; b < n && clique; ++b) {
        if ((mask & (1u << b)) && !g.HasEdge(a, b)) clique = false;
      }
    }
    if (clique) ++count;
  }
  return count;
}

class KCliqueKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(KCliqueKernelTest, SerialMatchesBruteForce) {
  const int k = GetParam();
  for (uint64_t seed : {601, 602, 603}) {
    Graph g = Generator::ErdosRenyi(16, 60, seed);
    EXPECT_EQ(CountKCliquesSerial(g, k), BruteKCliques(g, k))
        << "k=" << k << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(K, KCliqueKernelTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(KCliqueKernel, KnownValues) {
  // K5: C(5,k) cliques of each size.
  Graph k5;
  for (VertexId i = 0; i < 5; ++i) {
    for (VertexId j = i + 1; j < 5; ++j) k5.AddEdge(i, j);
  }
  k5.Finalize();
  EXPECT_EQ(CountKCliquesSerial(k5, 1), 5u);
  EXPECT_EQ(CountKCliquesSerial(k5, 2), 10u);
  EXPECT_EQ(CountKCliquesSerial(k5, 3), 10u);
  EXPECT_EQ(CountKCliquesSerial(k5, 4), 5u);
  EXPECT_EQ(CountKCliquesSerial(k5, 5), 1u);
  EXPECT_EQ(CountKCliquesSerial(k5, 6), 0u);
}

TEST(KCliqueKernel, EqualsEdgeAndTriangleCounts) {
  Graph g = Generator::PowerLaw(300, 10.0, 2.4, 604);
  EXPECT_EQ(CountKCliquesSerial(g, 2), g.NumEdges());
  EXPECT_EQ(CountKCliquesSerial(g, 3), CountTrianglesSerial(g));
}

class KCliqueAppTest : public ::testing::TestWithParam<int> {};

TEST_P(KCliqueAppTest, DistributedMatchesSerial) {
  const int k = GetParam();
  Graph g = Generator::ErdosRenyi(200, 1600, 605);
  const uint64_t truth = CountKCliquesSerial(g, k);
  Job<KCliqueComper> job;
  job.config.num_workers = 3;
  job.config.compers_per_worker = 2;
  job.graph = &g;
  job.comper_factory = [k] { return std::make_unique<KCliqueComper>(k); };
  job.trimmer = TrimToGreater;
  auto result = Cluster<KCliqueComper>::Run(job);
  EXPECT_EQ(result.result, truth) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(K, KCliqueAppTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(KCliqueApp, ThreeCliquesEqualTriangleApp) {
  Graph g = Generator::PowerLaw(400, 9.0, 2.5, 606);
  Job<KCliqueComper> kjob;
  kjob.config.num_workers = 2;
  kjob.config.compers_per_worker = 2;
  kjob.graph = &g;
  kjob.comper_factory = [] { return std::make_unique<KCliqueComper>(3); };
  kjob.trimmer = TrimToGreater;
  auto kc = Cluster<KCliqueComper>::Run(kjob);

  Job<TriangleComper> tjob;
  tjob.config.num_workers = 2;
  tjob.config.compers_per_worker = 2;
  tjob.graph = &g;
  tjob.comper_factory = [] { return std::make_unique<TriangleComper>(); };
  tjob.trimmer = TrimToGreater;
  auto tc = Cluster<TriangleComper>::Run(tjob);

  EXPECT_EQ(kc.result, tc.result);
}

TEST(KCliqueApp, NoZTableAblationStillCorrect) {
  Graph g = Generator::PowerLaw(300, 10.0, 2.4, 607);
  const uint64_t truth = CountKCliquesSerial(g, 4);
  Job<KCliqueComper> job;
  job.config.num_workers = 3;
  job.config.compers_per_worker = 2;
  job.config.cache_capacity = 64;       // keep GC busy
  job.config.cache_use_z_table = false;  // ablation path
  // ID order: its wide hub rows are what overflow the 64-entry cache; under
  // the hub-last layout the pulled rows are tiny and nothing is evicted.
  job.config.layout.reorder = false;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<KCliqueComper>(4); };
  job.trimmer = TrimToGreater;
  auto result = Cluster<KCliqueComper>::Run(job);
  EXPECT_EQ(result.result, truth);
  EXPECT_GT(result.stats.cache_evictions, 0);
}

}  // namespace
}  // namespace gthinker
