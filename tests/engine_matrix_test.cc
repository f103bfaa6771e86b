// The full engine-equality matrix over the dataset stand-ins at tiny scale:
// every engine that can run an application must produce identical results
// on every dataset. This is the correctness backbone behind Table III.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "apps/kernels.h"
#include "apps/match_app.h"
#include "apps/maxclique_app.h"
#include "apps/triangle_app.h"
#include "baselines/arabesque_apps.h"
#include "baselines/gminer_apps.h"
#include "baselines/pregel_apps.h"
#include "baselines/rstream_tc.h"
#include "core/cluster.h"
#include "graph/generator.h"

namespace gthinker {
namespace {

using namespace gthinker::baselines;  // NOLINT: test-local convenience

class EngineMatrixTest : public ::testing::TestWithParam<std::string> {
 protected:
  Graph MakeGraph() const { return MakeDataset(GetParam(), 0.02).graph; }
};

TEST_P(EngineMatrixTest, AllFiveEnginesAgreeOnTriangles) {
  Graph g = MakeGraph();
  const uint64_t truth = CountTrianglesSerial(g);

  Job<TriangleComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 2;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
  job.trimmer = TrimToGreater;
  EXPECT_EQ(Cluster<TriangleComper>::Run(job).result, truth) << "gthinker";

  PregelOptions pregel;
  pregel.num_workers = 2;
  EXPECT_EQ(PregelTriangleCount(g, pregel).triangles, truth) << "pregel";

  ArabesqueEngine::Options arabesque;
  arabesque.num_threads = 2;
  EXPECT_EQ(ArabesqueTriangleCount(g, arabesque).triangles, truth)
      << "arabesque";

  GMinerEngine::Options gminer;
  gminer.num_workers = 2;
  gminer.threads_per_worker = 2;
  EXPECT_EQ(GMinerTriangleCount(g, gminer).triangles, truth) << "gminer";

  EXPECT_EQ(RStreamTc::Run(g, {}).triangles, truth) << "rstream";
}

TEST_P(EngineMatrixTest, AllFourEnginesAgreeOnMaxClique) {
  // A moderate-density ER graph per dataset seed: the dense stand-ins make
  // the *Pregel* clique algorithm exponential even at tiny scale (its
  // blowup is Table III's point, but here we need every engine to finish).
  Graph g = Generator::ErdosRenyi(
      150, 900, static_cast<uint64_t>(GetParam().size()) * 131 + 17);
  const size_t truth = MaxCliqueSerial(g).size();

  Job<MaxCliqueComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 2;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<MaxCliqueComper>(60); };
  job.trimmer = TrimToGreater;
  EXPECT_EQ(Cluster<MaxCliqueComper>::Run(job).result.size(), truth)
      << "gthinker";

  PregelOptions pregel;
  pregel.num_workers = 2;
  EXPECT_EQ(PregelMaxClique(g, pregel).best_clique.size(), truth) << "pregel";

  ArabesqueEngine::Options arabesque;
  arabesque.num_threads = 2;
  EXPECT_EQ(ArabesqueMaxClique(g, arabesque).best_clique.size(), truth)
      << "arabesque";

  GMinerEngine::Options gminer;
  gminer.num_workers = 2;
  gminer.threads_per_worker = 2;
  EXPECT_EQ(GMinerMaxClique(g, 60, gminer).best_clique.size(), truth)
      << "gminer";
}

TEST_P(EngineMatrixTest, MatchingEnginesAgree) {
  Graph g = MakeGraph();
  auto labels = Generator::RandomLabels(g.NumVertices(), 3, 811);
  const QueryGraph query = QueryGraph::Triangle(0, 1, 2);
  const uint64_t truth = CountMatchesSerial(g, labels, query);

  Job<MatchComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 2;
  job.graph = &g;
  job.labels = &labels;
  job.comper_factory = [&query] {
    return std::make_unique<MatchComper>(query);
  };
  job.trimmer = [&query](Vertex<LabeledAdj>& v) {
    MatchComper::TrimByQuery(query, v);
  };
  EXPECT_EQ(Cluster<MatchComper>::Run(job).result, truth) << "gthinker";

  GMinerEngine::Options gminer;
  gminer.num_workers = 2;
  gminer.threads_per_worker = 2;
  EXPECT_EQ(GMinerMatch(g, labels, query, gminer).matches, truth) << "gminer";
}

INSTANTIATE_TEST_SUITE_P(Datasets, EngineMatrixTest,
                         ::testing::ValuesIn(DatasetNames()));

}  // namespace
}  // namespace gthinker
