// Tests for Graph, generators, and text IO.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <string>

#include "graph/generator.h"
#include "graph/graph.h"
#include "graph/loader.h"
#include "storage/mini_dfs.h"

namespace gthinker {
namespace {

TEST(Graph, AddEdgeAndFinalize) {
  Graph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 1);  // duplicate
  g.AddEdge(3, 3);  // self loop ignored
  g.Finalize();
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(Graph, AdjacencySortedAfterFinalize) {
  Graph g;
  g.AddEdge(0, 5);
  g.AddEdge(0, 2);
  g.AddEdge(0, 9);
  g.Finalize();
  const AdjList& adj = g.Neighbors(0);
  EXPECT_TRUE(std::is_sorted(adj.begin(), adj.end()));
}

TEST(Graph, GreaterNeighbors) {
  Graph g;
  g.AddEdge(3, 1);
  g.AddEdge(3, 5);
  g.AddEdge(3, 7);
  g.Finalize();
  EXPECT_EQ(g.GreaterNeighbors(3), (AdjList{5, 7}));
  EXPECT_EQ(g.GreaterNeighbors(7), (AdjList{}));
}

TEST(Graph, DegreeStats) {
  Graph g;
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  g.Finalize();
  EXPECT_EQ(g.MaxDegree(), 3u);
  EXPECT_DOUBLE_EQ(g.AvgDegree(), 6.0 / 4.0);
  EXPECT_GT(g.MemoryBytes(), 0);
}

TEST(Graph, ResizeAddsIsolatedVertices) {
  Graph g;
  g.AddEdge(0, 1);
  g.Resize(10);
  g.Finalize();
  EXPECT_EQ(g.NumVertices(), 10u);
  EXPECT_EQ(g.Degree(9), 0u);
}

TEST(Generator, ErdosRenyiDeterministic) {
  Graph a = Generator::ErdosRenyi(100, 300, 7);
  Graph b = Generator::ErdosRenyi(100, 300, 7);
  ASSERT_EQ(a.NumVertices(), b.NumVertices());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    EXPECT_EQ(a.Neighbors(v), b.Neighbors(v));
  }
}

TEST(Generator, ErdosRenyiSeedChangesGraph) {
  Graph a = Generator::ErdosRenyi(100, 300, 7);
  Graph b = Generator::ErdosRenyi(100, 300, 8);
  bool any_diff = a.NumEdges() != b.NumEdges();
  for (VertexId v = 0; !any_diff && v < a.NumVertices(); ++v) {
    any_diff = a.Neighbors(v) != b.Neighbors(v);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Generator, PowerLawHitsTargetDensity) {
  Graph g = Generator::PowerLaw(2000, 10.0, 2.5, 11);
  EXPECT_EQ(g.NumVertices(), 2000u);
  EXPECT_NEAR(g.AvgDegree(), 10.0, 3.0);
  // Skew: the max degree should far exceed the mean.
  EXPECT_GT(g.MaxDegree(), 3 * static_cast<uint32_t>(g.AvgDegree()));
}

TEST(Generator, RmatProducesRequestedScale) {
  Graph g = Generator::Rmat(10, 4000, 13);
  EXPECT_EQ(g.NumVertices(), 1024u);
  EXPECT_GT(g.NumEdges(), 1000u);
}

TEST(Generator, HubSkewedHasHubs) {
  Graph g = Generator::HubSkewed(2000, 4, 500, 2.0, 17);
  EXPECT_GT(g.MaxDegree(), 250u);
}

TEST(Generator, RandomLabelsInRange) {
  auto labels = Generator::RandomLabels(500, 4, 23);
  ASSERT_EQ(labels.size(), 500u);
  for (Label l : labels) EXPECT_LT(l, 4);
  // All labels should occur on a graph this size.
  for (Label want = 0; want < 4; ++want) {
    EXPECT_NE(std::count(labels.begin(), labels.end(), want), 0);
  }
}

class DatasetTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DatasetTest, BuildsAndScales) {
  Dataset full = MakeDataset(GetParam(), 0.05);
  EXPECT_EQ(full.name, GetParam());
  EXPECT_GT(full.graph.NumVertices(), 0u);
  EXPECT_GT(full.graph.NumEdges(), 0u);
  Dataset again = MakeDataset(GetParam(), 0.05);
  EXPECT_EQ(full.graph.NumEdges(), again.graph.NumEdges());  // deterministic
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetTest,
                         ::testing::ValuesIn(DatasetNames()));

TEST(GraphIo, AdjacencyRoundtrip) {
  Graph g = Generator::ErdosRenyi(60, 150, 3);
  const std::string dir = MakeTempDir("graphio");
  const std::string path = dir + "/g.adj";
  ASSERT_TRUE(GraphIo::WriteAdjacency(g, path).ok());
  Graph back;
  ASSERT_TRUE(GraphIo::LoadAdjacency(path, &back).ok());
  ASSERT_EQ(back.NumVertices(), g.NumVertices());
  ASSERT_EQ(back.NumEdges(), g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(back.Neighbors(v), g.Neighbors(v));
  }
  RemoveTree(dir);
}

/// A 4-vertex graph: triangle 0-1-2 plus the pendant edge 2-3.
Graph FourVertexGraph() {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.Finalize();
  return g;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// The edge-list writer (dataset_gen's edge-list output) emits each
// undirected edge once, lower ID first, in ascending order.
TEST(GraphIo, EdgeListRoundtrip) {
  const std::string dir = MakeTempDir("graphio");
  const std::string path = dir + "/g.el";
  ASSERT_TRUE(GraphIo::WriteEdgeList(FourVertexGraph(), path).ok());
  EXPECT_EQ(ReadWholeFile(path), "0 1\n0 2\n1 2\n2 3\n");
  RemoveTree(dir);
}

std::string WriteTempFile(const std::string& dir, const std::string& text) {
  const std::string path = dir + "/g.adj";
  std::ofstream(path) << text;
  return path;
}

// The graph is sized from its lines, never from an ID a line names: a
// one-line file naming vertex 4294967294 (about 103 GB of rows) and a
// repeated vertex line are both Corruption.
TEST(GraphIo, LoadAdjacencyRejectsIdsOutsideItsLines) {
  const std::string dir = MakeTempDir("graphio");
  Graph g;
  for (const char* bad : {"0\t4294967294\n", "4294967294\n",
                          "0\t1\n1\t0\n1\t0\n", "0\t1\n0\t1\n"}) {
    const Status s = GraphIo::LoadAdjacency(WriteTempFile(dir, bad), &g);
    EXPECT_TRUE(s.IsCorruption()) << bad << ": " << s.ToString();
  }
  // Out of order is fine: IDs 0..n-1, each once.
  ASSERT_TRUE(
      GraphIo::LoadAdjacency(WriteTempFile(dir, "1\t0\n2\n0\t1\n"), &g).ok());
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 1u);
  RemoveTree(dir);
}

TEST(GraphIo, ParseAdjacencyLine) {
  VertexId id = 0;
  AdjList adj;
  ASSERT_TRUE(GraphIo::ParseAdjacencyLine("5\t1 2 9", &id, &adj).ok());
  EXPECT_EQ(id, 5u);
  EXPECT_EQ(adj, (AdjList{1, 2, 9}));
  ASSERT_TRUE(GraphIo::ParseAdjacencyLine("7", &id, &adj).ok());
  EXPECT_EQ(id, 7u);
  EXPECT_TRUE(adj.empty());
  // The largest ID, and a CRLF line end.
  ASSERT_TRUE(GraphIo::ParseAdjacencyLine("4294967294\t0 7\r", &id, &adj)
                  .ok());
  EXPECT_EQ(id, 4294967294u);
  EXPECT_EQ(adj, (AdjList{0, 7}));
}

TEST(GraphIo, ParseBadLineFails) {
  VertexId id = 0;
  AdjList adj;
  EXPECT_FALSE(GraphIo::ParseAdjacencyLine("not-a-number", &id, &adj).ok());
  EXPECT_FALSE(GraphIo::ParseAdjacencyLine("", &id, &adj).ok());
  // Out-of-range IDs, signs and trailing garbage are Corruption, never an
  // aliased vertex or a silently shortened list.
  for (const char* bad :
       {"4294967296 1", "4294967295 1", "1 4294967295", "-1 2", "3 -2",
        "+3 2", "1 2 x 3", "1 2 3.5", "1 2x", " \t "}) {
    EXPECT_TRUE(GraphIo::ParseAdjacencyLine(bad, &id, &adj).IsCorruption())
        << bad;
  }
}

TEST(GraphIo, LoadMissingFileFails) {
  Graph g;
  EXPECT_FALSE(GraphIo::LoadAdjacency("/nonexistent/file.adj", &g).ok());
}

}  // namespace
}  // namespace gthinker

namespace gthinker {
namespace {

// The labeled-adjacency writer (dataset_gen's labeled output) emits one
// "<id> <label>\t<neighbors>" line per vertex, isolated ones included.
TEST(GraphIo, LabeledAdjacencyRoundtrip) {
  const std::vector<Label> labels = {3, 0, 7, 1};
  const std::string dir = MakeTempDir("labio");
  const std::string path = dir + "/g.ladj";
  ASSERT_TRUE(
      GraphIo::WriteLabeledAdjacency(FourVertexGraph(), labels, path).ok());
  EXPECT_EQ(ReadWholeFile(path), "0 3\t1 2\n1 0\t0 2\n2 7\t0 1 3\n3 1\t2\n");
  RemoveTree(dir);
}

TEST(GraphIo, LabeledAdjacencySizeMismatchRejected) {
  Graph g = Generator::ErdosRenyi(10, 20, 11);
  std::vector<Label> labels(5);  // wrong size
  EXPECT_TRUE(GraphIo::WriteLabeledAdjacency(g, labels, "/tmp/x")
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace gthinker

namespace gthinker {
namespace {

TEST(GraphIo, EmptyFileLoadsEmptyGraph) {
  const std::string dir = MakeTempDir("emptyio");
  const std::string path = dir + "/empty.adj";
  { std::ofstream touch(path); }
  Graph g;
  ASSERT_TRUE(GraphIo::LoadAdjacency(path, &g).ok());
  EXPECT_EQ(g.NumVertices(), 0u);
  RemoveTree(dir);
}

}  // namespace
}  // namespace gthinker
