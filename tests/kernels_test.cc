// Property tests for the serial mining kernels against brute-force oracles,
// plus randomized differential tests pinning the bitset kernels to the CSR
// sorted-list path (toggled via SetKernelBitsetMaxVertices) and the compact
// builder and the row matcher to the code they replaced.

#include "apps/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/kernel_simd.h"
#include "apps/match_app.h"
#include "graph/generator.h"
#include "graph/layout.h"
#include "util/random.h"

namespace gthinker {
namespace {

// ---------------------------------------------------------------------------
// Brute-force oracles (exponential; tiny graphs only).
// ---------------------------------------------------------------------------

bool IsCliqueSet(const Graph& g, const std::vector<VertexId>& s) {
  for (size_t i = 0; i < s.size(); ++i) {
    for (size_t j = i + 1; j < s.size(); ++j) {
      if (!g.HasEdge(s[i], s[j])) return false;
    }
  }
  return true;
}

size_t BruteMaxCliqueSize(const Graph& g) {
  const VertexId n = g.NumVertices();
  EXPECT_LE(n, 18u);
  size_t best = 0;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    std::vector<VertexId> s;
    for (VertexId v = 0; v < n; ++v) {
      if (mask & (1u << v)) s.push_back(v);
    }
    if (s.size() > best && IsCliqueSet(g, s)) best = s.size();
  }
  return best;
}

uint64_t BruteTriangles(const Graph& g) {
  uint64_t count = 0;
  const VertexId n = g.NumVertices();
  for (VertexId a = 0; a < n; ++a) {
    for (VertexId b = a + 1; b < n; ++b) {
      if (!g.HasEdge(a, b)) continue;
      for (VertexId c = b + 1; c < n; ++c) {
        if (g.HasEdge(a, c) && g.HasEdge(b, c)) ++count;
      }
    }
  }
  return count;
}

uint64_t BruteMatches(const Graph& g, const std::vector<Label>& labels,
                      const QueryGraph& q) {
  // Enumerate all injective mappings (tiny graphs only).
  const int k = q.NumVertices();
  const VertexId n = g.NumVertices();
  std::vector<VertexId> mapping(k);
  std::vector<bool> used(n, false);
  uint64_t count = 0;
  std::function<void(int)> rec = [&](int qi) {
    if (qi == k) {
      ++count;
      return;
    }
    for (VertexId v = 0; v < n; ++v) {
      if (used[v] || labels[v] != q.labels[qi]) continue;
      bool ok = true;
      for (int u : q.adj[qi]) {
        if (u < qi && !g.HasEdge(mapping[u], v)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      used[v] = true;
      mapping[qi] = v;
      rec(qi + 1);
      used[v] = false;
    }
  };
  rec(0);
  return count;
}

// ---------------------------------------------------------------------------
// Max clique.
// ---------------------------------------------------------------------------

class CliqueSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CliqueSeedTest, MatchesBruteForceOnTinyGraphs) {
  Graph g = Generator::ErdosRenyi(14, 40, GetParam());
  const size_t brute = BruteMaxCliqueSize(g);
  const std::vector<VertexId> found = MaxCliqueSerial(g);
  EXPECT_EQ(found.size(), brute);
  EXPECT_TRUE(IsCliqueSet(g, found));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CliqueSeedTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(MaxClique, PlantedCliqueIsFound) {
  Graph g = Generator::ErdosRenyi(100, 300, 5);
  // Plant an 8-clique on fixed vertices.
  const std::vector<VertexId> planted = {3, 17, 25, 40, 55, 61, 77, 90};
  for (size_t i = 0; i < planted.size(); ++i) {
    for (size_t j = i + 1; j < planted.size(); ++j) {
      g.AddEdge(planted[i], planted[j]);
    }
  }
  g.Finalize();
  const auto found = MaxCliqueSerial(g);
  EXPECT_GE(found.size(), 8u);
  EXPECT_TRUE(IsCliqueSet(g, found));
}

TEST(MaxClique, LowerBoundPrunes) {
  Graph g = Generator::ErdosRenyi(50, 200, 6);
  const size_t best = MaxCliqueSerial(g).size();
  // Asking for strictly-more-than-best yields nothing.
  EXPECT_TRUE(MaxCliqueInCompact(CompactFromGraph(g), best).empty());
  // Asking with bound best-1 re-finds a maximum clique.
  EXPECT_EQ(MaxCliqueInCompact(CompactFromGraph(g), best - 1).size(), best);
}

TEST(MaxClique, EmptyAndSingleVertexGraphs) {
  Graph empty(0);
  empty.Finalize();
  EXPECT_TRUE(MaxCliqueSerial(empty).empty());
  Graph one(1);
  one.Finalize();
  EXPECT_EQ(MaxCliqueSerial(one).size(), 1u);
}

TEST(MaxClique, EdgelessGraphGivesSingleton) {
  Graph g(5);
  g.Finalize();
  EXPECT_EQ(MaxCliqueSerial(g).size(), 1u);
}

TEST(CompactFromSubgraph, SymmetrizesTrimmedLists) {
  // Subgraph adjacency holds only Γ_> entries, as MCF tasks build them.
  Subgraph<Vertex<AdjList>> g;
  g.AddVertex({1, {2, 3}});
  g.AddVertex({2, {3}});
  g.AddVertex({3, {}});
  const CompactGraph cg = CompactFromSubgraph(g);
  EXPECT_TRUE(cg.HasEdge(0, 1));
  EXPECT_TRUE(cg.HasEdge(1, 0));
  EXPECT_TRUE(cg.HasEdge(2, 0));
  EXPECT_TRUE(cg.HasEdge(2, 1));
  EXPECT_EQ(MaxCliqueInCompact(cg, 0).size(), 3u);
}

TEST(CompactFromSubgraph, DropsOutOfSubgraphNeighbors) {
  Subgraph<Vertex<AdjList>> g;
  g.AddVertex({1, {2, 99}});  // 99 not in subgraph
  g.AddVertex({2, {}});
  const CompactGraph cg = CompactFromSubgraph(g);
  EXPECT_EQ(cg.NumVertices(), 2);
  EXPECT_EQ(cg.Degree(0), 1);
}

TEST(CompactGraph, CsrLayoutInvariants) {
  Graph g = Generator::ErdosRenyi(30, 100, 77);
  const CompactGraph cg = CompactFromGraph(g);
  ASSERT_EQ(cg.offsets.size(), static_cast<size_t>(cg.NumVertices()) + 1);
  EXPECT_EQ(cg.offsets.front(), 0u);
  EXPECT_EQ(cg.offsets.back(), cg.nbrs.size());
  for (int v = 0; v < cg.NumVertices(); ++v) {
    ASSERT_LE(cg.offsets[v], cg.offsets[v + 1]);
    const NbrSpan row = cg.Neigh(v);
    EXPECT_EQ(row.size(), cg.Degree(v));
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
    EXPECT_EQ(static_cast<uint32_t>(cg.Degree(v)), g.Degree(v));
    for (int32_t u : row) {
      EXPECT_TRUE(cg.HasEdge(v, u));
      EXPECT_TRUE(cg.HasEdge(u, v));  // symmetric
    }
  }
}

// ---------------------------------------------------------------------------
// The compact-view builder against the per-entry-lookup builder it
// replaced, copied here unchanged as the oracle: the CSR must match byte for
// byte.
// ---------------------------------------------------------------------------

namespace legacy {

void FlattenRows(const std::vector<std::vector<int32_t>>& rows,
                 std::vector<uint32_t>* offsets, std::vector<int32_t>* nbrs) {
  const size_t n = rows.size();
  size_t total = 0;
  for (const auto& row : rows) total += row.size();
  offsets->resize(n + 1);
  nbrs->clear();
  nbrs->reserve(total);
  for (size_t i = 0; i < n; ++i) {
    (*offsets)[i] = static_cast<uint32_t>(nbrs->size());
    nbrs->insert(nbrs->end(), rows[i].begin(), rows[i].end());
  }
  (*offsets)[n] = static_cast<uint32_t>(nbrs->size());
}

CompactGraph CompactFromSubgraph(const Subgraph<Vertex<AdjList>>& g) {
  CompactGraph out;
  out.ids.reserve(g.NumVertices());
  for (const auto& v : g.vertices()) out.ids.push_back(v.id);
  std::vector<std::pair<VertexId, int32_t>> index;
  index.reserve(out.ids.size());
  for (size_t k = 0; k < out.ids.size(); ++k) {
    index.emplace_back(out.ids[k], static_cast<int32_t>(k));
  }
  std::sort(index.begin(), index.end());
  const auto find = [&index](VertexId u) -> int32_t {
    auto it = std::lower_bound(
        index.begin(), index.end(), u,
        [](const std::pair<VertexId, int32_t>& p, VertexId x) {
          return p.first < x;
        });
    return it != index.end() && it->first == u ? it->second : -1;
  };
  std::vector<std::vector<int32_t>> rows(out.ids.size());
  int32_t i = 0;
  for (const auto& v : g.vertices()) {
    for (VertexId u : v.value) {
      const int32_t j = find(u);
      if (j >= 0) {
        rows[i].push_back(j);
        rows[j].push_back(i);
      }
    }
    ++i;
  }
  for (auto& row : rows) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  FlattenRows(rows, &out.offsets, &out.nbrs);
  return out;
}

}  // namespace legacy

/// One random task subgraph: member IDs in task order, each with a sorted
/// adjacency list mixing members and non-members.
struct RandomTaskRows {
  std::vector<VertexId> ids;
  std::vector<AdjList> rows;
};

/// Members' order: ascending ID (MCF/k-clique), root first and the rest
/// ascending (GM, quasi-clique), or arbitrary.
enum class MemberOrder { kAscending, kRootFirst, kShuffled };

/// `n` members among 2(n + outside) + 8 candidate IDs. Member edges appear
/// with probability `edge_p`; a row lists all its member neighbors, or only
/// the larger-ID ones with probability `trim_p` (Γ_> trimming), so an edge
/// is listed by one endpoint or both. Each row also names up to `outside`
/// non-members, and about one row in ten is emptied.
RandomTaskRows MakeTaskRows(Random* rng, size_t n, size_t outside,
                            double edge_p, double trim_p, MemberOrder order) {
  std::vector<VertexId> pool(2 * (n + outside) + 8);
  for (size_t i = 0; i < pool.size(); ++i) pool[i] = static_cast<VertexId>(i);
  for (size_t i = pool.size() - 1; i > 0; --i) {
    std::swap(pool[i], pool[rng->Uniform(i + 1)]);
  }
  RandomTaskRows out;
  out.ids.assign(pool.begin(), pool.begin() + static_cast<int64_t>(n));
  if (order == MemberOrder::kAscending) {
    std::sort(out.ids.begin(), out.ids.end());
  } else if (order == MemberOrder::kRootFirst && n > 1) {
    std::sort(out.ids.begin() + 1, out.ids.end());
  }
  out.rows.resize(n);
  std::vector<bool> trimmed(n);
  for (size_t i = 0; i < n; ++i) trimmed[i] = rng->Bernoulli(trim_p);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (!rng->Bernoulli(edge_p)) continue;
      if (!trimmed[i] || out.ids[j] > out.ids[i]) {
        out.rows[i].push_back(out.ids[j]);
      }
      if (!trimmed[j] || out.ids[i] > out.ids[j]) {
        out.rows[j].push_back(out.ids[i]);
      }
    }
  }
  const size_t outsiders = pool.size() - n;
  for (size_t i = 0; i < n; ++i) {
    AdjList& row = out.rows[i];
    for (size_t k = 0; k < outside; ++k) {
      row.push_back(pool[n + rng->Uniform(outsiders)]);
    }
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    if (rng->Bernoulli(0.1)) row.clear();
  }
  return out;
}

TEST(CompactBuilders, MatchLegacyBuildersByteForByte) {
  Random rng(8080);
  // Row-vs-member length ratios past simd::kGallopRatio, one per direction:
  // a hub row gallops the members through itself, a short row gallops
  // through many members.
  int long_rows = 0, short_rows = 0;
  for (int iter = 0; iter < 400; ++iter) {
    size_t n = 0, outside = 0;
    switch (iter % 4) {
      case 0:  // balanced: merge regime (the first case is the empty graph)
        n = iter == 0 ? 0 : rng.Uniform(40);
        outside = rng.Uniform(40);
        break;
      case 1:  // hub rows: few members, very long rows
        n = 1 + rng.Uniform(4);
        outside = 64 + rng.Uniform(400);
        break;
      case 2:  // many members, rows of a handful of entries
        n = 100 + rng.Uniform(200);
        outside = rng.Uniform(3);
        break;
      default:  // mid-size, sparse
        n = 20 + rng.Uniform(80);
        outside = rng.Uniform(200);
        break;
    }
    const double kTrimP[] = {0.0, 1.0, 0.5};  // full, Γ_>, mixed rows
    const double edge_p = iter % 4 == 2 ? 0.01 : rng.NextDouble();
    const double trim_p = kTrimP[iter % 3];
    const auto order = static_cast<MemberOrder>(rng.Uniform(3));
    const RandomTaskRows t =
        MakeTaskRows(&rng, n, outside, edge_p, trim_p, order);

    Subgraph<Vertex<AdjList>> plain;
    for (size_t i = 0; i < n; ++i) {
      const AdjList& row = t.rows[i];
      if (!row.empty() && row.size() >= simd::kGallopRatio * n) ++long_rows;
      if (!row.empty() && n >= simd::kGallopRatio * row.size()) ++short_rows;
      plain.AddVertex({t.ids[i], row});
    }

    SCOPED_TRACE(::testing::Message() << "iter " << iter << " n=" << n
                                      << " outside=" << outside);
    const CompactGraph want = legacy::CompactFromSubgraph(plain);
    // The rows as a Compute frontier holds them: pointers in member order.
    std::vector<const Vertex<AdjList>*> rows;
    for (const Vertex<AdjList>& v : plain.vertices()) rows.push_back(&v);
    for (const CompactGraph& got :
         {CompactFromSubgraph(plain), CompactFromRows(rows)}) {
      EXPECT_EQ(got.ids, want.ids);
      EXPECT_EQ(got.offsets, want.offsets);
      EXPECT_EQ(got.nbrs, want.nbrs);
    }
  }
  EXPECT_GT(long_rows, 50);
  EXPECT_GT(short_rows, 50);
}

// ---------------------------------------------------------------------------
// Triangles.
// ---------------------------------------------------------------------------

class TriangleSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TriangleSeedTest, MatchesBruteForce) {
  Graph g = Generator::ErdosRenyi(40, 150, GetParam());
  EXPECT_EQ(CountTrianglesSerial(g), BruteTriangles(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriangleSeedTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

TEST(Triangles, KnownSmallCases) {
  Graph triangle;
  triangle.AddEdge(0, 1);
  triangle.AddEdge(1, 2);
  triangle.AddEdge(0, 2);
  triangle.Finalize();
  EXPECT_EQ(CountTrianglesSerial(triangle), 1u);

  Graph k4;
  for (VertexId i = 0; i < 4; ++i) {
    for (VertexId j = i + 1; j < 4; ++j) k4.AddEdge(i, j);
  }
  k4.Finalize();
  EXPECT_EQ(CountTrianglesSerial(k4), 4u);

  Graph path;
  path.AddEdge(0, 1);
  path.AddEdge(1, 2);
  path.Finalize();
  EXPECT_EQ(CountTrianglesSerial(path), 0u);
}

TEST(Triangles, SortedIntersectionCountBasics) {
  EXPECT_EQ(simd::IntersectAdaptive(AdjList{1, 2, 3}, AdjList{2, 3, 4}), 2u);
  EXPECT_EQ(simd::IntersectAdaptive(AdjList{}, AdjList{1}), 0u);
  EXPECT_EQ(simd::IntersectAdaptive(AdjList{5}, AdjList{5}), 1u);
  EXPECT_EQ(simd::IntersectAdaptive(AdjList{1, 3, 5}, AdjList{2, 4, 6}), 0u);
}

// ---------------------------------------------------------------------------
// Subgraph matching.
// ---------------------------------------------------------------------------

class MatchSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatchSeedTest, TriangleQueryMatchesBruteForce) {
  Graph g = Generator::ErdosRenyi(30, 120, GetParam());
  auto labels = Generator::RandomLabels(g.NumVertices(), 3, GetParam() + 1);
  const QueryGraph q = QueryGraph::Triangle(0, 1, 2);
  EXPECT_EQ(CountMatchesSerial(g, labels, q), BruteMatches(g, labels, q));
}

TEST_P(MatchSeedTest, PathQueryMatchesBruteForce) {
  Graph g = Generator::ErdosRenyi(30, 100, GetParam());
  auto labels = Generator::RandomLabels(g.NumVertices(), 2, GetParam() + 2);
  const QueryGraph q = QueryGraph::Path3(0, 1, 0);
  EXPECT_EQ(CountMatchesSerial(g, labels, q), BruteMatches(g, labels, q));
}

TEST_P(MatchSeedTest, StarQueryMatchesBruteForce) {
  Graph g = Generator::ErdosRenyi(25, 80, GetParam());
  auto labels = Generator::RandomLabels(g.NumVertices(), 2, GetParam() + 3);
  const QueryGraph q = QueryGraph::Star(0, {1, 1});
  EXPECT_EQ(CountMatchesSerial(g, labels, q), BruteMatches(g, labels, q));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchSeedTest,
                         ::testing::Values(21, 22, 23, 24, 25));

// ---------------------------------------------------------------------------
// The row matcher against the compact-view matcher it replaced.
// ---------------------------------------------------------------------------

namespace legacy {

/// The labeled compact view and backtracking matcher GM ran on before
/// matching moved onto rows, copied here as the oracle. The builder is the
/// per-entry-lookup one, whose CSR the sorted builder matched byte for byte;
/// the matcher is its CSR path, which the bitset path matched count for
/// count.
struct CompactLabeledGraph {
  std::vector<VertexId> ids;
  std::vector<Label> labels;
  std::vector<uint32_t> offsets;
  std::vector<int32_t> nbrs;

  int NumVertices() const { return static_cast<int>(ids.size()); }
  int Degree(int v) const {
    return static_cast<int>(offsets[v + 1] - offsets[v]);
  }
  NbrSpan Neigh(int v) const {
    return {nbrs.data() + offsets[v], Degree(v)};
  }
  bool HasEdge(int a, int b) const {
    if (Degree(a) > Degree(b)) std::swap(a, b);
    const NbrSpan row = Neigh(a);
    return std::binary_search(row.begin(), row.end(), static_cast<int32_t>(b));
  }
};

CompactLabeledGraph CompactFromLabeledSubgraph(
    const Subgraph<Vertex<LabeledAdj>>& g) {
  CompactLabeledGraph out;
  std::unordered_map<VertexId, int> index;
  index.reserve(g.NumVertices());
  for (const auto& v : g.vertices()) {
    index.emplace(v.id, static_cast<int>(out.ids.size()));
    out.ids.push_back(v.id);
    out.labels.push_back(v.value.label);
  }
  std::vector<std::vector<int32_t>> rows(out.ids.size());
  for (const auto& v : g.vertices()) {
    const int i = index.at(v.id);
    for (const LabeledNbr& nbr : v.value.adj) {
      auto it = index.find(nbr.id);
      if (it != index.end()) {
        rows[i].push_back(it->second);
        rows[it->second].push_back(i);
      }
    }
  }
  for (auto& row : rows) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  FlattenRows(rows, &out.offsets, &out.nbrs);
  return out;
}

class Matcher {
 public:
  Matcher(const CompactLabeledGraph& g, const QueryGraph& q) : g_(g), q_(q) {}

  uint64_t CountFrom(int root) {
    if (g_.labels[root] != q_.labels[0]) return 0;
    mapping_.assign(q_.NumVertices(), -1);
    used_.assign(g_.NumVertices(), false);
    mapping_[0] = root;
    used_[root] = true;
    const uint64_t count = Extend(1);
    used_[root] = false;
    return count;
  }

 private:
  uint64_t Extend(int qi) {
    if (qi == q_.NumVertices()) return 1;
    int anchor = -1;
    for (int u : q_.adj[qi]) {
      if (u < qi && (anchor < 0 || g_.Degree(mapping_[u]) <
                                       g_.Degree(mapping_[anchor]))) {
        anchor = u;
      }
    }
    uint64_t count = 0;
    for (int32_t cand : g_.Neigh(mapping_[anchor])) {
      if (used_[cand] || g_.labels[cand] != q_.labels[qi]) continue;
      bool ok = true;
      for (int u : q_.adj[qi]) {
        if (u < qi && u != anchor && !g_.HasEdge(mapping_[u], cand)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      mapping_[qi] = cand;
      used_[cand] = true;
      count += Extend(qi + 1);
      used_[cand] = false;
      mapping_[qi] = -1;
    }
    return count;
  }

  const CompactLabeledGraph& g_;
  const QueryGraph& q_;
  std::vector<int> mapping_;
  std::vector<bool> used_;
};

}  // namespace legacy

QueryGraph MakeQuery(std::vector<Label> labels,
                     const std::vector<std::pair<int, int>>& edges) {
  QueryGraph q;
  q.labels = std::move(labels);
  q.adj.resize(q.labels.size());
  for (const auto& [a, b] : edges) {
    q.adj[a].push_back(b);
    q.adj[b].push_back(a);
  }
  return q;
}

/// Three queries whose vertices each have one backward neighbor, and three
/// where some vertex has two or three. Every query repeats a label, so the
/// injectivity check prunes.
std::vector<QueryGraph> OracleQueries() {
  return {
      QueryGraph::Triangle(0, 1, 1),
      QueryGraph::Path3(0, 1, 0),
      QueryGraph::Star(0, {1, 1}),
      MakeQuery({0, 1, 0, 1}, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}),  // 4-cycle
      MakeQuery({0, 1, 1, 0},
                {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}}),  // diamond
      MakeQuery({0, 0, 1, 1},
                {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}),  // K4
  };
}

/// A GM task subgraph built the way a multi-hop MatchComper task builds one:
/// the root first, then, hop by hop out to q.DepthFromRoot(), every vertex a
/// member's row names, each carrying its TrimByQuery row. The last hop's
/// rows name vertices that were never pulled. At depth <= 1 its members are
/// the vertices a root bundle pulls for the root.
Subgraph<Vertex<LabeledAdj>> MatchTaskSubgraph(const Graph& g,
                                               const std::vector<Label>& labels,
                                               const QueryGraph& q,
                                               VertexId root) {
  const auto trimmed = [&](VertexId v) {
    Vertex<LabeledAdj> out;
    out.id = v;
    out.value.label = labels[v];
    for (VertexId u : g.Neighbors(v)) out.value.adj.push_back({u, labels[u]});
    MatchComper::TrimByQuery(q, out);
    return out;
  };
  Subgraph<Vertex<LabeledAdj>> task;
  task.AddVertex(trimmed(root));
  std::vector<VertexId> frontier = {root};
  for (int hop = 0; hop < q.DepthFromRoot(); ++hop) {
    std::vector<VertexId> next;
    for (VertexId v : frontier) {
      const std::vector<LabeledNbr> row = task.GetVertex(v)->value.adj;
      for (const LabeledNbr& nbr : row) {
        if (task.HasVertex(nbr.id)) continue;
        task.AddVertex(trimmed(nbr.id));
        next.push_back(nbr.id);
      }
    }
    frontier = std::move(next);
  }
  return task;
}

/// For every oracle query: the row matcher's count on each root's task
/// subgraph equals the legacy matcher's on the compact view of the same
/// subgraph, and the serial count equals their sum. Adds each query's sum
/// to (*totals)[query].
void ExpectRowsMatchLegacy(const Graph& g, const std::vector<Label>& labels,
                           std::vector<uint64_t>* totals) {
  const std::vector<QueryGraph> queries = OracleQueries();
  totals->resize(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const QueryGraph& q = queries[qi];
    SCOPED_TRACE(::testing::Message() << "query " << qi);
    uint64_t total = 0;
    for (VertexId root = 0; root < g.NumVertices(); ++root) {
      if (labels[root] != q.labels[0]) continue;
      const auto task = MatchTaskSubgraph(g, labels, q, root);
      const legacy::CompactLabeledGraph cg =
          legacy::CompactFromLabeledSubgraph(task);
      const uint64_t want = legacy::Matcher(cg, q).CountFrom(0);
      ASSERT_EQ(CountMatchesFromRoot(task, q, root), want) << "root " << root;
      total += want;
    }
    EXPECT_EQ(CountMatchesSerial(g, labels, q), total);
    (*totals)[qi] += total;
  }
}

/// The graphs every MatchOracle case runs on, each with its labels: sparse
/// and dense random graphs, a power-law graph whose hubs make the
/// intersections gallop, and that graph renumbered hub-last, as
/// layout.reorder loads it.
std::vector<std::pair<Graph, std::vector<Label>>> OracleGraphs() {
  std::vector<std::pair<Graph, std::vector<Label>>> graphs;
  for (uint64_t seed : {61, 62, 63}) {
    Graph sparse = Generator::ErdosRenyi(60, 200, seed);
    auto sparse_labels =
        Generator::RandomLabels(sparse.NumVertices(), 2, seed + 1);
    graphs.emplace_back(std::move(sparse), std::move(sparse_labels));
    Graph dense = Generator::ErdosRenyi(24, 160, seed + 2);
    auto dense_labels =
        Generator::RandomLabels(dense.NumVertices(), 2, seed + 3);
    graphs.emplace_back(std::move(dense), std::move(dense_labels));
  }
  Graph hubs = Generator::PowerLaw(300, 6.0, 2.1, 64);
  auto hub_labels = Generator::RandomLabels(hubs.NumVertices(), 2, 65);
  const VertexLayout layout = VertexLayout::HubLast(hubs);
  Graph reordered = layout.Apply(hubs);
  auto reordered_labels = layout.ApplyLabels(hub_labels);
  graphs.emplace_back(std::move(hubs), std::move(hub_labels));
  graphs.emplace_back(std::move(reordered), std::move(reordered_labels));
  return graphs;
}

TEST(MatchOracle, RowMatcherEqualsLegacyPerRoot) {
  std::vector<uint64_t> totals;
  const auto graphs = OracleGraphs();
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    SCOPED_TRACE(::testing::Message() << "graph " << gi);
    ExpectRowsMatchLegacy(graphs[gi].first, graphs[gi].second, &totals);
  }
  for (size_t qi = 0; qi < totals.size(); ++qi) {
    EXPECT_GT(totals[qi], 0u) << "query " << qi << " never matched";
  }
}

/// For every oracle query of depth <= 1, and a one-vertex query: per root,
/// the count over the rows the root pulled, as a GM root bundle hands them
/// to Compute (no subgraph), equals the count on the root's task subgraph.
TEST(MatchOracle, PulledRowsEqualSubgraphPerRoot) {
  std::vector<QueryGraph> queries;
  for (const QueryGraph& q : OracleQueries()) {
    if (q.DepthFromRoot() <= 1) queries.push_back(q);
  }
  ASSERT_EQ(queries.size(), 3u);  // triangle, star, K4
  queries.push_back(MakeQuery({1}, {}));
  std::vector<uint64_t> totals(queries.size());
  const auto graphs = OracleGraphs();
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const auto& [g, labels] = graphs[gi];
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const QueryGraph& q = queries[qi];
      SCOPED_TRACE(::testing::Message() << "graph " << gi << " query " << qi);
      for (VertexId root = 0; root < g.NumVertices(); ++root) {
        if (labels[root] != q.labels[0]) continue;
        const auto task = MatchTaskSubgraph(g, labels, q, root);
        // The subgraph holds the root, then its row's vertices in row
        // order: ascending, as a bundle's candidates arrive.
        std::vector<const Vertex<LabeledAdj>*> nbrs;
        for (size_t i = 1; i < task.vertices().size(); ++i) {
          nbrs.push_back(&task.vertices()[i]);
        }
        ASSERT_TRUE(std::is_sorted(
            nbrs.begin(), nbrs.end(),
            [](const auto* a, const auto* b) { return a->id < b->id; }));
        const uint64_t want = CountMatchesFromRoot(task, q, root);
        ASSERT_EQ(CountMatchesFromPulledRows(task.vertices().front(), nbrs, q),
                  want)
            << "root " << root;
        totals[qi] += want;
      }
    }
  }
  for (size_t qi = 0; qi < totals.size(); ++qi) {
    EXPECT_GT(totals[qi], 0u) << "query " << qi << " never matched";
  }
}

TEST_P(MatchSeedTest, OracleQueriesMatchBruteForce) {
  const Graph g = Generator::ErdosRenyi(16, 48, GetParam());
  const auto labels = Generator::RandomLabels(g.NumVertices(), 2, GetParam());
  for (const QueryGraph& q : OracleQueries()) {
    EXPECT_EQ(CountMatchesSerial(g, labels, q), BruteMatches(g, labels, q));
  }
}

TEST(QueryGraph, Properties) {
  const QueryGraph tri = QueryGraph::Triangle(0, 1, 2);
  EXPECT_EQ(tri.NumVertices(), 3);
  EXPECT_TRUE(tri.IsValidPlan());
  EXPECT_EQ(tri.DepthFromRoot(), 1);
  EXPECT_TRUE(tri.UsesLabel(1));
  EXPECT_FALSE(tri.UsesLabel(9));

  const QueryGraph path = QueryGraph::Path3(0, 1, 2);
  EXPECT_EQ(path.DepthFromRoot(), 2);
  EXPECT_TRUE(path.IsValidPlan());

  const QueryGraph star = QueryGraph::Star(5, {6, 7, 8});
  EXPECT_EQ(star.NumVertices(), 4);
  EXPECT_EQ(star.DepthFromRoot(), 1);
  EXPECT_TRUE(star.IsValidPlan());
}

TEST(QueryGraph, InvalidPlanDetected) {
  QueryGraph q;
  q.labels = {0, 1, 2};
  q.adj = {{1}, {0}, {}};  // vertex 2 disconnected from earlier vertices
  EXPECT_FALSE(q.IsValidPlan());
}

// ---------------------------------------------------------------------------
// Quasi-cliques.
// ---------------------------------------------------------------------------

TEST(QuasiClique, IsQuasiCliqueBasics) {
  Graph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 0);
  g.AddEdge(0, 2);
  g.Finalize();
  const CompactGraph cg = CompactFromGraph(g);
  // {0,1,2,3}: degrees 3,2,3,2; γ=0.6 needs >= 1.8 per vertex => OK.
  EXPECT_TRUE(IsQuasiClique(cg, {0, 1, 2, 3}, 0.6));
  // γ=0.9 needs >= 2.7 per vertex => vertices 1,3 fail.
  EXPECT_FALSE(IsQuasiClique(cg, {0, 1, 2, 3}, 0.9));
  // A full triangle is a 1.0-quasi-clique.
  EXPECT_TRUE(IsQuasiClique(cg, {0, 1, 2}, 1.0));
  // Singletons always qualify.
  EXPECT_TRUE(IsQuasiClique(cg, {1}, 1.0));
}

TEST(QuasiClique, CliqueIsAlwaysFound) {
  Graph g;
  for (VertexId i = 0; i < 5; ++i) {
    for (VertexId j = i + 1; j < 5; ++j) g.AddEdge(i, j);
  }
  g.AddEdge(4, 5);  // pendant
  g.Finalize();
  const auto best = LargestQuasiCliqueSerial(g, 0.8, 3);
  EXPECT_EQ(best.size(), 5u);
}

TEST(QuasiClique, FindsDenseNonClique) {
  // K5 minus one edge: every vertex still has >= 0.75*(5-1) = 3 neighbors.
  Graph g;
  for (VertexId i = 0; i < 5; ++i) {
    for (VertexId j = i + 1; j < 5; ++j) {
      if (!(i == 0 && j == 1)) g.AddEdge(i, j);
    }
  }
  g.Finalize();
  const auto best = LargestQuasiCliqueSerial(g, 0.75, 3);
  EXPECT_EQ(best.size(), 5u);
  // At γ=1.0 only the intact K4s qualify.
  const auto strict = LargestQuasiCliqueSerial(g, 1.0, 3);
  EXPECT_EQ(strict.size(), 4u);
}

TEST(QuasiClique, RespectsMinSize) {
  Graph g;
  g.AddEdge(0, 1);
  g.Finalize();
  EXPECT_TRUE(LargestQuasiCliqueSerial(g, 0.5, 3).empty());
  EXPECT_EQ(LargestQuasiCliqueSerial(g, 0.5, 2).size(), 2u);
}

TEST(QuasiClique, VerifiedAgainstDefinitionOnRandomGraphs) {
  for (uint64_t seed : {31, 32, 33}) {
    Graph g = Generator::ErdosRenyi(18, 60, seed);
    const auto best = LargestQuasiCliqueSerial(g, 0.6, 3);
    if (best.empty()) continue;
    const CompactGraph cg = CompactFromGraph(g);
    std::vector<int> s(best.begin(), best.end());
    EXPECT_TRUE(IsQuasiClique(cg, s, 0.6));
    EXPECT_GE(best.size(), 3u);
  }
}

// ---------------------------------------------------------------------------
// Intersection toolkit: every variant against std::set_intersection.
// ---------------------------------------------------------------------------

std::vector<VertexId> RandomSortedList(Random* rng, size_t len,
                                       VertexId domain) {
  std::vector<VertexId> out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<VertexId>(rng->Uniform(domain)));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TEST(IntersectVariants, AllAgreeWithStdSetIntersection) {
  Random rng(4242);
  for (int iter = 0; iter < 300; ++iter) {
    // Mix balanced and heavily skewed length pairs so both the merge and
    // the gallop branch of IntersectAdaptive are exercised.
    const size_t la = 1 + rng.Uniform(40);
    const size_t lb =
        rng.Bernoulli(0.5) ? 1 + rng.Uniform(40) : 64 + rng.Uniform(2000);
    const VertexId domain = 1 + static_cast<VertexId>(rng.Uniform(4000));
    const auto a = RandomSortedList(&rng, la, domain);
    const auto b = RandomSortedList(&rng, lb, domain);

    std::vector<VertexId> expect;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expect));

    EXPECT_EQ(simd::IntersectCountMerge(a.data(), a.size(), b.data(),
                                        b.size()),
              expect.size());
    const auto& shorter = a.size() <= b.size() ? a : b;
    const auto& longer = a.size() <= b.size() ? b : a;
    EXPECT_EQ(simd::IntersectCountGallop(shorter.data(), shorter.size(),
                                         longer.data(), longer.size()),
              expect.size());
    EXPECT_EQ(simd::IntersectAdaptive(a, b), expect.size());

    std::vector<VertexId> materialized;
    simd::IntersectAdaptiveInto(a.data(), a.size(), b.data(), b.size(),
                                &materialized);
    EXPECT_EQ(materialized, expect);

    if (!b.empty()) {
      simd::HitBits<VertexId> bits(b.data(), b.size());
      EXPECT_EQ(bits.CountHits(a), expect.size());
    }
    EXPECT_EQ(simd::AnyCommonSorted(a.data(), a.size(), b.data(), b.size()),
              !expect.empty());
  }
}

TEST(IntersectVariants, EmptyAndDisjointEdgeCases) {
  const std::vector<VertexId> empty, some = {1, 5, 9};
  EXPECT_EQ(simd::IntersectAdaptive(empty, some), 0u);
  EXPECT_EQ(simd::IntersectAdaptive(some, empty), 0u);
  EXPECT_EQ(simd::IntersectAdaptive(some, some), 3u);
  EXPECT_FALSE(
      simd::AnyCommonSorted(empty.data(), 0, some.data(), some.size()));
}

// ---------------------------------------------------------------------------
// Differential tests: bitset kernels vs. the CSR sorted-list path. The
// dense/sparse switch is process-global, so each run flips it and restores.
// ---------------------------------------------------------------------------

class ThresholdGuard {
 public:
  explicit ThresholdGuard(int n) : saved_(KernelBitsetMaxVertices()) {
    SetKernelBitsetMaxVertices(n);
  }
  ~ThresholdGuard() { SetKernelBitsetMaxVertices(saved_); }

 private:
  const int saved_;
};

struct DiffCase {
  uint64_t seed;
  VertexId n;
  uint64_t edges;
};

// Densities from far-sparse to near-complete on both small and mid-size
// graphs, so the bitset rows see mostly-zero and mostly-one words alike.
class KernelDiffTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(KernelDiffTest, BothPathsProduceIdenticalResults) {
  const DiffCase c = GetParam();
  Graph g = Generator::ErdosRenyi(c.n, c.edges, c.seed);
  // Quasi-clique set-enumeration blows up combinatorially with size and
  // density (the pre-CSR suite capped it at n=18), so only the small sparse
  // cases exercise it; the tight gamma keeps the candidate pruning
  // effective.
  const bool run_quasi = c.n <= 24 && c.edges <= 90;

  size_t clique_sorted;
  std::vector<VertexId> clique_sorted_members;
  uint64_t maximal_sorted, k3_sorted, k4_sorted;
  std::vector<VertexId> quasi_sorted;
  {
    ThresholdGuard off(0);  // force the CSR sorted-list path
    clique_sorted_members = MaxCliqueSerial(g);
    clique_sorted = clique_sorted_members.size();
    maximal_sorted = CountMaximalCliquesSerial(g);
    k3_sorted = CountKCliquesSerial(g, 3);
    k4_sorted = CountKCliquesSerial(g, 4);
    if (run_quasi) quasi_sorted = LargestQuasiCliqueSerial(g, 0.8, 3);
  }

  ThresholdGuard on(1 << 20);  // force the bitset path
  const std::vector<VertexId> clique_bits = MaxCliqueSerial(g);
  EXPECT_EQ(clique_bits.size(), clique_sorted);
  EXPECT_TRUE(IsCliqueSet(g, clique_bits));
  EXPECT_TRUE(IsCliqueSet(g, clique_sorted_members));
  EXPECT_EQ(CountMaximalCliquesSerial(g), maximal_sorted);
  EXPECT_EQ(CountKCliquesSerial(g, 3), k3_sorted);
  EXPECT_EQ(k3_sorted, CountTrianglesSerial(g));  // k=3 cross-check
  EXPECT_EQ(CountKCliquesSerial(g, 4), k4_sorted);
  if (run_quasi) {
    const std::vector<VertexId> quasi_bits =
        LargestQuasiCliqueSerial(g, 0.8, 3);
    EXPECT_EQ(quasi_bits.size(), quasi_sorted.size());
    if (!quasi_bits.empty()) {
      const CompactGraph cg = CompactFromGraph(g);
      EXPECT_TRUE(IsQuasiClique(
          cg, std::vector<int>(quasi_bits.begin(), quasi_bits.end()), 0.8));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Densities, KernelDiffTest,
    ::testing::Values(DiffCase{41, 24, 30},    // sparse
                      DiffCase{42, 24, 90},    // medium
                      DiffCase{43, 24, 200},   // dense
                      DiffCase{44, 24, 270},   // near-complete (max 276)
                      DiffCase{45, 60, 150},   // sparse, crosses word size
                      DiffCase{46, 60, 600},   // medium
                      DiffCase{47, 60, 1300},  // dense
                      DiffCase{48, 130, 900},  // 3 words per row
                      DiffCase{49, 130, 3000}));

TEST(KernelDiff, ThresholdBoundaryIsExact) {
  // A graph with exactly n vertices runs bitset at threshold n and falls
  // back at n-1; both must agree (and with the unlimited default).
  Graph g = Generator::ErdosRenyi(48, 400, 50);
  const int n = static_cast<int>(g.NumVertices());
  size_t at, below;
  uint64_t maximal_at, maximal_below, k3_at, k3_below;
  {
    ThresholdGuard guard(n);  // n <= threshold: bitset path runs
    at = MaxCliqueSerial(g).size();
    maximal_at = CountMaximalCliquesSerial(g);
    k3_at = CountKCliquesSerial(g, 3);
  }
  {
    ThresholdGuard guard(n - 1);  // n > threshold: sorted fallback
    below = MaxCliqueSerial(g).size();
    maximal_below = CountMaximalCliquesSerial(g);
    k3_below = CountKCliquesSerial(g, 3);
  }
  EXPECT_EQ(at, below);
  EXPECT_EQ(maximal_at, maximal_below);
  EXPECT_EQ(k3_at, k3_below);
  EXPECT_EQ(at, MaxCliqueSerial(g).size());  // default threshold agrees too
}

TEST(KernelDiff, SetterClampsNegativeToZero) {
  ThresholdGuard guard(KernelBitsetMaxVertices());
  SetKernelBitsetMaxVertices(-5);
  EXPECT_EQ(KernelBitsetMaxVertices(), 0);
  SetKernelBitsetMaxVertices(2048);
  EXPECT_EQ(KernelBitsetMaxVertices(), 2048);
}

}  // namespace
}  // namespace gthinker
