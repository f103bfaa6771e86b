// Cache-topology layout tests: the hub-last renumbering is a bijection that
// preserves the degree multiset and sorts degrees ascending (the counting
// sort reproduces the comparator order exactly); the rows a job installs
// equal VertexLayout::Apply's, in-process and per TCP rank; reordered runs
// of the mining apps are differentially identical to unreordered ones (counts
// and clique sizes, with the ledger conserved), including under aggressive
// splitting and across a 2-process TCP RunDistributed; DFS inputs run in
// their own IDs at the default config; results that carry vertex IDs come
// back in ORIGINAL ids; and the layout knob obeys its Validate rules.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/kclique_app.h"
#include "apps/kernels.h"
#include "apps/maxclique_app.h"
#include "apps/maximalclique_app.h"
#include "apps/triangle_app.h"
#include "core/cluster.h"
#include "graph/generator.h"
#include "graph/layout.h"
#include "storage/mini_dfs.h"
#include "storage/partitioned_graph.h"

#if defined(__linux__)
#include "free_ports.h"
#endif

namespace gthinker {
namespace {

// ---------------------------------------------------------------------------
// Renumbering round-trip: bijection, degree preservation, hub-last order.
// ---------------------------------------------------------------------------

TEST(VertexLayoutTest, HubLastIsDegreeSortedBijection) {
  const Graph graphs[] = {
      Generator::HubSkewed(3000, 12, 400, 2.5, 11),
      Generator::PowerLaw(2500, 9.0, 2.3, 12),
      Generator::ErdosRenyi(500, 3000, 13),
  };
  for (const Graph& g : graphs) {
    const VertexId n = g.NumVertices();
    const VertexLayout layout = VertexLayout::HubLast(g);
    ASSERT_EQ(layout.NumVertices(), n);
    EXPECT_FALSE(layout.empty());

    // Bijection: ToOld inverts ToNew and every new ID is hit exactly once.
    std::vector<bool> seen(n, false);
    for (VertexId v = 0; v < n; ++v) {
      const VertexId nv = layout.ToNew(v);
      ASSERT_LT(nv, n);
      EXPECT_EQ(layout.ToOld(nv), v);
      EXPECT_FALSE(seen[nv]);
      seen[nv] = true;
    }

    // Apply preserves each vertex's degree (row moves, content relabels),
    // and its scatter leaves every row strictly increasing.
    const Graph r = g.NumVertices() > 0 ? layout.Apply(g) : Graph();
    ASSERT_EQ(r.NumVertices(), n);
    ASSERT_EQ(r.NumEdges(), g.NumEdges());
    for (VertexId v = 0; v < n; ++v) {
      EXPECT_EQ(r.Degree(layout.ToNew(v)), g.Degree(v)) << "v=" << v;
      const AdjList& row = r.Neighbors(v);
      EXPECT_TRUE(std::adjacent_find(row.begin(), row.end(),
                                     std::greater_equal<VertexId>()) ==
                  row.end())
          << "row " << v << " not strictly increasing";
    }

    // Hub-last: degrees are non-decreasing in the new numbering (hubs at the
    // highest IDs — the degeneracy orientation under the Γ_> trim), and ties
    // keep the original-ID order (determinism across ranks depends on this).
    for (VertexId nv = 1; nv < n; ++nv) {
      const VertexId a = layout.ToOld(nv - 1);
      const VertexId b = layout.ToOld(nv);
      EXPECT_TRUE(g.Degree(a) < g.Degree(b) ||
                  (g.Degree(a) == g.Degree(b) && a < b))
          << "new ids " << nv - 1 << "," << nv;
    }

    // Adjacency is relabeled consistently: edge (u,v) iff edge (new u, new v).
    for (VertexId v = 0; v < n; ++v) {
      for (VertexId u : g.Neighbors(v)) {
        const auto row = r.Neighbors(layout.ToNew(v));
        EXPECT_TRUE(std::binary_search(row.begin(), row.end(),
                                       layout.ToNew(u)))
            << "edge " << v << "-" << u << " lost";
      }
    }
  }
}

// The counting sort must reproduce the comparator order it replaced
// (degree ascending, ties by original ID) exactly, or a TCP rank built from
// another revision would disagree on placement. Sparse random graphs have a
// handful of distinct degrees, so almost every vertex sits in a tie.
TEST(VertexLayoutTest, CountingSortHubLastEqualsComparatorOrder) {
  const Graph graphs[] = {
      Generator::ErdosRenyi(2000, 3000, 31),
      Generator::ErdosRenyi(700, 700, 32),
      Generator::Rmat(11, 9000, 33),
      Generator::HubSkewed(1500, 6, 200, 2.5, 34),
      Graph(40),  // all isolated: one degree class
      Graph(),
  };
  for (const Graph& g : graphs) {
    const VertexId n = g.NumVertices();
    std::vector<VertexId> expected(n);
    for (VertexId v = 0; v < n; ++v) expected[v] = v;
    std::sort(expected.begin(), expected.end(), [&g](VertexId a, VertexId b) {
      const size_t da = g.Degree(a), db = g.Degree(b);
      return da != db ? da < db : a < b;
    });
    const VertexLayout layout = VertexLayout::HubLast(g);
    ASSERT_EQ(layout.NumVertices(), n);
    for (VertexId x = 0; x < n; ++x) {
      ASSERT_EQ(layout.ToOld(x), expected[x]) << "new id " << x;
      ASSERT_EQ(layout.ToNew(expected[x]), x);
    }
  }
}

TEST(VertexLayoutTest, IdentityIsNoOp) {
  const VertexLayout id = VertexLayout::Identity(64);
  EXPECT_FALSE(id.empty());
  for (VertexId v = 0; v < 64; ++v) {
    EXPECT_EQ(id.ToNew(v), v);
    EXPECT_EQ(id.ToOld(v), v);
  }
}

TEST(VertexLayoutTest, ApplyLabelsFollowsThePermutation) {
  Graph g = Generator::PowerLaw(300, 6.0, 2.4, 21);
  const std::vector<Label> labels = Generator::RandomLabels(300, 5, 22);
  const VertexLayout layout = VertexLayout::HubLast(g);
  const std::vector<Label> relabeled = layout.ApplyLabels(labels);
  ASSERT_EQ(relabeled.size(), labels.size());
  for (VertexId v = 0; v < 300; ++v) {
    EXPECT_EQ(relabeled[layout.ToNew(v)], labels[v]);
  }
}

// ---------------------------------------------------------------------------
// Config validation.
// ---------------------------------------------------------------------------

// The layout section has one knob, a bool: reorder on validates, and it
// does not mask a bad knob elsewhere in the config.
TEST(LayoutConfig, ValidationRejectsBadKnobs) {
  JobConfig config;
  config.layout.reorder = true;
  EXPECT_TRUE(config.Validate().ok());
  config.cache_num_buckets = 0;
  EXPECT_FALSE(config.Validate().ok());
}

// ---------------------------------------------------------------------------
// Differential: every app must produce identical answers with reorder on.
// ---------------------------------------------------------------------------

// A 1 µs compute budget: every task mining more than one top-level
// candidate overruns it, so a budgeted app's run always splits.
constexpr int64_t kSplitBudgetUs = 1;

template <typename ComperT>
Job<ComperT> CountJob(Graph* g, std::function<std::unique_ptr<ComperT>()> make,
                      bool reorder) {
  Job<ComperT> job;
  job.config.num_workers = 3;
  job.config.compers_per_worker = 2;
  job.config.layout.reorder = reorder;
  job.graph = g;
  job.comper_factory = std::move(make);
  return job;
}

TEST(LayoutDifferential, TriangleCountBitIdentical) {
  for (uint64_t seed : {41, 42}) {
    Graph g = Generator::HubSkewed(800, 10, 120, 2.5, seed);
    auto base = CountJob<TriangleComper>(
        &g, [] { return std::make_unique<TriangleComper>(); },
        /*reorder=*/false);
    base.trimmer = TrimToGreater;
    auto on = CountJob<TriangleComper>(
        &g, [] { return std::make_unique<TriangleComper>(); },
        /*reorder=*/true);
    on.trimmer = TrimToGreater;
    auto base_run = Cluster<TriangleComper>::Run(base);
    auto on_run = Cluster<TriangleComper>::Run(on);
    EXPECT_EQ(on_run.result, base_run.result) << "seed=" << seed;
    EXPECT_EQ(on_run.stats.tasks_lost, 0);
    EXPECT_EQ(on_run.stats.tasks_live_at_exit, 0);
  }
}

TEST(LayoutDifferential, MaximalCliqueCountBitIdenticalIncludingSplits) {
  Graph g = Generator::PowerLaw(300, 10.0, 2.3, 43);
  auto base = Cluster<MaximalCliqueComper>::Run(CountJob<MaximalCliqueComper>(
      &g, [] { return std::make_unique<MaximalCliqueComper>(); },
      /*reorder=*/false));
  for (bool split : {false, true}) {
    const int64_t budget_us = split ? kSplitBudgetUs : 0;
    auto on = Cluster<MaximalCliqueComper>::Run(CountJob<MaximalCliqueComper>(
        &g,
        [budget_us] {
          return std::make_unique<MaximalCliqueComper>(budget_us);
        },
        /*reorder=*/true));
    EXPECT_EQ(on.result, base.result) << "split=" << split;
    EXPECT_EQ(on.stats.tasks_lost, 0) << "split=" << split;
    EXPECT_EQ(on.stats.tasks_live_at_exit, 0) << "split=" << split;
    EXPECT_EQ(on.stats.ledger.spawned + on.stats.ledger.restored,
              on.stats.ledger.finished)
        << "split=" << split;
    // The budgeted run added range children on top of the one-per-root set.
    if (split) {
      EXPECT_GT(on.stats.tasks_spawned, base.stats.tasks_spawned);
    }
  }
}

TEST(LayoutDifferential, KCliqueCountBitIdentical) {
  Graph g = Generator::PowerLaw(260, 11.0, 2.3, 44);
  for (int k : {3, 4}) {
    const uint64_t truth = CountKCliquesSerial(g, k);
    auto job = CountJob<KCliqueComper>(
        &g, [k] { return std::make_unique<KCliqueComper>(k, kSplitBudgetUs); },
        /*reorder=*/true);
    job.trimmer = TrimToGreater;
    auto on = Cluster<KCliqueComper>::Run(job);
    EXPECT_EQ(on.result, truth) << "k=" << k;
  }
}

// A result that *carries vertex IDs* must come back in original IDs: the
// reported vertices must form a clique of the reference size in the
// UNREORDERED graph (under reorder a different-but-equal-size max clique may
// win, so membership is checked against the original adjacency, not against
// the baseline's member set).
TEST(LayoutDifferential, MaxCliqueResultSpeaksOriginalIds) {
  Graph g = Generator::ErdosRenyi(120, 2400, 45);
  Job<MaxCliqueComper> base;
  base.config.num_workers = 2;
  base.config.compers_per_worker = 2;
  base.graph = &g;
  base.comper_factory = [] { return std::make_unique<MaxCliqueComper>(400); };
  base.trimmer = TrimToGreater;
  auto base_run = Cluster<MaxCliqueComper>::Run(base);

  Job<MaxCliqueComper> on = base;
  on.config.layout.reorder = true;
  auto on_run = Cluster<MaxCliqueComper>::Run(on);

  ASSERT_EQ(on_run.result.size(), base_run.result.size());
  for (size_t i = 0; i < on_run.result.size(); ++i) {
    ASSERT_LT(on_run.result[i], g.NumVertices());
    for (size_t j = i + 1; j < on_run.result.size(); ++j) {
      const auto row = g.Neighbors(on_run.result[i]);
      EXPECT_TRUE(std::binary_search(row.begin(), row.end(),
                                     on_run.result[j]))
          << "reported members " << on_run.result[i] << ","
          << on_run.result[j] << " not adjacent in the original graph";
    }
  }
}

// ---------------------------------------------------------------------------
// The rows LoadInput installs are exactly layout.Apply(g)'s rows (and, for
// LabeledAdj, its labels read through the original IDs): each spawned vertex
// checks its own value against the reference and aggregates 1 on a match,
// so the job's result is the number of vertices that loaded correctly.
// ---------------------------------------------------------------------------

struct LoadedRows {
  Graph graph;                // layout.Apply(g)
  std::vector<Label> labels;  // layout.ApplyLabels(labels); empty: unlabeled
};

bool RowMatches(const Vertex<AdjList>& v, const LoadedRows& ref) {
  return v.value == ref.graph.Neighbors(v.id);
}
bool RowMatches(const Vertex<LabeledAdj>& v, const LoadedRows& ref) {
  const AdjList& row = ref.graph.Neighbors(v.id);
  if (v.value.label != ref.labels[v.id] || v.value.adj.size() != row.size()) {
    return false;
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!(v.value.adj[i] == LabeledNbr{row[i], ref.labels[row[i]]})) {
      return false;
    }
  }
  return true;
}

template <typename ValueT>
class RowCheckComper : public Comper<Task<ValueT, VertexId>, uint64_t> {
 public:
  using VertexT = Vertex<ValueT>;
  using TaskT = Task<ValueT, VertexId>;
  using Frontier = typename Comper<TaskT, uint64_t>::Frontier;

  explicit RowCheckComper(const LoadedRows* ref) : ref_(ref) {}
  void TaskSpawn(const VertexT& v) override {
    this->Aggregate(RowMatches(v, *ref_) ? 1 : 0);
  }
  bool Compute(TaskT*, const Frontier&) override { return false; }

  static uint64_t AggZero() { return 0; }
  static uint64_t AggMerge(uint64_t a, uint64_t b) { return a + b; }

 private:
  const LoadedRows* ref_;
};

template <typename ValueT>
Job<RowCheckComper<ValueT>> RowCheckJob(const Graph& g,
                                        const std::vector<Label>* labels,
                                        const LoadedRows* ref) {
  Job<RowCheckComper<ValueT>> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 1;
  job.config.time_budget_s = 120.0;  // a hung rank must not hang the test
  job.graph = &g;
  job.labels = labels;
  job.comper_factory = [ref] {
    return std::make_unique<RowCheckComper<ValueT>>(ref);
  };
  return job;
}

TEST(LayoutLoad, InstalledRowsEqualApplyInProcess) {
  const Graph g = Generator::HubSkewed(900, 8, 150, 2.5, 36);
  const std::vector<Label> labels = Generator::RandomLabels(900, 4, 37);
  const VertexLayout layout = VertexLayout::HubLast(g);
  const LoadedRows ref{layout.Apply(g), layout.ApplyLabels(labels)};
  EXPECT_EQ(Cluster<RowCheckComper<AdjList>>::Run(
                RowCheckJob<AdjList>(g, nullptr, &ref))
                .result,
            g.NumVertices());
  EXPECT_EQ(Cluster<RowCheckComper<LabeledAdj>>::Run(
                RowCheckJob<LabeledAdj>(g, &labels, &ref))
                .result,
            g.NumVertices());
}

// ---------------------------------------------------------------------------
// DFS inputs carry their own IDs: at the default config (layout on) a DFS
// job loads the part files as written, plain or pre-laid-out hub-last, and
// counts the same as the in-memory job.
// ---------------------------------------------------------------------------

TEST(LayoutDfs, DefaultConfigDfsJobMatchesInMemory) {
  const Graph g = Generator::HubSkewed(700, 8, 100, 2.5, 38);
  const std::string dir = MakeTempDir("layout_dfs");
  MiniDfs dfs(dir);
  ASSERT_TRUE(WritePartitionedAdjacency(g, &dfs, "plain", 3).ok());
  ASSERT_TRUE(WritePartitionedAdjacency(g, &dfs, "hublast", 3,
                                        VertexLayout::HubLast(g))
                  .ok());
  Job<TriangleComper> job;  // default config: layout.reorder on
  job.config.num_workers = 3;
  job.config.compers_per_worker = 2;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
  job.trimmer = TrimToGreater;
  const uint64_t in_memory = Cluster<TriangleComper>::Run(job).result;
  EXPECT_EQ(in_memory, CountTrianglesSerial(g));
  for (const char* input : {"plain", "hublast"}) {
    job.graph = nullptr;
    job.dfs = &dfs;
    job.dfs_graph_dir = input;
    EXPECT_EQ(Cluster<TriangleComper>::Run(job).result, in_memory) << input;
  }
  RemoveTree(dir);
}

// ---------------------------------------------------------------------------
// TCP 2-process differential: rank 1 in a forked child, rank 0 in-process;
// the distributed reordered count must equal the plain in-process count.
// Fork happens between tests when no threads are live, so this is safe under
// TSan as well.
// ---------------------------------------------------------------------------

#if defined(__linux__)

TEST(LayoutDistributed, TcpTwoProcessReorderMatchesInProcess) {
  Graph g = Generator::HubSkewed(600, 8, 90, 2.5, 51);

  JobConfig config;
  config.num_workers = 2;
  config.compers_per_worker = 2;
  config.layout.reorder = true;
  config.time_budget_s = 120.0;  // a hung rank must not hang the test

  const auto make_job = [&g](const JobConfig& c) {
    Job<TriangleComper> job;
    job.config = c;
    job.graph = &g;
    job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
    job.trimmer = TrimToGreater;
    return job;
  };

  // Plain in-process reference (reorder off): the ground truth.
  JobConfig plain = config;
  plain.layout.reorder = false;
  const uint64_t expected =
      Cluster<TriangleComper>::Run(make_job(plain)).result;

  const std::string dir = MakeTempDir("layout_tcp");
  const std::string hostfile_path = dir + "/hosts";
  {
    std::ofstream out(hostfile_path);
    for (int port : PickFreePorts(2)) out << "127.0.0.1:" << port << "\n";
  }
  JobConfig dist = config;
  dist.comm.transport = CommConfig::Transport::kTcp;
  dist.comm.hostfile = hostfile_path;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Rank 1: run to completion and exit without unwinding gtest state.
    Cluster<TriangleComper>::RunDistributed(make_job(dist), 1);
    ::_exit(0);
  }
  const uint64_t got =
      Cluster<TriangleComper>::RunDistributed(make_job(dist), 0).result;
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(got, expected);
  RemoveTree(dir);
}

// One TCP rank installs only its hash-owned slice, through the same scatter:
// the rows both ranks install (rank 1 in a forked child) must equal Apply's.
template <typename ValueT>
void ExpectTcpSlicesEqualApply(const Graph& g,
                               const std::vector<Label>* labels,
                               const LoadedRows& ref) {
  const std::string dir = MakeTempDir("layout_rows_tcp");
  auto job = RowCheckJob<ValueT>(g, labels, &ref);
  job.config.comm.transport = CommConfig::Transport::kTcp;
  job.config.comm.hostfile = dir + "/hosts";
  {
    std::ofstream out(job.config.comm.hostfile);
    for (int port : PickFreePorts(2)) out << "127.0.0.1:" << port << "\n";
  }
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    Cluster<RowCheckComper<ValueT>>::RunDistributed(job, 1);
    ::_exit(0);
  }
  const uint64_t matched =
      Cluster<RowCheckComper<ValueT>>::RunDistributed(job, 0).result;
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(matched, g.NumVertices());
  RemoveTree(dir);
}

TEST(LayoutLoad, InstalledRowsEqualApplyPerTcpRank) {
  const Graph g = Generator::HubSkewed(600, 6, 90, 2.5, 39);
  const std::vector<Label> labels = Generator::RandomLabels(600, 4, 40);
  const VertexLayout layout = VertexLayout::HubLast(g);
  const LoadedRows ref{layout.Apply(g), layout.ApplyLabels(labels)};
  ExpectTcpSlicesEqualApply<AdjList>(g, nullptr, ref);
  ExpectTcpSlicesEqualApply<LabeledAdj>(g, &labels, ref);
}

#endif  // __linux__

}  // namespace
}  // namespace gthinker
