#ifndef GTHINKER_APPS_KERNELS_H_
#define GTHINKER_APPS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/subgraph.h"
#include "core/vertex.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace gthinker {

/// Borrowed view of one CSR adjacency row: a pointer range over the flat
/// neighbor array, sorted ascending.
struct NbrSpan {
  const int32_t* ptr = nullptr;
  int len = 0;

  const int32_t* begin() const { return ptr; }
  const int32_t* end() const { return ptr + len; }
  int size() const { return len; }
  bool empty() const { return len == 0; }
  int32_t operator[](int i) const { return ptr[i]; }
};

/// Compact (index-renumbered) view of a task's subgraph, the input to the
/// serial mining kernels below. `ids[i]` is the original vertex ID of compact
/// index i. Adjacency is flat CSR: row i is `nbrs[offsets[i]..offsets[i+1])`,
/// sorted ascending — one contiguous array instead of a vector-of-vectors,
/// so neighborhood scans are sequential loads and degree is O(1).
struct CompactGraph {
  std::vector<VertexId> ids;
  std::vector<uint32_t> offsets;  // NumVertices()+1 entries; offsets[0] == 0
  std::vector<int32_t> nbrs;      // concatenated sorted rows

  int NumVertices() const { return static_cast<int>(ids.size()); }
  int Degree(int v) const {
    return static_cast<int>(offsets[v + 1] - offsets[v]);
  }
  NbrSpan Neigh(int v) const {
    return {nbrs.data() + offsets[v], Degree(v)};
  }
  /// Binary search on the shorter of the two rows.
  bool HasEdge(int a, int b) const;
};

/// Builds the compact view of a Subgraph whose vertex values are adjacency
/// lists; adjacency entries pointing outside the subgraph are dropped and
/// an edge listed by either endpoint appears in both rows. Compact index i
/// is the i-th vertex in insertion order.
///
/// Precondition: every adjacency list is sorted ascending and duplicate-
/// free (the Graph invariant; every shipped trimmer and ext(S) filter
/// preserves it). Rows are intersected against the sorted member IDs, so an
/// unsorted row silently loses edges.
CompactGraph CompactFromSubgraph(const Subgraph<Vertex<AdjList>>& g);

/// The same compact view built straight from pulled rows, e.g. a Compute
/// frontier: compact index i is rows[i]. Same precondition as
/// CompactFromSubgraph, plus distinct IDs; rows in a subgraph's insertion
/// order give a byte-identical CSR.
CompactGraph CompactFromRows(const std::vector<const Vertex<AdjList>*>& rows);

/// Builds a compact view of the whole input graph (serial baselines, tests).
CompactGraph CompactFromGraph(const Graph& g);

// ---------------------------------------------------------------------------
// Dense/sparse kernel switch.
//
// The branch-and-bound kernels (max clique, Bron–Kerbosch, k-clique and the
// quasi-clique searcher) run in bitset row form — adjacency as an n×n
// BitMatrix, candidate sets as words — when the compact graph has at most
// KernelBitsetMaxVertices() vertices. Above the threshold they fall back to
// the CSR sorted-list path, which computes identical results. The threshold
// caps the O(n²/8)-byte matrix a task may allocate.
// ---------------------------------------------------------------------------

/// Current threshold (process-global; default 2048 ≈ a 512 KB matrix).
int KernelBitsetMaxVertices();

/// Sets the threshold; 0 disables the bitset kernels entirely. Values < 0
/// clamp to 0. A test and bench hook: it forces one kernel path so the two
/// can be compared; jobs never change it.
void SetKernelBitsetMaxVertices(int n);

// ---------------------------------------------------------------------------
// Maximum clique (paper ref [31]): branch and bound with greedy-coloring
// upper bounds, the serial algorithm MCF tasks run on their subgraphs.
// Small/dense inputs run the BBMC bitset form (word-parallel coloring and
// candidate refinement); larger ones the CSR sorted-list form.
// ---------------------------------------------------------------------------

/// Returns the vertex IDs of a clique in `g` strictly larger than
/// `lower_bound` vertices, or empty if none exists. When several maximum
/// cliques exist, which one is returned is deterministic for a given input.
std::vector<VertexId> MaxCliqueInCompact(const CompactGraph& g,
                                         size_t lower_bound);

/// Convenience: exact maximum clique of a whole graph (single-threaded
/// ground truth for tests).
std::vector<VertexId> MaxCliqueSerial(const Graph& g);

// ---------------------------------------------------------------------------
// Maximal clique enumeration (Bron–Kerbosch with pivoting).
// ---------------------------------------------------------------------------

/// Counts the maximal cliques of `g` that contain compact vertex `root` with
/// root as their minimum-ID member, so that summing over every root counts
/// each maximal clique exactly once. Maximality is global as long as `g`
/// contains root's full closed neighborhood: BK's X set is seeded with
/// root's smaller-ID neighbors.
uint64_t CountMaximalCliquesFromRoot(const CompactGraph& g, int root);

/// Serial whole-graph ground truth.
uint64_t CountMaximalCliquesSerial(const Graph& g);

// ---------------------------------------------------------------------------
// Range + yield kernel variants (big-task decomposition).
//
// Each mining kernel's top level iterates a stable candidate order — root's
// larger-original-ID neighbors (cliques) or all larger-ID vertices
// (quasi-cliques), ascending by original vertex ID. The *Range variants
// process only candidate positions [begin, end) of that order, so a task can
// be partitioned into shards whose results sum (counts) or max (sizes) to
// the unsharded answer, bit-identically for the integer counters. Between
// top-level candidates they poll `yield` (nullable): when it returns true
// the kernel stops early, stores the first unprocessed position in *next
// (== end when the range completed) and returns the partial result. At
// least one candidate is processed per call, so budgeted re-entry always
// terminates.
// ---------------------------------------------------------------------------

/// Number of neighbors of `root` with larger original ID: the top-level
/// candidate-space size of the clique range kernels below.
uint64_t LargerIdNeighbors(const CompactGraph& g, int root);

/// Number of vertices of `g` (excluding root) with larger original ID: the
/// candidate-space size of LargestQuasiCliqueFromRootRange.
uint64_t LargerIdVertices(const CompactGraph& g, int root);

/// CountMaximalCliquesFromRoot restricted to top-level branches
/// [begin, end). Summing over a partition of [0, LargerIdNeighbors(g, root))
/// reproduces the unsharded count exactly (the top level runs pivot-free,
/// which partitions the maximal cliques by their second member).
uint64_t CountMaximalCliquesFromRootRange(const CompactGraph& g, int root,
                                          uint64_t begin, uint64_t end,
                                          const std::function<bool()>& yield,
                                          uint64_t* next);

/// Counts the k-cliques of `g` that contain compact vertex `root` with root
/// as their minimum-original-ID member, restricted to the branches whose
/// smallest non-root member sits at position [begin, end) of the candidate
/// order. Full range == the task's share of the global k-clique count.
uint64_t CountCliquesFromRootRange(const CompactGraph& g, int root, int k,
                                   uint64_t begin, uint64_t end,
                                   const std::function<bool()>& yield,
                                   uint64_t* next);

/// LargestQuasiCliqueFromRoot restricted to branches whose first chosen
/// member sits at position [begin, end) of the candidate order, reporting
/// only results strictly larger than `lower_bound` vertices (seed it with
/// the best size found so far to prune). The max size over a partition of
/// the full range equals the unsharded result's size.
std::vector<VertexId> LargestQuasiCliqueFromRootRange(
    const CompactGraph& g, int root, double gamma, size_t min_size,
    size_t lower_bound, uint64_t begin, uint64_t end,
    const std::function<bool()>& yield, uint64_t* next);

// ---------------------------------------------------------------------------
// k-clique counting (kClist-style recursion over the Γ_> DAG).
// ---------------------------------------------------------------------------

/// Counts the cliques with exactly k vertices inside `g` (every vertex of g
/// may participate; orientation comes from compact index order, so pass a
/// graph whose index order matches the global ID order — CompactFromSubgraph
/// and CompactFromGraph both do).
uint64_t CountCliquesOfSize(const CompactGraph& g, int k);

/// Serial whole-graph ground truth: number of k-cliques in g.
uint64_t CountKCliquesSerial(const Graph& g, int k);

// ---------------------------------------------------------------------------
// Triangle counting.
// ---------------------------------------------------------------------------

/// Forward algorithm over Γ_>: Σ_v Σ_{u∈Γ_>(v)} |Γ_>(v) ∩ Γ_>(u)|.
uint64_t CountTrianglesSerial(const Graph& g);

// ---------------------------------------------------------------------------
// Subgraph matching.
// ---------------------------------------------------------------------------

/// A small connected labeled query pattern. Vertex 0 is the matching root;
/// every vertex i > 0 must be adjacent to at least one vertex j < i (so the
/// left-to-right backtracking plan is connected).
struct QueryGraph {
  std::vector<Label> labels;
  std::vector<std::vector<int>> adj;

  int NumVertices() const { return static_cast<int>(labels.size()); }
  bool HasEdge(int a, int b) const;
  /// BFS depth from vertex 0 (how many pull rounds a task needs).
  int DepthFromRoot() const;
  /// True if `label` occurs in the query (Trimmer predicate).
  bool UsesLabel(Label label) const;
  /// Checks the plan-connectivity requirement above.
  bool IsValidPlan() const;

  // Common patterns used by the examples/benches.
  static QueryGraph Triangle(Label a, Label b, Label c);
  static QueryGraph Path3(Label a, Label b, Label c);
  static QueryGraph Star(Label center, const std::vector<Label>& leaves);
};

/// Counts injective label- and edge-preserving mappings of `q` into the
/// task subgraph `g` with query vertex 0 mapped to member `root` and every
/// image a member. (Embeddings are counted per mapping; query automorphisms
/// are not quotiented out — every engine in this repo counts the same way.)
/// Multi-hop GM tasks and the G-Miner baseline count with it.
///
/// Reads the members' rows directly (no compact view), so an edge counts
/// only where a mapped endpoint's row names it. Precondition: every `adj`
/// is sorted ascending by ID and duplicate-free, and an edge between two
/// members is listed by both rows or by neither (MatchComper::TrimByQuery
/// keeps both). Rows may name non-members.
uint64_t CountMatchesFromRoot(const Subgraph<Vertex<LabeledAdj>>& g,
                              const QueryGraph& q, VertexId root);

/// CountMatchesFromRoot over the rows a root pulled, with no subgraph: the
/// members are `root` and `nbrs`, which must ascend by ID (a root bundle's
/// candidates, in the order of root's row). Only for q.DepthFromRoot() <= 1,
/// where every image is root or a neighbor of it. Same count, same
/// preconditions on the rows.
uint64_t CountMatchesFromPulledRows(
    const Vertex<LabeledAdj>& root,
    const std::vector<const Vertex<LabeledAdj>*>& nbrs, const QueryGraph& q);

/// Serial whole-graph ground truth: Σ over all root candidates, on the same
/// matcher over g's rows.
uint64_t CountMatchesSerial(const Graph& g, const std::vector<Label>& labels,
                            const QueryGraph& q);

// ---------------------------------------------------------------------------
// γ-quasi-cliques (paper ref [17]): S is a γ-quasi-clique if every vertex of
// S has at least ⌈γ·(|S|-1)⌉ neighbors inside S.
// ---------------------------------------------------------------------------

/// Largest γ-quasi-clique in `g` that contains compact vertex `root`,
/// considering as additional members only vertices whose original ID exceeds
/// ids[root] — so each quasi-clique is found exactly once, by the task
/// rooted at its smallest member. Requires |S| >= min_size; returns empty
/// when none qualifies. γ must be >= 0.5.
std::vector<VertexId> LargestQuasiCliqueFromRoot(const CompactGraph& g,
                                                 int root, double gamma,
                                                 size_t min_size);

/// Serial whole-graph ground truth.
std::vector<VertexId> LargestQuasiCliqueSerial(const Graph& g, double gamma,
                                               size_t min_size);

/// True if S (compact indices) is a γ-quasi-clique of g.
bool IsQuasiClique(const CompactGraph& g, const std::vector<int>& s,
                   double gamma);

}  // namespace gthinker

#endif  // GTHINKER_APPS_KERNELS_H_
