#ifndef GTHINKER_GRAPH_GRAPH_H_
#define GTHINKER_GRAPH_GRAPH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "util/status.h"

namespace gthinker {

/// Simple undirected graph stored as per-vertex sorted adjacency lists, the
/// representation G-thinker's local vertex tables hold (each vertex v with
/// Γ(v)). Vertices are 0..NumVertices()-1.
class Graph {
 public:
  Graph() = default;
  explicit Graph(VertexId num_vertices) : adj_(num_vertices) {}
  /// Adopts finalized rows: each sorted, duplicate- and self-loop-free, and
  /// symmetric (u in rows[v] iff v in rows[u]).
  explicit Graph(std::vector<AdjList> sorted_rows);

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  VertexId NumVertices() const { return static_cast<VertexId>(adj_.size()); }

  /// Number of undirected edges (each counted once).
  uint64_t NumEdges() const { return num_edges_; }

  void Resize(VertexId num_vertices) { adj_.resize(num_vertices); }

  /// Appends both directions; call Finalize() before queries. Self-loops are
  /// ignored. Duplicate edges are removed by Finalize().
  void AddEdge(VertexId u, VertexId v);

  /// Sorts and deduplicates every adjacency list and recomputes NumEdges.
  void Finalize();

  const AdjList& Neighbors(VertexId v) const { return adj_[v]; }
  uint32_t Degree(VertexId v) const {
    return static_cast<uint32_t>(adj_[v].size());
  }

  /// Binary search on the (sorted) adjacency list.
  bool HasEdge(VertexId u, VertexId v) const;

  uint32_t MaxDegree() const;
  double AvgDegree() const;

  /// Approximate heap bytes held by the adjacency structure.
  int64_t MemoryBytes() const;

  /// Returns the neighbors of v with IDs strictly greater than v (Γ_>(v)),
  /// the trimmed lists used when following a set-enumeration tree.
  AdjList GreaterNeighbors(VertexId v) const;

  /// Non-allocating Γ_>(v): a [begin, end) pointer range into the sorted
  /// adjacency list covering the neighbors with IDs > v. Valid until the
  /// graph is modified.
  std::pair<const VertexId*, const VertexId*> GreaterRange(VertexId v) const;

 private:
  std::vector<AdjList> adj_;
  uint64_t num_edges_ = 0;
  bool finalized_ = false;
};

}  // namespace gthinker

#endif  // GTHINKER_GRAPH_GRAPH_H_
