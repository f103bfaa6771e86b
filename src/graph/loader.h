#ifndef GTHINKER_GRAPH_LOADER_H_
#define GTHINKER_GRAPH_LOADER_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace gthinker {

/// Text formats for graph exchange, matching the line-oriented files
/// G-thinker loads from HDFS (one vertex + adjacency list per line).
class GraphIo {
 public:
  /// Adjacency format, one line per vertex: "<id>\t<n1> <n2> ...".
  /// Vertices with no neighbors still get a line. LoadAdjacency returns
  /// Corruption for a bad line or a file that breaks CheckVertexIds.
  static Status WriteAdjacency(const Graph& graph, const std::string& path);
  static Status LoadAdjacency(const std::string& path, Graph* out);

  /// The rule every adjacency input obeys: its n lines carry the IDs
  /// 0..n-1, each once, and name no ID >= n, neighbors included. `ids` are
  /// the lines' own IDs, `max_named` the largest ID any line names.
  /// Checked before a table is sized, so a hostile ID cannot size one.
  static Status CheckVertexIds(const std::vector<VertexId>& ids,
                               VertexId max_named);

  /// Parses a single adjacency line "<id>\t<n1> <n2> ..." into (id, adj).
  /// This is the UDF-level parse step Worker exposes (paper §IV (5)).
  /// Total: any token that is not a plain decimal ID below kInvalidVertex
  /// (a sign, a fraction, trailing garbage, an out-of-range ID) is
  /// Corruption.
  static Status ParseAdjacencyLine(const std::string& line, VertexId* id,
                                   AdjList* adj);

  /// Edge-list format, one line per undirected edge: "<u> <v>".
  static Status WriteEdgeList(const Graph& graph, const std::string& path);

  /// Labeled adjacency format, one line per vertex:
  /// "<id> <label>\t<n1> <n2> ...".
  static Status WriteLabeledAdjacency(const Graph& graph,
                                      const std::vector<Label>& labels,
                                      const std::string& path);
};

}  // namespace gthinker

#endif  // GTHINKER_GRAPH_LOADER_H_
