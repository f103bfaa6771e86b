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
  /// Vertices with no neighbors still get a line.
  static Status WriteAdjacency(const Graph& graph, const std::string& path);
  static Status LoadAdjacency(const std::string& path, Graph* out);

  /// Parses a single adjacency line "<id>\t<n1> <n2> ..." into (id, adj).
  /// This is the UDF-level parse step Worker exposes (paper §IV (5)).
  /// Total: any token that is not a plain decimal ID below kInvalidVertex
  /// (a sign, a fraction, trailing garbage, an out-of-range ID) is
  /// Corruption.
  static Status ParseAdjacencyLine(const std::string& line, VertexId* id,
                                   AdjList* adj);

  /// Edge-list format, one line per undirected edge: "<u> <v>".
  static Status WriteEdgeList(const Graph& graph, const std::string& path);
  static Status LoadEdgeList(const std::string& path, Graph* out);

  /// Labeled adjacency format, one line per vertex:
  /// "<id> <label>\t<n1> <n2> ...".
  static Status WriteLabeledAdjacency(const Graph& graph,
                                      const std::vector<Label>& labels,
                                      const std::string& path);
  static Status LoadLabeledAdjacency(const std::string& path, Graph* graph,
                                     std::vector<Label>* labels);
};

}  // namespace gthinker

#endif  // GTHINKER_GRAPH_LOADER_H_
