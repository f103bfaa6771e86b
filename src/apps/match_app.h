#ifndef GTHINKER_APPS_MATCH_APP_H_
#define GTHINKER_APPS_MATCH_APP_H_

#include <cstdint>
#include <vector>

#include "apps/kernels.h"
#include "core/comper.h"
#include "core/task.h"

namespace gthinker {

using MatchTask = Task<LabeledAdj, RootBundle>;

/// Subgraph matching (GM): counts embeddings of a small labeled query
/// pattern. A root is a data vertex v whose label matches query vertex 0;
/// the search space is partitioned by the image of query vertex 0 (paper
/// §IV: "partition by different vertex instances of the same label").
/// - Query depth <= 1 (triangle, star, clique): roots are bundled
///   (core/root_bundle.h). Each root pulls its label-filtered neighbors, and
///   its embeddings are counted straight from the pulled rows
///   (CountMatchesFromPulledRows, apps/kernels.h), with nothing copied.
/// - Deeper queries: one task per root, its bundle empty. The task pulls
///   label-filtered neighborhoods hop by hop out to the query's BFS depth
///   into its subgraph, root first, then counts the embeddings rooted there
///   (CountMatchesFromRoot). A bundle runs one iteration, so multi-hop
///   input cannot ride in one.
class MatchComper : public Comper<MatchTask, uint64_t> {
 public:
  explicit MatchComper(QueryGraph query);

  void TaskSpawn(const VertexT& v) override;
  bool Compute(TaskT* task, const Frontier& frontier) override;

  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }

  /// The Trimmer for this query: drops adjacency entries whose label does
  /// not appear in the query (paper §IV (7)).
  static void TrimByQuery(const QueryGraph& query, Vertex<LabeledAdj>& v);

 private:
  const QueryGraph query_;
  const int depth_;
  std::vector<VertexId> row_ids_;  // TaskSpawn's buffer: one root's pulls
};

}  // namespace gthinker

#endif  // GTHINKER_APPS_MATCH_APP_H_
