#ifndef GTHINKER_APPS_MATCH_APP_H_
#define GTHINKER_APPS_MATCH_APP_H_

#include <cstdint>

#include "apps/kernels.h"
#include "core/comper.h"
#include "core/task.h"

namespace gthinker {

using MatchTask = Task<LabeledAdj, /*ContextT=*/VertexId>;

/// Subgraph matching (GM): counts embeddings of a small labeled query
/// pattern. One task per data vertex v whose label matches query vertex 0;
/// the task pulls label-filtered neighborhoods hop by hop out to the query's
/// BFS depth, then counts embeddings rooted at v by intersecting the
/// subgraph's sorted rows (CountMatchesFromRoot, apps/kernels.h). The
/// search space is partitioned by the image of query vertex 0 (paper §IV:
/// "partition by different vertex instances of the same label").
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
};

}  // namespace gthinker

#endif  // GTHINKER_APPS_MATCH_APP_H_
