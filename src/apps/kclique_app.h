#ifndef GTHINKER_APPS_KCLIQUE_APP_H_
#define GTHINKER_APPS_KCLIQUE_APP_H_

#include <cstdint>

#include "apps/kernels.h"
#include "apps/split_context.h"
#include "core/comper.h"
#include "core/task.h"

namespace gthinker {

using KCliqueTask = Task<AdjList, /*ContextT=*/SplitCtx>;

/// k-clique counting: one task per vertex v pulls v and Γ_>(v), compacts
/// the subgraph they induce straight from the pulled rows (the MCF task
/// construction, paper Fig. 5 line 2) and counts the k-cliques containing
/// v — each global k-clique is counted once, by its minimum vertex. k = 3
/// reduces to triangle counting, which the tests exploit as a cross-check.
/// Small task subgraphs count via the word-parallel Γ_> recursion
/// (apps/kernels.h dense/sparse switch).
///
/// Pair with the Γ_> trimmer (TrimToGreater): pulled adjacency lists then
/// carry only larger-ID neighbors, which is all the recursion reads.
///
/// Decomposable: the context's candidate range covers Γ_>(v) ascending;
/// top-level branches are partitioned by the smallest non-root member, so
/// shard counts sum bit-identically to the unsplit count. A Compute() call
/// that overruns `budget_us` (0 = never) adds the rest of its range as
/// children (apps/split_context.h).
class KCliqueComper : public Comper<KCliqueTask, uint64_t> {
 public:
  explicit KCliqueComper(int k, int64_t budget_us = 0)
      : k_(k), budget_(budget_us) {}

  void TaskSpawn(const VertexT& v) override;
  bool Compute(TaskT* task, const Frontier& frontier) override;

  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }

 private:
  const int k_;
  ComputeBudget budget_;
};

}  // namespace gthinker

#endif  // GTHINKER_APPS_KCLIQUE_APP_H_
