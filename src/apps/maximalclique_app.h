#ifndef GTHINKER_APPS_MAXIMALCLIQUE_APP_H_
#define GTHINKER_APPS_MAXIMALCLIQUE_APP_H_

#include <cstdint>

#include "apps/kernels.h"
#include "apps/split_context.h"
#include "core/comper.h"
#include "core/task.h"

namespace gthinker {

using MaximalCliqueTask = Task<AdjList, /*ContextT=*/SplitCtx>;

/// Maximal clique *enumeration* (counting): one task per vertex v pulls v and
/// its full neighborhood Γ(v) (no trimming — maximality needs smaller-ID
/// neighbors in the Bron–Kerbosch X set) and counts the maximal cliques
/// whose minimum member is v. Per-task counts sum to the global number of
/// maximal cliques. Small task subgraphs run Bron–Kerbosch with bitset P/X
/// sets (apps/kernels.h dense/sparse switch); the count is identical either
/// way.
///
/// Decomposable: a task's context carries the range of top-level
/// candidates (v's larger-ID neighbors, ascending) it owns, so a Compute()
/// call that overruns `budget_us` (0 = never) adds the rest of its range as
/// children (apps/split_context.h) whose counts sum, bit-identically, to the
/// unsplit count.
class MaximalCliqueComper : public Comper<MaximalCliqueTask, uint64_t> {
 public:
  explicit MaximalCliqueComper(int64_t budget_us = 0) : budget_(budget_us) {}

  void TaskSpawn(const VertexT& v) override;
  bool Compute(TaskT* task, const Frontier& frontier) override;

  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }

 private:
  ComputeBudget budget_;
};

}  // namespace gthinker

#endif  // GTHINKER_APPS_MAXIMALCLIQUE_APP_H_
