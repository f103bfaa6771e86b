#ifndef GTHINKER_APPS_QUASICLIQUE_APP_H_
#define GTHINKER_APPS_QUASICLIQUE_APP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "apps/kernels.h"
#include "apps/split_context.h"
#include "core/comper.h"
#include "core/task.h"

namespace gthinker {

using QuasiCliqueTask = Task<AdjList, /*ContextT=*/SplitCtx>;

/// Largest γ-quasi-clique (γ >= 0.5), the motivating application of paper
/// §III: a task spawned from v pulls v and Γ(v) for iteration 1, reads
/// them in place to find the 2nd-hop neighborhood, and pulls all of them
/// for iteration 2 (any two members of a γ-quasi-clique are within 2 hops,
/// ref [17]), which mines the pulled ego-network with a serial
/// set-enumeration search (adjacency probes hoisted to bitset rows on small
/// subgraphs — apps/kernels.h). Double-counting is avoided by only
/// admitting members with IDs larger than v.
///
/// Do NOT pair this comper with the Γ_> trimmer: 2-hop reachability may pass
/// through intermediate vertices of any ID.
///
/// Decomposable: the candidate range covers the larger-ID members
/// ascending (branches keyed by the first chosen member). A Compute() call
/// that overruns `budget_us` (0 = never) adds the rest of its range as
/// children (apps/split_context.h). Shards prune against the shared
/// aggregator best, and the max size over any shard partition equals the
/// unsplit result's size. Splitting only triggers once the 2-hop pull phase
/// is complete.
class QuasiCliqueComper
    : public Comper<QuasiCliqueTask, std::vector<VertexId>> {
 public:
  QuasiCliqueComper(double gamma, size_t min_size, int64_t budget_us = 0)
      : gamma_(gamma), min_size_(min_size), budget_(budget_us) {}

  void TaskSpawn(const VertexT& v) override;
  bool Compute(TaskT* task, const Frontier& frontier) override;

  static AggT AggZero() { return {}; }
  static AggT AggMerge(const AggT& a, const AggT& b) {
    if (a.size() != b.size()) return a.size() > b.size() ? a : b;
    return a <= b ? a : b;
  }

 private:
  const double gamma_;
  const size_t min_size_;
  ComputeBudget budget_;
};

}  // namespace gthinker

#endif  // GTHINKER_APPS_QUASICLIQUE_APP_H_
