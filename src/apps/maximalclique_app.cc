#include "apps/maximalclique_app.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "util/logging.h"

namespace gthinker {

void MaximalCliqueComper::TaskSpawn(const VertexT& v) {
  if (v.value.empty()) {
    Aggregate(1);  // an isolated vertex is a maximal clique of size 1
    return;
  }
  auto task = std::make_unique<TaskT>();
  task->context().root = v.id;
  task->Pull(v.id);  // root first => compact index 0
  for (VertexId u : v.value) task->Pull(u);
  AddTask(std::move(task));
}

bool MaximalCliqueComper::Compute(TaskT* task, const Frontier& frontier) {
  const std::function<bool()> over_budget = budget_.Start();
  // The frontier is the root, then Γ(root) — a narrowed parent or range
  // child pulls the same members again.
  SplitCtx& ctx = task->context();
  GT_CHECK(!frontier.empty() && frontier[0]->id == ctx.root);
  const CompactGraph cg = CompactFromRows(frontier);
  const uint64_t candidates = LargerIdNeighbors(cg, /*root=*/0);
  const uint64_t end = std::min(ctx.end, candidates);
  uint64_t count;
  uint64_t next = end;
  if (!budget_.armed() && ctx.begin == 0 && ctx.end == SplitCtx::kUnbounded) {
    // Unbudgeted whole root: the pivoted kernel. Over every root's task
    // subgraph of skitter-like at scale 0.35 it runs 1.9x faster than the
    // range kernel over the full range, for the same total (EXPERIMENTS.md
    // "Ablations").
    count = CountMaximalCliquesFromRoot(cg, /*root=*/0);
  } else {
    count = CountMaximalCliquesFromRootRange(cg, /*root=*/0, ctx.begin, end,
                                             over_budget, &next);
  }
  if (count > 0) Aggregate(count);
  if (next < end) {
    // Budget overrun: bank the partial count, narrow to the unprocessed
    // suffix, pull the members again and hand the later shards to new
    // tasks.
    ctx.begin = next;
    ctx.end = end;
    task->SetPulls(cg.ids);
    for (auto& child : SplitByCandidateRange(task)) AddTask(std::move(child));
    return true;
  }
  return false;
}

}  // namespace gthinker
