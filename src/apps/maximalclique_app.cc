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
  task->subgraph().AddVertex(v);  // root first => compact index 0
  for (VertexId u : v.value) task->Pull(u);
  AddTask(std::move(task));
}

bool MaximalCliqueComper::Compute(TaskT* task, const Frontier& frontier) {
  const std::function<bool()> over_budget = budget_.Start();
  for (const VertexT* u : frontier) {
    if (!task->subgraph().HasVertex(u->id)) task->subgraph().AddVertex(*u);
  }
  SplitCtx& ctx = task->context();
  // Compact form cached in the task scratch across budgeted re-entries (a
  // split-narrowed parent re-enters with an empty frontier and the same
  // subgraph); a frontier merge changes the subgraph, so rebuild.
  if (!frontier.empty()) task->set_scratch(nullptr);
  auto cg_ptr = std::static_pointer_cast<CompactGraph>(task->scratch());
  if (cg_ptr == nullptr) {
    cg_ptr = std::make_shared<CompactGraph>(
        CompactFromSubgraph(task->subgraph()));
    task->set_scratch(cg_ptr);
  }
  const CompactGraph& cg = *cg_ptr;
  GT_CHECK_EQ(cg.ids[0], ctx.root);
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
    // suffix and hand its later shards to new tasks.
    ctx.begin = next;
    ctx.end = end;
    for (auto& child : SplitByCandidateRange(task)) AddTask(std::move(child));
    return true;
  }
  return false;
}

}  // namespace gthinker
