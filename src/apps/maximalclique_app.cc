#include "apps/maximalclique_app.h"

#include <algorithm>
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
  if (SplitArmed()) {
    uint64_t next = end;
    const uint64_t count = CountMaximalCliquesFromRootRange(
        cg, /*root=*/0, ctx.begin, end,
        [this] { return IterationBudgetExceeded(); }, &next);
    if (count > 0) Aggregate(count);
    if (next < end) {
      // Budget overrun: bank the partial count, narrow to the unprocessed
      // suffix and ask the engine to split it across new tasks.
      ctx.begin = next;
      ctx.end = end;
      RequestSplit();
      return true;
    }
    return false;
  }
  // Splitting disarmed: a full-default-range task runs the original kernel
  // (with the triggers at their default 0 the job runs the unsplit code path
  // bit-identically); a partial range — a split child — runs its
  // slice of the range kernel to completion.
  uint64_t count;
  if (ctx.begin == 0 && ctx.end == SplitCtx::kUnbounded) {
    count = CountMaximalCliquesFromRoot(cg, /*root=*/0);
  } else {
    uint64_t next = 0;
    count = CountMaximalCliquesFromRootRange(cg, /*root=*/0, ctx.begin, end,
                                             /*yield=*/nullptr, &next);
  }
  if (count > 0) Aggregate(count);
  return false;
}

bool MaximalCliqueComper::Split(TaskT* task,
                                std::vector<std::unique_ptr<TaskT>>* children) {
  return SplitByCandidateRange(task, children);
}

}  // namespace gthinker
