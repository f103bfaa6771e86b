#include "apps/kclique_app.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "util/logging.h"

namespace gthinker {

void KCliqueComper::TaskSpawn(const VertexT& v) {
  GT_CHECK_GE(k_, 1);
  if (k_ == 1) {
    Aggregate(1);  // every vertex is a 1-clique
    return;
  }
  // A k-clique rooted at v needs k-1 larger neighbors.
  if (v.value.size() < static_cast<size_t>(k_ - 1)) return;
  auto task = std::make_unique<TaskT>();
  task->context().root = v.id;
  task->subgraph().AddVertex(v);  // root first => compact index 0
  for (VertexId u : v.value) task->Pull(u);
  AddTask(std::move(task));
}

bool KCliqueComper::Compute(TaskT* task, const Frontier& frontier) {
  const std::function<bool()> over_budget = budget_.Start();
  // Merge the pulled Γ_> lists; CompactFromSubgraph drops adjacency entries
  // pointing outside {root} ∪ Γ_>(root), which is exactly the ext-trimming
  // the old throwaway-subgraph construction did by hand. Pulls arrive in
  // ascending ID order and root is the minimum, so compact index order
  // matches ID order — the precondition of the Γ_> recursion.
  for (const VertexT* u : frontier) {
    if (!task->subgraph().HasVertex(u->id)) task->subgraph().AddVertex(*u);
  }
  SplitCtx& ctx = task->context();
  // Compact form cached in the task scratch across budgeted re-entries;
  // invalidated on a frontier merge (the subgraph just changed).
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
  // Unbudgeted, the kernel counts the whole range in one call.
  uint64_t next = end;
  const uint64_t count = CountCliquesFromRootRange(
      cg, /*root=*/0, k_, ctx.begin, end, over_budget, &next);
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
