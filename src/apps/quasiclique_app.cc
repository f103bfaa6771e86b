#include "apps/quasiclique_app.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_set>

#include "util/logging.h"

namespace gthinker {

void QuasiCliqueComper::TaskSpawn(const VertexT& v) {
  if (min_size_ > 1 && v.value.empty()) return;
  auto task = std::make_unique<TaskT>();
  task->context().root = v.id;
  task->subgraph().AddVertex(v);
  for (VertexId u : v.value) task->Pull(u);  // iteration 1: Γ(v)
  AddTask(std::move(task));
}

bool QuasiCliqueComper::Compute(TaskT* task, const Frontier& frontier) {
  const std::function<bool()> over_budget = budget_.Start();
  for (const VertexT* u : frontier) {
    if (!task->subgraph().HasVertex(u->id)) task->subgraph().AddVertex(*u);
  }
  SplitCtx& ctx = task->context();
  if (task->iteration() == 0 && !frontier.empty()) {
    // Iteration 2: pull 2nd-hop vertices. Only candidates (ID > root) are
    // needed as potential members; 1-hop intermediates of any ID are already
    // in the subgraph and provide the connecting edges. (A split child
    // re-entering at iteration 0 has an empty frontier and goes straight to
    // mining — its ego-network is already complete.)
    std::unordered_set<VertexId> requested;
    for (const VertexT* u : frontier) {
      for (VertexId w : u->value) {
        if (w > ctx.root && !task->subgraph().HasVertex(w) &&
            requested.insert(w).second) {
          task->Pull(w);
        }
      }
    }
    if (!task->pulls().empty()) return true;
  }
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
  const uint64_t candidates = LargerIdVertices(cg, /*root=*/0);
  const uint64_t end = std::min(ctx.end, candidates);
  // Seed the search with the best size found so far, cluster-wide, so a
  // root cannot re-find anything no larger. Unbudgeted, the kernel runs
  // the whole range in one call.
  uint64_t next = end;
  std::vector<VertexId> found = LargestQuasiCliqueFromRootRange(
      cg, /*root=*/0, gamma_, min_size_,
      /*lower_bound=*/CurrentAgg().size(), ctx.begin, end, over_budget, &next);
  if (found.size() > CurrentAgg().size()) Aggregate(found);
  if (next < end) {
    // Budget overrun: bank the best so far, narrow to the unprocessed
    // suffix and hand its later shards to new tasks.
    ctx.begin = next;
    ctx.end = end;
    for (auto& child : SplitByCandidateRange(task)) AddTask(std::move(child));
    return true;
  }
  return false;
}

}  // namespace gthinker
