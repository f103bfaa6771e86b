#include "apps/quasiclique_app.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "util/logging.h"

namespace gthinker {

void QuasiCliqueComper::TaskSpawn(const VertexT& v) {
  if (min_size_ > 1 && v.value.empty()) return;
  auto task = std::make_unique<TaskT>();
  task->context().root = v.id;
  task->Pull(v.id);  // iteration 1: the root, then Γ(v)
  for (VertexId u : v.value) task->Pull(u);
  AddTask(std::move(task));
}

bool QuasiCliqueComper::Compute(TaskT* task, const Frontier& frontier) {
  const std::function<bool()> over_budget = budget_.Start();
  SplitCtx& ctx = task->context();
  GT_CHECK(!frontier.empty() && frontier[0]->id == ctx.root);
  if (task->iteration() == 0 && ctx.end == SplitCtx::kUnbounded) {
    // Iteration 1 read the root and Γ(root) in place; pull them again with
    // the 2nd-hop vertices for the mining iteration. Only candidates
    // (ID > root) are needed as potential members; 1-hop intermediates of
    // any ID provide the connecting edges. (A range child also starts at
    // iteration 0, but with a bounded range and its members pulled.)
    std::unordered_set<VertexId> seen;
    for (const VertexT* u : frontier) seen.insert(u->id);
    std::vector<VertexId> hop2;
    for (size_t i = 1; i < frontier.size(); ++i) {
      for (VertexId w : frontier[i]->value) {
        if (w > ctx.root && seen.insert(w).second) hop2.push_back(w);
      }
    }
    if (!hop2.empty()) {
      for (const VertexT* u : frontier) task->Pull(u->id);
      for (VertexId w : hop2) task->Pull(w);
      return true;
    }
  }
  // The frontier holds every member: the root, Γ(root), then the 2nd-hop
  // candidates — a narrowed parent or range child pulls the same list.
  const CompactGraph cg = CompactFromRows(frontier);
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
