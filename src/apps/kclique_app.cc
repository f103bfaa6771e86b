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
  task->Pull(v.id);  // root first => compact index 0
  for (VertexId u : v.value) task->Pull(u);
  AddTask(std::move(task));
}

bool KCliqueComper::Compute(TaskT* task, const Frontier& frontier) {
  const std::function<bool()> over_budget = budget_.Start();
  // The frontier is the root, then Γ_>(root) ascending — a narrowed parent
  // or range child pulls the same members again. CompactFromRows drops
  // adjacency entries pointing outside those members (the ext-trimming).
  // Root is the minimum, so compact index order matches ID order — the
  // precondition of the Γ_> recursion.
  SplitCtx& ctx = task->context();
  GT_CHECK(!frontier.empty() && frontier[0]->id == ctx.root);
  const CompactGraph cg = CompactFromRows(frontier);
  const uint64_t candidates = LargerIdNeighbors(cg, /*root=*/0);
  const uint64_t end = std::min(ctx.end, candidates);
  // Unbudgeted, the kernel counts the whole range in one call.
  uint64_t next = end;
  const uint64_t count = CountCliquesFromRootRange(
      cg, /*root=*/0, k_, ctx.begin, end, over_budget, &next);
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
