#include "apps/maxclique_app.h"

#include <algorithm>
#include <memory>

#include "apps/kernel_simd.h"
#include "util/logging.h"

namespace gthinker {

void MaxCliqueComper::TaskSpawn(const VertexT& v) {
  // Paper Fig. 5 task_spawn: prune v if even taking all of Γ_>(v) cannot
  // beat the current best.
  const AggT s_max = CurrentAgg();
  if (v.value.empty()) {
    if (s_max.empty()) Aggregate({v.id});
    return;
  }
  if (s_max.size() >= 1 + v.value.size()) return;
  auto task = std::make_unique<TaskT>();
  task->context().s = {v.id};
  task->Pull(v.id);  // root first: its row Γ_>(v) is ext(S)
  for (VertexId u : v.value) task->Pull(u);
  AddTask(std::move(task));
}

bool MaxCliqueComper::Compute(TaskT* task, const Frontier& frontier) {
  if (!frontier.empty()) {
    // Top-level task: build t.g as the subgraph induced by ext(S) = Γ_>(v),
    // read in place from the root's pulled row, filtering every other
    // pulled adjacency list down to ext(S) (vertices two hops from v cannot
    // be in a clique containing v).
    GT_CHECK_EQ(task->context().s.size(), 1u);
    GT_CHECK_EQ(frontier[0]->id, task->context().s[0]);
    const AdjList& ext = frontier[0]->value;
    for (size_t i = 1; i < frontier.size(); ++i) {
      const VertexT* u = frontier[i];
      VertexT nu;
      nu.id = u->id;
      simd::IntersectAdaptiveInto(u->value.data(), u->value.size(),
                                  ext.data(), ext.size(), &nu.value);
      task->subgraph().AddVertex(std::move(nu));
    }
  }
  Process(task);
  return false;
}

void MaxCliqueComper::Process(TaskT* task) {
  const std::vector<VertexId>& s = task->context().s;
  auto& g = task->subgraph();
  const AggT s_max = CurrentAgg();

  if (g.NumVertices() > tau_) {
    // Decompose: one child ⟨S ∪ u, Γ_>(S ∪ u)⟩ per u ∈ V(g). u's filtered
    // adjacency inside g is exactly ext(S ∪ u).
    for (const VertexT& u : g.vertices()) {
      if (s.size() + 1 + u.value.size() <= s_max.size()) continue;  // prune
      auto child = std::make_unique<TaskT>();
      child->context().s = s;
      child->context().s.push_back(u.id);
      const AdjList& ext = u.value;
      for (VertexId w : ext) {
        const VertexT* wv = g.GetVertex(w);
        GT_CHECK(wv != nullptr);
        VertexT nw;
        nw.id = w;
        simd::IntersectAdaptiveInto(wv->value.data(), wv->value.size(),
                                    ext.data(), ext.size(), &nw.value);
        child->subgraph().AddVertex(std::move(nw));
      }
      AddTask(std::move(child));
    }
    return;
  }

  // Small enough: mine serially. S itself is a clique by construction.
  if (s.size() > s_max.size()) Aggregate(s);
  if (s.size() + g.NumVertices() <= s_max.size()) return;
  const size_t lower = s_max.size() > s.size() ? s_max.size() - s.size() : 0;
  std::vector<VertexId> clique =
      MaxCliqueInCompact(CompactFromSubgraph(g), lower);
  if (!clique.empty()) {
    std::vector<VertexId> candidate = s;
    candidate.insert(candidate.end(), clique.begin(), clique.end());
    std::sort(candidate.begin(), candidate.end());
    if (candidate.size() > s_max.size()) Aggregate(candidate);
  }
}

}  // namespace gthinker
