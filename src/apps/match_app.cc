#include "apps/match_app.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "util/logging.h"

namespace gthinker {

MatchComper::MatchComper(QueryGraph query)
    : query_(std::move(query)), depth_(query_.DepthFromRoot()) {
  GT_CHECK(query_.IsValidPlan());
}

void MatchComper::TrimByQuery(const QueryGraph& query,
                              Vertex<LabeledAdj>& v) {
  auto& adj = v.value.adj;
  adj.erase(std::remove_if(adj.begin(), adj.end(),
                           [&query](const LabeledNbr& n) {
                             return !query.UsesLabel(n.label);
                           }),
            adj.end());
}

void MatchComper::TaskSpawn(const VertexT& v) {
  if (v.value.label != query_.labels[0]) return;
  if (query_.NumVertices() > 1 && v.value.adj.empty()) return;
  if (depth_ <= 1) {
    row_ids_.clear();
    if (depth_ == 1) {
      for (const LabeledNbr& nbr : v.value.adj) row_ids_.push_back(nbr.id);
    }
    AddRoot(v.id, row_ids_);
    return;
  }
  auto task = std::make_unique<TaskT>();
  task->subgraph().AddVertex(v);  // root first
  for (const LabeledNbr& nbr : v.value.adj) task->Pull(nbr.id);
  AddTask(std::move(task));
}

bool MatchComper::Compute(TaskT* task, const Frontier& frontier) {
  if (depth_ <= 1) {
    uint64_t count = 0;
    auto count_root = [&](const VertexT& root, const Frontier& nbrs) {
      count += CountMatchesFromPulledRows(root, nbrs, query_);
    };
    ForEachRoot(task->context(), frontier, count_root);
    if (count > 0) Aggregate(count);
    return false;
  }
  for (const VertexT* u : frontier) {
    if (!task->subgraph().HasVertex(u->id)) task->subgraph().AddVertex(*u);
  }
  // Expand another hop while the query needs it. iteration() counts the
  // completed hops: after this call it becomes iteration()+1.
  if (static_cast<int>(task->iteration()) + 1 < depth_) {
    std::unordered_set<VertexId> requested;
    for (const VertexT* u : frontier) {
      for (const LabeledNbr& nbr : u->value.adj) {
        if (!task->subgraph().HasVertex(nbr.id) &&
            requested.insert(nbr.id).second) {
          task->Pull(nbr.id);
        }
      }
    }
    if (!task->pulls().empty()) return true;
  }
  const VertexId root = task->subgraph().vertices().front().id;
  const uint64_t count = CountMatchesFromRoot(task->subgraph(), query_, root);
  if (count > 0) Aggregate(count);
  return false;
}

}  // namespace gthinker
