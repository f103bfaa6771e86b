#include "graph/layout.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace gthinker {

VertexLayout VertexLayout::Identity(VertexId n) {
  VertexLayout layout;
  layout.to_new_.resize(n);
  layout.to_old_.resize(n);
  std::iota(layout.to_new_.begin(), layout.to_new_.end(), 0);
  std::iota(layout.to_old_.begin(), layout.to_old_.end(), 0);
  return layout;
}

VertexLayout VertexLayout::HubLast(const Graph& g) {
  const VertexId n = g.NumVertices();
  VertexLayout layout;
  layout.to_old_.resize(n);
  std::iota(layout.to_old_.begin(), layout.to_old_.end(), 0);
  // Degree-ascending with original-ID tie-break: total and graph-determined,
  // so every rank of a distributed run derives the identical map.
  std::sort(layout.to_old_.begin(), layout.to_old_.end(),
            [&g](VertexId a, VertexId b) {
              const size_t da = g.Degree(a), db = g.Degree(b);
              return da != db ? da < db : a < b;
            });
  layout.to_new_.resize(n);
  for (VertexId i = 0; i < n; ++i) layout.to_new_[layout.to_old_[i]] = i;
  return layout;
}

Graph VertexLayout::Apply(const Graph& g) const {
  GT_CHECK_EQ(g.NumVertices(), NumVertices());
  Graph out(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId u : g.Neighbors(v)) {
      if (v < u) out.AddEdge(ToNew(v), ToNew(u));
    }
  }
  out.Finalize();
  return out;
}

std::vector<Label> VertexLayout::ApplyLabels(
    const std::vector<Label>& labels) const {
  GT_CHECK_EQ(labels.size(), to_new_.size());
  std::vector<Label> out(labels.size());
  for (VertexId v = 0; v < labels.size(); ++v) out[ToNew(v)] = labels[v];
  return out;
}

}  // namespace gthinker
