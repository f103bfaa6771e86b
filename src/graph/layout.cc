#include "graph/layout.h"

#include <numeric>
#include <utility>

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
  // Counting sort by degree: next[d] is the first free new ID of degree d.
  // Placing vertices in ascending original ID keeps each degree class in ID
  // order, the tie-break that makes the map total.
  std::vector<VertexId> next(n > 0 ? g.MaxDegree() + 2 : 1, 0);
  for (VertexId v = 0; v < n; ++v) ++next[g.Degree(v) + 1];
  std::partial_sum(next.begin(), next.end(), next.begin());
  VertexLayout layout;
  layout.to_new_.resize(n);
  layout.to_old_.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    const VertexId x = next[g.Degree(v)]++;
    layout.to_new_[v] = x;
    layout.to_old_[x] = v;
  }
  return layout;
}

Graph VertexLayout::Apply(const Graph& g) const {
  GT_CHECK_EQ(g.NumVertices(), NumVertices());
  std::vector<AdjList> rows(g.NumVertices());
  ScatterRows(g, [&rows](VertexId x) { return &rows[x]; });
  return Graph(std::move(rows));
}

std::vector<Label> VertexLayout::ApplyLabels(
    const std::vector<Label>& labels) const {
  GT_CHECK_EQ(labels.size(), to_new_.size());
  std::vector<Label> out(labels.size());
  for (VertexId v = 0; v < labels.size(); ++v) out[ToNew(v)] = labels[v];
  return out;
}

}  // namespace gthinker
