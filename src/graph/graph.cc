#include "graph/graph.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace gthinker {

Graph::Graph(std::vector<AdjList> sorted_rows)
    : adj_(std::move(sorted_rows)), finalized_(true) {
  for (const AdjList& list : adj_) num_edges_ += list.size();
  num_edges_ /= 2;
}

void Graph::AddEdge(VertexId u, VertexId v) {
  if (u == v) return;
  const VertexId needed = std::max(u, v) + 1;
  if (needed > adj_.size()) adj_.resize(needed);
  adj_[u].push_back(v);
  adj_[v].push_back(u);
  finalized_ = false;
}

void Graph::Finalize() {
  num_edges_ = 0;
  for (AdjList& list : adj_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    num_edges_ += list.size();
  }
  num_edges_ /= 2;
  finalized_ = true;
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  GT_CHECK(finalized_) << "HasEdge before Finalize()";
  // Search the shorter list.
  const AdjList& list = adj_[u].size() <= adj_[v].size() ? adj_[u] : adj_[v];
  const VertexId target = adj_[u].size() <= adj_[v].size() ? v : u;
  return std::binary_search(list.begin(), list.end(), target);
}

uint32_t Graph::MaxDegree() const {
  uint32_t max_deg = 0;
  for (const AdjList& list : adj_) {
    max_deg = std::max(max_deg, static_cast<uint32_t>(list.size()));
  }
  return max_deg;
}

double Graph::AvgDegree() const {
  if (adj_.empty()) return 0.0;
  return 2.0 * static_cast<double>(num_edges_) /
         static_cast<double>(adj_.size());
}

int64_t Graph::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(adj_.capacity() * sizeof(AdjList));
  for (const AdjList& list : adj_) {
    bytes += static_cast<int64_t>(list.capacity() * sizeof(VertexId));
  }
  return bytes;
}

AdjList Graph::GreaterNeighbors(VertexId v) const {
  const AdjList& list = adj_[v];
  auto it = std::upper_bound(list.begin(), list.end(), v);
  return AdjList(it, list.end());
}

std::pair<const VertexId*, const VertexId*> Graph::GreaterRange(
    VertexId v) const {
  const AdjList& list = adj_[v];
  auto it = std::upper_bound(list.begin(), list.end(), v);
  return {list.data() + (it - list.begin()), list.data() + list.size()};
}

}  // namespace gthinker
