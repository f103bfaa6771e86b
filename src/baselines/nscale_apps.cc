#include "baselines/nscale_apps.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "apps/kernel_simd.h"
#include "apps/kernels.h"
#include "util/logging.h"

namespace gthinker::baselines {

NScaleTcResult NScaleTriangleCount(const Graph& graph,
                                   const NScaleEngine::Options& opts) {
  NScaleEngine engine;
  std::atomic<uint64_t> triangles{0};
  auto filter = [](VertexId v, const AdjList& adj) {
    // Only roots with at least two larger neighbors can close a triangle.
    const auto gt = std::upper_bound(adj.begin(), adj.end(), v);
    return adj.end() - gt >= 2;
  };
  auto mine = [&graph, &triangles](VertexId root,
                                   const Subgraph<Vertex<AdjList>>& ego) {
    const auto [rb, re] = graph.GreaterRange(root);
    const size_t nr = static_cast<size_t>(re - rb);
    uint64_t local = 0;
    // Bitmap of Γ_>(root), probed by each neighbor's Γ_> span in place —
    // no AdjList copy per neighbor.
    simd::HitBits<VertexId> bits;
    const size_t domain = nr > 0 ? static_cast<size_t>(rb[nr - 1]) + 1 : 0;
    const bool use_bits = simd::HitBitsWorthwhile(nr, domain, nr);
    if (use_bits) bits.Build(rb, nr);
    for (const VertexId* u = rb; u != re; ++u) {
      const Vertex<AdjList>* uv = ego.GetVertex(*u);
      if (uv == nullptr) continue;
      const auto it =
          std::upper_bound(uv->value.begin(), uv->value.end(), *u);
      const VertexId* u_gt = uv->value.data() + (it - uv->value.begin());
      const size_t u_len = static_cast<size_t>(uv->value.end() - it);
      local += use_bits ? bits.CountHits(u_gt, u_len)
                        : simd::IntersectAdaptive(rb, nr, u_gt, u_len);
    }
    if (local > 0) triangles.fetch_add(local, std::memory_order_relaxed);
  };
  NScaleTcResult out;
  out.stats = engine.Run(graph, /*k_hops=*/1, filter, mine, opts);
  out.triangles = triangles.load();
  return out;
}

NScaleMcfResult NScaleMaxClique(const Graph& graph,
                                const NScaleEngine::Options& opts) {
  NScaleEngine engine;
  std::mutex best_mutex;
  std::vector<VertexId> best;
  std::atomic<size_t> best_size{0};
  auto filter = [](VertexId v, const AdjList& adj) {
    (void)v;
    return !adj.empty();
  };
  auto mine = [&graph, &best_mutex, &best, &best_size](
                  VertexId root, const Subgraph<Vertex<AdjList>>& ego) {
    // Search the subgraph induced by Γ_>(root), exactly like an MCF task.
    Subgraph<Vertex<AdjList>> g;
    const AdjList ext = graph.GreaterNeighbors(root);
    for (VertexId u : ext) {
      const Vertex<AdjList>* uv = ego.GetVertex(u);
      GT_CHECK(uv != nullptr);
      Vertex<AdjList> nu;
      nu.id = u;
      const auto gt = std::upper_bound(uv->value.begin(), uv->value.end(), u);
      simd::IntersectAdaptiveInto(uv->value.data() + (gt - uv->value.begin()),
                                  static_cast<size_t>(uv->value.end() - gt),
                                  ext.data(), ext.size(), &nu.value);
      g.AddVertex(std::move(nu));
    }
    const size_t bound = best_size.load(std::memory_order_relaxed);
    if (1 + ext.size() <= bound) return;
    const size_t lower = bound > 0 ? bound - 1 : 0;
    std::vector<VertexId> clique =
        MaxCliqueInCompact(CompactFromSubgraph(g), lower);
    if (clique.empty() && bound == 0) clique = {};
    std::vector<VertexId> candidate;
    if (!clique.empty()) {
      candidate = clique;
      candidate.push_back(root);
      std::sort(candidate.begin(), candidate.end());
    } else if (bound == 0) {
      candidate = {root};
    }
    if (candidate.size() > best_size.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(best_mutex);
      if (candidate.size() > best.size()) {
        best = candidate;
        best_size.store(best.size(), std::memory_order_relaxed);
      }
    }
  };
  NScaleMcfResult out;
  out.stats = engine.Run(graph, /*k_hops=*/1, filter, mine, opts);
  std::sort(best.begin(), best.end());
  out.best_clique = best;
  return out;
}

}  // namespace gthinker::baselines
