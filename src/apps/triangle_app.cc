#include "apps/triangle_app.h"

#include <algorithm>

#include "apps/kernel_simd.h"

namespace gthinker {

void TrimToGreater(Vertex<AdjList>& v) {
  auto it = std::upper_bound(v.value.begin(), v.value.end(), v.id);
  v.value.erase(v.value.begin(), it);
}

void TriangleComper::TaskSpawn(const VertexT& v) {
  // With Γ already trimmed to Γ_>, a triangle needs at least two candidates.
  if (v.value.size() < 2) return;
  AddRoot(v.id, v.value);
}

bool TriangleComper::Compute(TaskT* task, const Frontier& frontier) {
  uint64_t count = 0;
  simd::HitBits<VertexId> bits;
  auto count_root = [&](const VertexT& root, const Frontier& candidates) {
    const AdjList& root_gt = root.value;
    // Γ_>(root) is intersected against every candidate list; amortize one
    // membership-bitmap build over those probes when it beats per-pair
    // merges.
    const size_t domain =
        root_gt.empty() ? 0 : static_cast<size_t>(root_gt.back()) + 1;
    const bool use_bits =
        simd::HitBitsWorthwhile(root_gt.size(), domain, candidates.size());
    if (use_bits) bits.Build(root_gt.data(), root_gt.size());
    for (const VertexT* u : candidates) {
      // u->value is Γ_>(u); the intersection yields w with v < u < w, each
      // (v,u,w) triangle once.
      count += use_bits ? bits.CountHits(u->value)
                        : simd::IntersectAdaptive(root_gt, u->value);
    }
  };
  ForEachRoot(task->context(), frontier, count_root);
  if (count > 0) Aggregate(count);
  return false;
}

}  // namespace gthinker
