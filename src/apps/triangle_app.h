#ifndef GTHINKER_APPS_TRIANGLE_APP_H_
#define GTHINKER_APPS_TRIANGLE_APP_H_

#include <cstdint>
#include <memory>

#include "apps/kernels.h"
#include "core/comper.h"
#include "core/task.h"

namespace gthinker {

/// Trims Γ(v) to Γ_>(v): the Trimmer used by every set-enumeration app
/// (paper §IV (7)); responses then only carry trimmed lists.
void TrimToGreater(Vertex<AdjList>& v);

using TriangleTask = Task<AdjList, RootBundle>;

/// Triangle counting (TC): root v pulls itself and Γ_>(v) and counts
/// |Γ_>(v) ∩ Γ_>(u)| for every u ∈ Γ_>(v); per-task counts are summed by the
/// aggregator. Each triangle v<u<w is counted exactly once, by root v.
/// Roots are bundled (core/root_bundle.h): one task runs a whole spawn
/// batch of roots, since one root is too little work to carry a task.
/// The intersections run through the adaptive toolkit (apps/kernel_simd.h):
/// one Γ_>(v) membership bitmap amortized over v's candidates when
/// worthwhile, merge/gallop otherwise.
class TriangleComper : public Comper<TriangleTask, uint64_t> {
 public:
  void TaskSpawn(const VertexT& v) override;
  bool Compute(TaskT* task, const Frontier& frontier) override;

  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }
};

}  // namespace gthinker

#endif  // GTHINKER_APPS_TRIANGLE_APP_H_
