#ifndef GTHINKER_APPS_TRIANGLELIST_APP_H_
#define GTHINKER_APPS_TRIANGLELIST_APP_H_

#include <array>
#include <cstdint>

#include "apps/kernels.h"
#include "core/comper.h"
#include "core/task.h"

namespace gthinker {

/// One listed triangle (v < u < w).
struct Triangle {
  VertexId v = 0;
  VertexId u = 0;
  VertexId w = 0;
};

inline bool operator==(const Triangle& a, const Triangle& b) {
  return a.v == b.v && a.u == b.u && a.w == b.w;
}
inline bool operator<(const Triangle& a, const Triangle& b) {
  if (a.v != b.v) return a.v < b.v;
  if (a.u != b.u) return a.u < b.u;
  return a.w < b.w;
}

/// Encodes/decodes one triangle as an output record.
std::string EncodeTriangle(const Triangle& t);
Status DecodeTriangle(const std::string& record, Triangle* t);

using TriangleListTask = Task<AdjList, RootBundle>;

/// Triangle *listing* (paper §I lists it among the target problems): same
/// bundled task structure as TriangleComper, but every triangle (v,u,w) with
/// v < u < w, in the caller's vertex IDs (Comper::OriginalId), is emitted
/// once through Comper::Output in addition to being counted. Pair with the
/// Γ_> trimmer and a Job::output_dir.
class TriangleListComper : public Comper<TriangleListTask, uint64_t> {
 public:
  void TaskSpawn(const VertexT& v) override;
  bool Compute(TaskT* task, const Frontier& frontier) override;

  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }
};

}  // namespace gthinker

#endif  // GTHINKER_APPS_TRIANGLELIST_APP_H_
