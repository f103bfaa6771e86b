#include "apps/trianglelist_app.h"

#include <algorithm>
#include <array>

#include "apps/kernel_simd.h"
#include "util/serializer.h"

namespace gthinker {

std::string EncodeTriangle(const Triangle& t) {
  Serializer ser;
  ser.Write(t.v);
  ser.Write(t.u);
  ser.Write(t.w);
  return ser.Release();
}

Status DecodeTriangle(const std::string& record, Triangle* t) {
  Deserializer des(record);
  GT_RETURN_IF_ERROR(des.Read(&t->v));
  GT_RETURN_IF_ERROR(des.Read(&t->u));
  return des.Read(&t->w);
}

void TriangleListComper::TaskSpawn(const VertexT& v) {
  if (v.value.size() < 2) return;
  AddRoot(v.id, v.value);
}

bool TriangleListComper::Compute(TaskT* task, const Frontier& frontier) {
  uint64_t count = 0;
  auto list_root = [&](const VertexT& root, const Frontier& candidates) {
    const AdjList& root_gt = root.value;
    for (const VertexT* u : candidates) {
      simd::IntersectAdaptiveForEach(
          root_gt.data(), root_gt.size(), u->value.data(), u->value.size(),
          simd::Identity{}, simd::Identity{}, [&](size_t i, size_t) {
            // Records speak the caller's IDs: map each corner back and
            // re-sort, since the load-time layout need not preserve ID
            // order.
            std::array<VertexId, 3> t = {OriginalId(root.id),
                                         OriginalId(u->id),
                                         OriginalId(root_gt[i])};
            std::sort(t.begin(), t.end());
            Output(EncodeTriangle({t[0], t[1], t[2]}));
            ++count;
          });
    }
  };
  ForEachRoot(task->context(), frontier, list_root);
  if (count > 0) Aggregate(count);
  return false;
}

}  // namespace gthinker
