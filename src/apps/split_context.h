#ifndef GTHINKER_APPS_SPLIT_CONTEXT_H_
#define GTHINKER_APPS_SPLIT_CONTEXT_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/codec.h"
#include "graph/types.h"
#include "util/logging.h"
#include "util/serializer.h"
#include "util/status.h"

namespace gthinker {

/// Children per engine-side split: the parent narrows to the first shard
/// and kSplitFanout-1 new tasks own the rest.
inline constexpr int kSplitFanout = 4;

/// Shared task context of the decomposable mining apps: the root vertex plus
/// the half-open top-level candidate range [begin, end) this task owns, in
/// ascending-original-ID position order (the stable order the range kernels
/// in apps/kernels.h iterate). `end == kUnbounded` means "every candidate";
/// it is pinned to the real candidate count the first time the task yields
/// on its compute budget, so ranges stay meaningful across serialization,
/// spills and steals.
struct SplitCtx {
  static constexpr uint64_t kUnbounded = ~uint64_t{0};

  VertexId root = 0;
  uint64_t begin = 0;
  uint64_t end = kUnbounded;
};

template <>
struct Codec<SplitCtx> : CodecBase<SplitCtx> {
  static void Encode(Serializer& ser, const SplitCtx& c) {
    ser.Write(c.root);
    ser.Write(c.begin);
    ser.Write(c.end);
  }
  static Status Decode(Deserializer& des, SplitCtx* c) {
    GT_RETURN_IF_ERROR(des.Read(&c->root));
    GT_RETURN_IF_ERROR(des.Read(&c->begin));
    return des.Read(&c->end);
  }
};

/// Shared Split() skeleton of the range-decomposable apps: narrows `task` in
/// place to the first shard of its candidate range and appends up to
/// kSplitFanout-1 new children owning the later shards, each with a full
/// copy of the parent's subgraph and the parent's generation + 1. Only a
/// budget overrun requests a split, and the overrun already pinned the
/// range. Returns false — leaving the task untouched — when fewer than two
/// candidates remain.
template <typename TaskT>
bool SplitByCandidateRange(TaskT* task,
                           std::vector<std::unique_ptr<TaskT>>* children) {
  SplitCtx& ctx = task->context();
  // The overrun happens while mining, after every pull has been merged, so
  // the children's subgraph copies never need a re-pull round-trip.
  GT_CHECK(ctx.end != SplitCtx::kUnbounded && task->pulls().empty())
      << "split of a task that never yielded on its budget";
  if (ctx.end <= ctx.begin) return false;
  const uint64_t remaining = ctx.end - ctx.begin;
  const uint64_t shards =
      std::min<uint64_t>(static_cast<uint64_t>(kSplitFanout), remaining);
  if (shards < 2) return false;
  const uint64_t size = remaining / shards;
  const uint64_t rem = remaining % shards;
  // Shard i owns [begin + i*size + min(i, rem), ...): the first `rem`
  // shards get one extra candidate, partitioning [begin, end) exactly.
  const auto shard_begin = [&ctx, size, rem](uint64_t i) {
    return ctx.begin + i * size + std::min(i, rem);
  };
  const uint64_t parent_end = ctx.end;
  const uint32_t depth = task->split_depth() + 1;
  for (uint64_t i = 1; i < shards; ++i) {
    auto child = std::make_unique<TaskT>();
    child->subgraph() = task->subgraph();
    // The child's subgraph is a copy of the parent's, so the parent's cached
    // compact form (if any) is valid for the child too: share, don't rebuild.
    // A child that is later serialized (spill/steal) drops it on Deserialize.
    child->set_scratch(task->scratch());
    child->context().root = ctx.root;
    child->context().begin = shard_begin(i);
    child->context().end = i + 1 < shards ? shard_begin(i + 1) : parent_end;
    child->set_split_depth(depth);
    children->push_back(std::move(child));
  }
  ctx.end = shard_begin(1);
  task->set_split_depth(depth);
  return true;
}

}  // namespace gthinker

#endif  // GTHINKER_APPS_SPLIT_CONTEXT_H_
