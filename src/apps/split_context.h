#ifndef GTHINKER_APPS_SPLIT_CONTEXT_H_
#define GTHINKER_APPS_SPLIT_CONTEXT_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/codec.h"
#include "graph/types.h"
#include "util/logging.h"
#include "util/serializer.h"
#include "util/status.h"
#include "util/timer.h"

namespace gthinker {

/// Shards per split: the parent narrows to the first shard and
/// kSplitFanout-1 new tasks own the rest.
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
    GT_RETURN_IF_ERROR(des.Read(&c->end));
    // A kernel runs no candidate of such a range, so the task's share of
    // the answer would silently go missing.
    if (c->begin > c->end) {
      return Status::Corruption("split context: range begins past its end");
    }
    return Status::Ok();
  }
};

/// Per-Compute time budget of the range-decomposable apps (codesign
/// follow-up, PAPERS.md: time-delayed task decomposition). 0 = never split.
/// Each comper owns one, and Compute() restarts it on entry.
class ComputeBudget {
 public:
  explicit ComputeBudget(int64_t budget_us) : budget_us_(budget_us) {
    GT_CHECK_GE(budget_us, 0) << "compute budget must be >= 0 us";
  }

  bool armed() const { return budget_us_ > 0; }

  /// Starts one Compute() call's clock and returns the range kernels' yield
  /// hook (apps/kernels.h): true once the call has overrun the budget. Null
  /// when unarmed, so the kernel runs its range to completion.
  std::function<bool()> Start() {
    if (!armed()) return nullptr;
    timer_.Restart();
    return [this] { return timer_.ElapsedMicros() >= budget_us_; };
  }

 private:
  const int64_t budget_us_;
  Timer timer_;
};

/// Shared split skeleton of the range-decomposable apps, run from Compute()
/// after a budget overrun narrowed the task's range to its unmined suffix
/// and set its pulls to the task's members, root first: narrows `task` in
/// place to the first shard of that range and returns up to kSplitFanout-1
/// new children owning the later shards, each pulling the same members. The
/// app passes each child to AddTask and returns true, so the narrowed parent
/// requeues behind them; it and every child compact their members again
/// from the frontier. Returns no children — leaving the task untouched —
/// when fewer than two candidates remain.
template <typename TaskT>
std::vector<std::unique_ptr<TaskT>> SplitByCandidateRange(TaskT* task) {
  std::vector<std::unique_ptr<TaskT>> children;
  SplitCtx& ctx = task->context();
  GT_CHECK(ctx.end != SplitCtx::kUnbounded)
      << "split of a task that never yielded on its budget";
  GT_CHECK(!task->pulls().empty() && task->pulls().front() == ctx.root)
      << "split of a task that does not pull its members, root first";
  if (ctx.end <= ctx.begin) return children;
  const uint64_t remaining = ctx.end - ctx.begin;
  const uint64_t shards =
      std::min<uint64_t>(static_cast<uint64_t>(kSplitFanout), remaining);
  if (shards < 2) return children;
  const uint64_t size = remaining / shards;
  const uint64_t rem = remaining % shards;
  // Shard i owns [begin + i*size + min(i, rem), ...): the first `rem`
  // shards get one extra candidate, partitioning [begin, end) exactly.
  const auto shard_begin = [&ctx, size, rem](uint64_t i) {
    return ctx.begin + i * size + std::min(i, rem);
  };
  const uint64_t parent_end = ctx.end;
  for (uint64_t i = 1; i < shards; ++i) {
    auto child = std::make_unique<TaskT>();
    child->SetPulls(task->pulls());
    child->context().root = ctx.root;
    child->context().begin = shard_begin(i);
    child->context().end = i + 1 < shards ? shard_begin(i + 1) : parent_end;
    children.push_back(std::move(child));
  }
  ctx.end = shard_begin(1);
  return children;
}

}  // namespace gthinker

#endif  // GTHINKER_APPS_SPLIT_CONTEXT_H_
