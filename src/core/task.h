#ifndef GTHINKER_CORE_TASK_H_
#define GTHINKER_CORE_TASK_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/codec.h"
#include "core/subgraph.h"
#include "core/vertex.h"
#include "graph/types.h"
#include "util/serializer.h"

namespace gthinker {

/// Paper Fig. 4 class (3): a task owns a subgraph `g` it constructs and mines
/// plus an app-defined `context` (e.g. the clique set S in Fig. 5). Pull(v)
/// requests Γ(v) for the *next* iteration: the framework resolves the pull
/// set P(t) when the task is popped for its next compute round (§V-B pop()).
///
/// ContextT serializes through Codec<ContextT> (core/codec.h): specialize it
/// for the context type (Bytes is optional — CodecBase defaults to sizeof).
/// Codec<T> is the only serialization customization point; the legacy
/// SerializeValue/DeserializeValue/ValueBytes ADL overloads are gone.
template <typename VertexValueT, typename ContextT>
class Task {
 public:
  using VertexT = Vertex<VertexValueT>;
  using SubgraphT = Subgraph<VertexT>;
  using ContextType = ContextT;

  Task() = default;

  /// Requests the adjacency list of `v` for the next iteration.
  void Pull(VertexId v) { pulls_.push_back(v); }

  /// P(t): the vertices this task waits for before its next compute call.
  const std::vector<VertexId>& pulls() const { return pulls_; }
  /// Takes the pull set, leaving pulls_ explicitly empty — NOT moved-from.
  /// A moved-from vector has valid-but-unspecified *capacity*, so a later
  /// Pull()/MemoryBytes() on the same task would read whatever the move left
  /// behind and skew the mem accounting; the swap-out below pins the
  /// post-take state to capacity 0.
  std::vector<VertexId> TakePulls() {
    std::vector<VertexId> out;
    out.swap(pulls_);
    return out;
  }
  void SetPulls(std::vector<VertexId> pulls) { pulls_ = std::move(pulls); }

  SubgraphT& subgraph() { return subgraph_; }
  const SubgraphT& subgraph() const { return subgraph_; }

  ContextT& context() { return context_; }
  const ContextT& context() const { return context_; }

  /// Number of compute() iterations already run on this task.
  uint32_t iteration() const { return iteration_; }
  void BumpIteration() { ++iteration_; }

  /// Span-trace identity (WorkerShared::NextSpanId). Transient: NOT
  /// serialized — a task reloaded from spill or received from a steal gets a
  /// fresh id at its new home, starting a new span there.
  uint64_t span_id() const { return span_id_; }
  void set_span_id(uint64_t id) { span_id_ = id; }

  /// App-owned scratch cached across a task's budgeted re-entries (e.g. the
  /// CompactGraph a budgeted app rebuilds each Compute call). Transient
  /// like span_id_: NOT serialized, reset on Deserialize, and excluded from
  /// MemoryBytes (so the paired Consume/Release accounting stays balanced
  /// across spills) — its footprint is bounded by the already-tracked
  /// subgraph. Apps must invalidate (set to nullptr) whenever the subgraph
  /// changes, i.e. on a non-empty frontier merge. Range children may share
  /// the parent's pointer: their subgraph is a copy of the parent's.
  const std::shared_ptr<void>& scratch() const { return scratch_; }
  void set_scratch(std::shared_ptr<void> s) { scratch_ = std::move(s); }

  int64_t MemoryBytes() const {
    return static_cast<int64_t>(sizeof(*this)) + subgraph_.MemoryBytes() +
           Codec<ContextT>::Bytes(context_) +
           static_cast<int64_t>(pulls_.capacity() * sizeof(VertexId));
  }

  void Serialize(Serializer& ser) const {
    ser.Write(iteration_);
    ser.WriteVector(pulls_);
    subgraph_.Serialize(ser);
    Codec<ContextT>::Encode(ser, context_);
  }

  Status Deserialize(Deserializer& des) {
    scratch_.reset();
    GT_RETURN_IF_ERROR(des.Read(&iteration_));
    GT_RETURN_IF_ERROR(des.ReadVector(&pulls_));
    GT_RETURN_IF_ERROR(subgraph_.Deserialize(des));
    GT_RETURN_IF_ERROR(Codec<ContextT>::Decode(des, &context_));
    // A context that indexes the pull list (RootBundle) checks it here.
    if constexpr (requires { Codec<ContextT>::CheckPulls(context_, 0); }) {
      return Codec<ContextT>::CheckPulls(context_, pulls_.size());
    }
    return Status::Ok();
  }

 private:
  SubgraphT subgraph_;
  ContextT context_{};
  std::vector<VertexId> pulls_;
  uint32_t iteration_ = 0;
  uint64_t span_id_ = 0;
  std::shared_ptr<void> scratch_;
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_TASK_H_
