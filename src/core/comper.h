#ifndef GTHINKER_CORE_COMPER_H_
#define GTHINKER_CORE_COMPER_H_

#include <memory>
#include <vector>

#include "core/root_bundle.h"
#include "core/task.h"
#include "core/vertex.h"
#include "util/logging.h"

namespace gthinker {

/// Paper Fig. 4 class (4): the user-facing mining-thread class with the two
/// UDFs. Subclass it, implement TaskSpawn/Compute, and (when using an
/// aggregator) define the AggT algebra:
///
///   class TriangleComper : public Comper<TriangleTask, uint64_t> {
///     void TaskSpawn(const VertexT& v) override { ... AddTask(...); ... }
///     bool Compute(TaskT* t, const Frontier& frontier) override { ... }
///     static AggT AggZero() { return 0; }
///     static AggT AggMerge(AggT a, AggT b) { return a + b; }
///   };
///
/// The runtime services (AddTask, AddRoot, Aggregate, CurrentAgg) are wired
/// in by the worker engine before any UDF runs. One Comper instance is driven
/// by one mining thread, so UDFs need no internal synchronization.
template <typename TaskT_, typename AggT_>
class Comper {
 public:
  using TaskT = TaskT_;
  using AggT = AggT_;
  using VertexT = typename TaskT::VertexT;
  using Frontier = std::vector<const VertexT*>;

  /// Runtime services implemented by the worker engine.
  class Runtime {
   public:
    virtual ~Runtime() = default;
    virtual void AddTask(std::unique_ptr<TaskT> task) = 0;
    virtual void Aggregate(const AggT& delta) = 0;
    virtual AggT CurrentAgg() const = 0;
    virtual void Output(std::string record) = 0;
    /// Maps a vertex ID the job speaks back to the caller's input ID
    /// (identity unless the job loaded its graph in hub-last order).
    virtual VertexId OriginalId(VertexId v) const { return v; }

    // ---- root bundling (core/root_bundle.h) ----
    void AddRoot(VertexId root, const std::vector<VertexId>& pulls) {
      bundle_.Add(root, pulls);
    }
    /// Closes the open bundle, if AddRoot filled it, into one AddTask. The
    /// worker calls it after every spawn batch, the engine's and the steal
    /// donation's alike, so no bundle spans two batches.
    void CloseRootBundle() {
      if constexpr (kBundlesRoots<TaskT>) {
        if (!bundle_.empty()) AddTask(bundle_.template Close<TaskT>());
      }
    }

   private:
    RootBundleBuilder bundle_;
  };

  virtual ~Comper() = default;

  /// UDF (i): spawn task(s) from a local vertex; call AddTask for each.
  virtual void TaskSpawn(const VertexT& v) = 0;

  /// UDF (ii): run one iteration of `task`. `frontier[i]` is the vertex the
  /// task pulled as pulls()[i] in its previous iteration (empty on a task
  /// that pulled nothing). Read the frontier in place: its vertices are
  /// released right after this returns, so a row a later iteration needs is
  /// either pulled again (Pull) or copied into task->subgraph(). Return true
  /// to run another iteration (after the new Pull()s are satisfied), false
  /// when the task is finished.
  ///
  /// The engine resolves the whole pull set of a task as one batch:
  /// remote pulls hit T_cache through `VertexCache::RequestBatch` (one
  /// bucket-lock acquisition per touched bucket, not per vertex) and the
  /// post-Compute releases go through `ReleaseBatch` the same way, so a
  /// wide frontier costs one lock round-trip per touched bucket instead of
  /// one per pulled vertex (DESIGN.md §4 "T_cache internals").
  virtual bool Compute(TaskT* task, const Frontier& frontier) = 0;

  // Default aggregator algebra (apps using aggregation shadow these).
  static AggT AggZero() { return AggT{}; }
  static AggT AggMerge(const AggT& a, const AggT& /*b*/) { return a; }

  /// Spawn order. Each worker spawns its local vertices in ascending ID; an
  /// app that shadows this with `true` spawns them in descending ID. Under
  /// the default hub-last layout (JobConfig::layout) that is hubs first, so
  /// a pruning app meets its large candidates early; with
  /// `layout.reorder = false` it is reverse input-ID order.
  static constexpr bool kSpawnHubsFirst = false;

  /// Adds a task to this comper's Q_task (usable from both UDFs). A task
  /// added from Compute — e.g. a child carrying part of an over-budget
  /// task's work (apps/split_context.h) — is one more creation in the
  /// conservation ledger, exactly like a spawned one; under span tracing
  /// its spawn event names the running task's span as its parent.
  void AddTask(std::unique_ptr<TaskT> task) {
    GT_CHECK(runtime_ != nullptr);
    runtime_->AddTask(std::move(task));
  }

  /// From TaskSpawn of a bundling app (TaskT = Task<V, RootBundle>): adds
  /// `root` and the vertices it pulls to the open root bundle instead of
  /// building a task. The runtime turns each spawn batch's roots into one
  /// task, and Compute reads them back through ForEachRoot.
  void AddRoot(VertexId root, const std::vector<VertexId>& pulls) {
    static_assert(kBundlesRoots<TaskT>,
                  "AddRoot needs a Task<V, RootBundle> comper");
    GT_CHECK(runtime_ != nullptr);
    runtime_->AddRoot(root, pulls);
  }

  /// Merges a delta into the worker-local aggregator.
  void Aggregate(const AggT& delta) {
    GT_CHECK(runtime_ != nullptr);
    runtime_->Aggregate(delta);
  }

  /// Freshest aggregated view (global ⊕ local).
  AggT CurrentAgg() const {
    GT_CHECK(runtime_ != nullptr);
    return runtime_->CurrentAgg();
  }

  /// Emits one opaque output record to the worker's output files (paper
  /// §IV (5): data export). Requires Job::output_dir to be set.
  void Output(std::string record) {
    GT_CHECK(runtime_ != nullptr);
    runtime_->Output(std::move(record));
  }

  /// The caller's input ID of vertex `v`. Vertex IDs inside a job follow
  /// the load-time layout (JobConfig::layout); an app that writes vertex IDs
  /// through Output maps them back with this. Identity without a runtime.
  VertexId OriginalId(VertexId v) const {
    return runtime_ != nullptr ? runtime_->OriginalId(v) : v;
  }

  void BindRuntime(Runtime* runtime) { runtime_ = runtime; }

 private:
  Runtime* runtime_ = nullptr;
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_COMPER_H_
