#ifndef GTHINKER_APPS_MAXCLIQUE_APP_H_
#define GTHINKER_APPS_MAXCLIQUE_APP_H_

#include <cstddef>
#include <vector>

#include "apps/kernels.h"
#include "core/comper.h"
#include "core/task.h"

namespace gthinker {

/// Context of an MCF task: the vertex set S already assumed to be in the
/// clique (paper Fig. 5 uses t.S directly).
struct CliqueContext {
  std::vector<VertexId> s;
};

template <>
struct Codec<CliqueContext> {
  static void Encode(Serializer& ser, const CliqueContext& c) {
    ser.WriteVector(c.s);
  }
  static Status Decode(Deserializer& des, CliqueContext* c) {
    return des.ReadVector(&c->s);
  }
  static int64_t Bytes(const CliqueContext& c) {
    return static_cast<int64_t>(sizeof(CliqueContext) +
                                c.s.capacity() * sizeof(VertexId));
  }
};

using CliqueTask = Task<AdjList, CliqueContext>;

/// Maximum clique finding (MCF), the application of paper Fig. 5.
///
/// A task ⟨S, ext(S)⟩ holds S in its context and the subgraph induced by
/// ext(S) = Γ_>(S) in task->subgraph(). A root task pulls v first, reads
/// ext({v}) = Γ_>(v) from its row and builds that subgraph from the other
/// pulled rows in its first Compute. Tasks whose subgraph exceeds τ
/// vertices are decomposed into one child task per subgraph vertex;
/// small-enough subgraphs run the serial branch-and-bound kernel with the
/// aggregator's current best |S_max| as the pruning bound. Below the
/// KernelBitsetMaxVertices() threshold the kernel runs in BBMC bitset form
/// (see apps/kernels.h); τ and that threshold interact — split tasks are by
/// construction small enough for the bitset path when τ is under it.
///
/// It spawns hubs first (kSpawnHubsFirst): only a high-degree root can hold
/// a large clique, so mining those roots first finds a large S_max early,
/// and the TaskSpawn bound then prunes most low-degree roots outright
/// instead of mining them against a bound that is still small.
class MaxCliqueComper : public Comper<CliqueTask, std::vector<VertexId>> {
 public:
  static constexpr bool kSpawnHubsFirst = true;

  /// τ: subgraph-size split threshold (paper default 40,000 on billion-edge
  /// graphs; scaled to our inputs).
  explicit MaxCliqueComper(size_t tau = 400) : tau_(tau) {}

  void TaskSpawn(const VertexT& v) override;
  /// Precondition: the root's list and every pulled list are sorted
  /// ascending (the Graph invariant, kept by TrimToGreater); the ext(S)
  /// filter is a sorted-list intersection.
  bool Compute(TaskT* task, const Frontier& frontier) override;

  static AggT AggZero() { return {}; }
  /// Larger clique wins; equal sizes break lexicographically so the final
  /// answer is deterministic regardless of discovery order.
  static AggT AggMerge(const AggT& a, const AggT& b) {
    if (a.size() != b.size()) return a.size() > b.size() ? a : b;
    return a <= b ? a : b;
  }

 private:
  /// Runs the decompose-or-mine step on a task whose subgraph is built.
  /// Precondition: every subgraph list is sorted ascending (Compute's
  /// intersections keep them so); children's lists are intersections too.
  void Process(TaskT* task);

  size_t tau_;
};

}  // namespace gthinker

#endif  // GTHINKER_APPS_MAXCLIQUE_APP_H_
