#ifndef GTHINKER_CORE_ROOT_BUNDLE_H_
#define GTHINKER_CORE_ROOT_BUNDLE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/codec.h"
#include "graph/types.h"
#include "util/logging.h"
#include "util/serializer.h"
#include "util/status.h"

namespace gthinker {

/// Task context of a root bundle: the roots one spawn batch produced, run as
/// one task (task bundling, the paper's §VI future work, ref [38]). A bundle
/// carries only IDs. Its task's pull list holds every root and candidate of
/// the batch once, and root i owns slots[ends[i-1] .. ends[i]) (ends[-1] =
/// 0), which index that list, its own vertex first. An app opts in by using
/// Task<V, RootBundle> and calling Comper::AddRoot from TaskSpawn; the
/// runtime closes the bundle after every spawn batch. The slots index the
/// pull list the bundle was built with, so a bundle task runs one iteration.
struct RootBundle {
  std::vector<uint32_t> ends;   // one per root, strictly increasing
  std::vector<uint32_t> slots;  // indices into the task's pull list

  /// Number of roots; a bundle weighs this much in the Q_task bounds.
  size_t size() const { return ends.size(); }
};

template <>
struct Codec<RootBundle> {
  static void Encode(Serializer& ser, const RootBundle& b) {
    ser.WriteVector(b.ends);
    ser.WriteVector(b.slots);
  }
  static Status Decode(Deserializer& des, RootBundle* b) {
    GT_RETURN_IF_ERROR(des.ReadVector(&b->ends));
    GT_RETURN_IF_ERROR(des.ReadVector(&b->slots));
    uint32_t prev = 0;
    for (uint32_t end : b->ends) {
      if (end <= prev) {
        return Status::Corruption("root bundle: offsets not increasing");
      }
      prev = end;
    }
    if (prev != b->slots.size()) {
      return Status::Corruption("root bundle: offsets end off the slots");
    }
    return Status::Ok();
  }
  /// Task::Deserialize's check against the pull list decoded before it.
  static Status CheckPulls(const RootBundle& b, size_t num_pulls) {
    for (uint32_t slot : b.slots) {
      if (slot >= num_pulls) {
        return Status::Corruption("root bundle: slot outside the pull list");
      }
    }
    return Status::Ok();
  }
  static int64_t Bytes(const RootBundle& b) {
    return static_cast<int64_t>(
        sizeof(RootBundle) +
        (b.ends.capacity() + b.slots.capacity()) * sizeof(uint32_t));
  }
};

/// True for tasks whose context is a RootBundle (apps that bundle roots).
template <typename TaskT>
inline constexpr bool kBundlesRoots =
    std::is_same_v<typename TaskT::ContextType, RootBundle>;

/// A task's weight in the Q_task bounds and the in-flight cap D: its root
/// count for a bundle, 1 for every other task, so the bounds count roots.
template <typename TaskT>
size_t TaskWeight(const TaskT& task) {
  if constexpr (kBundlesRoots<TaskT>) {
    return std::max<size_t>(1, task.context().size());
  } else {
    return 1;
  }
}

/// Compute()'s view of a bundle: calls fn(root, candidates) for each root,
/// with its vertex and candidate vertices gathered out of the frontier
/// (frontier[i] is pull i).
template <typename VertexT, typename Fn>
void ForEachRoot(const RootBundle& bundle,
                 const std::vector<const VertexT*>& frontier, Fn&& fn) {
  std::vector<const VertexT*> candidates;
  uint32_t begin = 0;
  for (uint32_t end : bundle.ends) {
    candidates.clear();
    for (uint32_t k = begin + 1; k < end; ++k) {
      candidates.push_back(frontier[bundle.slots[k]]);
    }
    fn(*frontier[bundle.slots[begin]], candidates);
    begin = end;
  }
}

/// The open bundle a runtime fills through Comper::AddRoot until the spawn
/// batch ends and it closes the bundle into one task.
class RootBundleBuilder {
 public:
  bool empty() const { return ends_.empty(); }

  void Add(VertexId root, const std::vector<VertexId>& pulls) {
    ids_.push_back(root);
    ids_.insert(ids_.end(), pulls.begin(), pulls.end());
    // Slots and offsets are 32-bit, and Close() packs an occurrence in 32.
    GT_CHECK_LE(ids_.size(), size_t{UINT32_MAX}) << "root bundle too large";
    ends_.push_back(static_cast<uint32_t>(ids_.size()));
  }

  /// Moves the open roots into a new task: its pull list is their IDs
  /// deduplicated (ascending), and each occurrence becomes a slot into it.
  /// Keeps no scratch between bundles, so an idle runtime holds no memory.
  template <typename TaskT>
  std::unique_ptr<TaskT> Close() {
    static_assert(kBundlesRoots<TaskT>);
    static_assert(sizeof(VertexId) <= 4, "Close() packs an ID in 32 bits");
    auto task = std::make_unique<TaskT>();
    RootBundle& bundle = task->context();
    // Sort (id, occurrence) pairs packed in one word: equal IDs turn
    // adjacent, and each keeps its occurrence to point its slot back.
    std::vector<uint64_t> keyed(ids_.size());
    for (size_t i = 0; i < ids_.size(); ++i) {
      keyed[i] = (static_cast<uint64_t>(ids_[i]) << 32) | i;
    }
    ids_ = {};
    std::sort(keyed.begin(), keyed.end());
    size_t distinct = 0;
    for (size_t k = 0; k < keyed.size(); ++k) {
      distinct += k == 0 || (keyed[k] >> 32) != (keyed[k - 1] >> 32);
    }
    std::vector<VertexId> pulls;
    pulls.reserve(distinct);
    bundle.slots.resize(keyed.size());
    for (uint64_t key : keyed) {
      const auto id = static_cast<VertexId>(key >> 32);
      if (pulls.empty() || pulls.back() != id) pulls.push_back(id);
      bundle.slots[key & 0xffffffffu] = static_cast<uint32_t>(pulls.size() - 1);
    }
    bundle.ends = std::move(ends_);
    ends_ = {};
    task->SetPulls(std::move(pulls));
    return task;
  }

 private:
  std::vector<VertexId> ids_;  // roots and candidates, in AddRoot order
  std::vector<uint32_t> ends_;
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_ROOT_BUNDLE_H_
