#ifndef GTHINKER_CORE_ROOT_BUNDLE_H_
#define GTHINKER_CORE_ROOT_BUNDLE_H_

#include <algorithm>
#include <bit>
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
    // Slots, offsets and Close()'s occurrence indices are 32-bit.
    GT_CHECK_LE(ids_.size(), size_t{UINT32_MAX}) << "root bundle too large";
    ends_.push_back(static_cast<uint32_t>(ids_.size()));
  }

  /// Moves the open roots into a new task: its pull list is their IDs
  /// deduplicated (ascending), and each occurrence becomes a slot into it.
  /// A stable LSD radix sort orders the 32-bit occurrence indices by ID, 11
  /// bits a pass, ceil(bits(max ID) / 11) passes (2 below 2^22 IDs); one walk
  /// over that order then dedups the pull list and writes every slot. Peak
  /// scratch is the index pair, 8 bytes per occurrence; the second index
  /// buffer is freed before the pulls and slots are built. Keeps no scratch
  /// between bundles, so an idle runtime holds no memory.
  template <typename TaskT>
  std::unique_ptr<TaskT> Close() {
    static_assert(kBundlesRoots<TaskT>);
    static_assert(std::is_same_v<VertexId, uint32_t>,
                  "Close() sorts 32-bit IDs");
    auto task = std::make_unique<TaskT>();
    RootBundle& bundle = task->context();
    const std::vector<uint32_t> order = SortOccurrences();
    size_t distinct = 0;
    for (size_t k = 0; k < order.size(); ++k) {
      distinct += k == 0 || ids_[order[k]] != ids_[order[k - 1]];
    }
    std::vector<VertexId> pulls;
    pulls.reserve(distinct);
    bundle.slots.resize(order.size());
    for (uint32_t occurrence : order) {
      const VertexId id = ids_[occurrence];
      if (pulls.empty() || pulls.back() != id) pulls.push_back(id);
      bundle.slots[occurrence] = static_cast<uint32_t>(pulls.size() - 1);
    }
    ids_ = {};
    bundle.ends = std::move(ends_);
    ends_ = {};
    task->SetPulls(std::move(pulls));
    return task;
  }

 private:
  static constexpr int kRadixBits = 11;

  /// The occurrence indices 0..n-1 of ids_, stably sorted by ID: equal IDs
  /// turn adjacent in occurrence order.
  std::vector<uint32_t> SortOccurrences() const {
    constexpr uint32_t kBuckets = 1u << kRadixBits;
    VertexId max_id = 0;
    for (VertexId id : ids_) max_id = std::max(max_id, id);
    const int bits = static_cast<int>(std::bit_width(max_id));
    const int passes = std::max(1, (bits + kRadixBits - 1) / kRadixBits);
    // One scan counts every pass's digits; each count becomes its bucket's
    // first output position.
    std::vector<uint32_t> starts(static_cast<size_t>(passes) * kBuckets);
    for (VertexId id : ids_) {
      for (int p = 0; p < passes; ++p) {
        ++starts[p * kBuckets + ((id >> (p * kRadixBits)) & (kBuckets - 1))];
      }
    }
    for (int p = 0; p < passes; ++p) {
      uint32_t* start = starts.data() + p * kBuckets;
      uint32_t sum = 0;
      for (uint32_t b = 0; b < kBuckets; ++b) {
        sum += std::exchange(start[b], sum);
      }
    }
    const auto n = static_cast<uint32_t>(ids_.size());
    std::vector<uint32_t> order(n);
    std::vector<uint32_t> next(n);
    // Pass 0 scatters the identity order, so it reads ids_ sequentially.
    for (uint32_t i = 0; i < n; ++i) {
      order[starts[ids_[i] & (kBuckets - 1)]++] = i;
    }
    for (int p = 1; p < passes; ++p) {
      uint32_t* start = starts.data() + p * kBuckets;
      for (uint32_t i : order) {
        next[start[(ids_[i] >> (p * kRadixBits)) & (kBuckets - 1)]++] = i;
      }
      order.swap(next);
    }
    return order;
  }

  std::vector<VertexId> ids_;  // roots and candidates, in AddRoot order
  std::vector<uint32_t> ends_;
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_ROOT_BUNDLE_H_
