#ifndef GTHINKER_CORE_PULL_COALESCER_H_
#define GTHINKER_CORE_PULL_COALESCER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "graph/types.h"

namespace gthinker {

/// Per-destination vertex-pull batching with in-window deduplication.
///
/// Paper §V-C batches pull requests per destination worker to amortize the
/// per-message cost; this refines that with two rules on the send side:
///
///   1. Dedup: many concurrent tasks on one worker often want the same hot
///      vertex (a high-degree hub reached through different seeds). While an
///      ID sits in the open batch ("in flight within the flush window"),
///      re-adds are dropped — the single eventual kVertexResponse record
///      satisfies every waiting task through the VertexCache's R-table,
///      which already keeps one waiter list per requested vertex.
///   2. Flush: a destination's batch is sent when it reaches `max_ids`
///      (comm.request_batch_size) IDs, or on the comm thread's next Flush()
///      (its receive wait shrinks to Worker::kCommPollUs while IDs are
///      open), so a partial batch waits at most one poll slice.
///
/// Thread model: compers call Add() concurrently; the comm thread calls
/// Flush() for every destination after each receive wait. Each destination
/// has its own mutex, so pulls to different workers never contend.
class PullCoalescer {
 public:
  /// `max_ids`: open IDs per destination that trigger a flush.
  PullCoalescer(int num_workers, int64_t max_ids)
      : buffers_(num_workers), max_ids_(max_ids < 1 ? 1 : max_ids) {}

  /// Queues `id` for destination `dst`. Returns true and fills *batch when
  /// the add tripped a flush threshold (the caller sends the batch);
  /// otherwise the ID rides along with a later flush. Duplicate IDs within
  /// the open window are dropped (counted in deduped()).
  bool Add(int dst, VertexId id, std::vector<VertexId>* batch) {
    Buffer& buf = buffers_[dst];
    std::lock_guard<std::mutex> lock(buf.mutex);
    if (!buf.pending.insert(id).second) {
      deduped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    buf.ids.push_back(id);
    open_ids_.fetch_add(1, std::memory_order_relaxed);
    if (static_cast<int64_t>(buf.ids.size()) >= max_ids_) {
      TakeLocked(buf, batch);
      return true;
    }
    return false;
  }

  /// Drains destination `dst`'s open batch. Returns true when *batch is
  /// non-empty.
  bool Flush(int dst, std::vector<VertexId>* batch) {
    Buffer& buf = buffers_[dst];
    std::lock_guard<std::mutex> lock(buf.mutex);
    if (buf.ids.empty()) return false;
    TakeLocked(buf, batch);
    return true;
  }

  int num_destinations() const { return static_cast<int>(buffers_.size()); }

  /// IDs dropped because an identical request was already in flight.
  int64_t deduped() const { return deduped_.load(std::memory_order_relaxed); }

  /// True while any destination has an open (sub-threshold) batch. Lets the
  /// comm thread wait event-driven when idle but keep the short flush
  /// cadence while pulls are buffered. Racy by design: a concurrent Add may
  /// land just after a false reading and waits at most one receive timeout.
  bool HasPending() const {
    return open_ids_.load(std::memory_order_relaxed) > 0;
  }

 private:
  struct Buffer {
    std::mutex mutex;
    std::vector<VertexId> ids;
    std::unordered_set<VertexId> pending;  // dedup set for the open window
  };

  void TakeLocked(Buffer& buf, std::vector<VertexId>* batch) {
    open_ids_.fetch_sub(static_cast<int64_t>(buf.ids.size()),
                        std::memory_order_relaxed);
    batch->clear();
    batch->swap(buf.ids);
    buf.pending.clear();
  }

  std::vector<Buffer> buffers_;
  const int64_t max_ids_;
  std::atomic<int64_t> deduped_{0};
  std::atomic<int64_t> open_ids_{0};  // IDs across all open windows
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_PULL_COALESCER_H_
