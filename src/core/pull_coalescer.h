#ifndef GTHINKER_CORE_PULL_COALESCER_H_
#define GTHINKER_CORE_PULL_COALESCER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "graph/types.h"

namespace gthinker {

/// Vertex IDs per wire request batch: Worker's coalescer flushes a
/// destination at this many open IDs.
inline constexpr int64_t kRequestBatchSize = 256;

/// Per-destination vertex-pull batching.
///
/// Paper §V-C batches pull requests per destination worker to amortize the
/// per-message cost. A destination's batch is sent when it reaches `max_ids`
/// (kRequestBatchSize in a Worker) IDs, or on the comm thread's next
/// Flush(): the Add that opens the first window wakes the comm thread, whose
/// receive wait then shrinks to Worker::kCommPollUs while IDs are open, so a
/// partial batch waits about one poll slice.
///
/// There is no dedup here: the VertexCache's R-table already merges
/// concurrent pulls of one vertex, so an ID reaches Add() at most once until
/// its response lands, and that needs the open batch flushed first.
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
  /// otherwise the ID rides along with a later flush. `opened`, if given, is
  /// set when this ID found no window open at any destination (HasPending()
  /// was false), so the caller can wake the flushing thread.
  bool Add(int dst, VertexId id, std::vector<VertexId>* batch,
           bool* opened = nullptr) {
    Buffer& buf = buffers_[dst];
    std::lock_guard<std::mutex> lock(buf.mutex);
    buf.ids.push_back(id);
    const int64_t before = open_ids_.fetch_add(1, std::memory_order_relaxed);
    if (opened != nullptr) *opened = before == 0;
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

  /// True while any destination has an open (sub-threshold) batch. Lets the
  /// comm thread wait event-driven when idle but keep the short flush
  /// cadence while pulls are buffered. Racy by design: an Add landing just
  /// after a false reading reports `opened` and wakes the comm thread.
  bool HasPending() const {
    return open_ids_.load(std::memory_order_relaxed) > 0;
  }

 private:
  struct Buffer {
    std::mutex mutex;
    std::vector<VertexId> ids;
  };

  void TakeLocked(Buffer& buf, std::vector<VertexId>* batch) {
    open_ids_.fetch_sub(static_cast<int64_t>(buf.ids.size()),
                        std::memory_order_relaxed);
    batch->clear();
    batch->swap(buf.ids);
  }

  std::vector<Buffer> buffers_;
  const int64_t max_ids_;
  std::atomic<int64_t> open_ids_{0};  // IDs across all open windows
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_PULL_COALESCER_H_
