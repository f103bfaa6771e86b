#ifndef GTHINKER_STORAGE_ASYNC_SPILL_H_
#define GTHINKER_STORAGE_ASYNC_SPILL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/status.h"

namespace gthinker {

/// Asynchronous spill writer for the §V-B scheduler: one thread per worker
/// decouples compers from spill-file write latency.
///
/// Write side: `Submit` reserves a unique spill path, queues the batch, and
/// returns immediately — the comper pushes the path into L_file and moves on
/// while the thread drains the queue to disk (double-buffered: producers
/// append to the pending queue while the thread writes the batch it popped).
/// The thread sleeps until a Submit or Stop wakes it.
/// Read side: `Fetch` hands back a still-pending batch and cancels its write
/// (the batch never touches disk), waits for a batch being written, and
/// otherwise reads the file synchronously and deletes it.
///
/// Consistency rules that keep the scheduler/checkpoint protocols intact:
///   * a Submitted path is valid for Fetch immediately, in any thread;
///   * `Flush` is a barrier after which every surviving batch is durable on
///     disk (DoCheckpoint calls it before snapshotting L_file, because the
///     checkpoint reads spill files without popping them).
///
/// The class is obs-free (storage layer does not depend on src/obs); the
/// worker installs observers to route write/read timings into its
/// histograms, and polls `QueueDepth` for the spill.queue_depth gauge.
class AsyncSpillIo {
 public:
  struct Stats {
    std::atomic<int64_t> mem_hits{0};  // Fetch served from pending queue
    std::atomic<int64_t> reads{0};     // synchronous disk reads in Fetch
    std::atomic<int64_t> peak_queue_depth{0};
  };

  AsyncSpillIo() = default;
  ~AsyncSpillIo();

  AsyncSpillIo(const AsyncSpillIo&) = delete;
  AsyncSpillIo& operator=(const AsyncSpillIo&) = delete;

  /// Timing observers (µs, bytes): the write observer runs on the thread
  /// after each disk write, the read observer in Fetch after each disk read.
  /// Install before Start.
  void SetWriteObserver(std::function<void(int64_t, int64_t)> fn) {
    write_observer_ = std::move(fn);
  }
  void SetReadObserver(std::function<void(int64_t, int64_t)> fn) {
    read_observer_ = std::move(fn);
  }

  void Start();

  /// Drains pending writes to disk and joins the thread. Idempotent; called
  /// from the destructor if needed.
  void Stop();

  /// Queues `records` for writing and returns the reserved spill path. The
  /// path is immediately Fetch-able and safe to publish to L_file.
  std::string Submit(const std::string& dir,
                     std::vector<std::string> records);

  /// Retrieves the batch at `path`, from memory when possible, and removes
  /// it (a pending write is cancelled; a disk file is deleted). Mirrors
  /// SpillFile::ReadBatchAndDelete. `bytes`, when non-null, receives the
  /// serialized batch size regardless of where the batch was found.
  Status Fetch(const std::string& path, std::vector<std::string>* records,
               int64_t* bytes = nullptr);

  /// Blocks until every batch submitted so far is durable on disk.
  void Flush();

  /// Batches submitted but not yet written (includes the one being written).
  int64_t QueueDepth() const;

  const Stats& stats() const { return stats_; }

 private:
  struct PendingWrite {
    std::string path;
    std::vector<std::string> records;
  };

  void ThreadLoop();
  /// Serialized size of a batch in SpillFile format (u64 count, then u64
  /// length + payload per record) — lets mem-hits report the same byte
  /// counts a disk round-trip would.
  static int64_t EncodedSize(const std::vector<std::string>& records);

  std::function<void(int64_t, int64_t)> write_observer_;
  std::function<void(int64_t, int64_t)> read_observer_;

  mutable std::mutex mutex_;
  std::condition_variable cv_work_;  // producers -> thread
  std::condition_variable cv_done_;  // thread -> Flush / waiting Fetch
  std::deque<PendingWrite> pending_;
  std::string writing_path_;  // non-empty while a write is in flight
  bool stop_ = false;
  bool started_ = false;

  std::thread thread_;
  Stats stats_;
};

}  // namespace gthinker

#endif  // GTHINKER_STORAGE_ASYNC_SPILL_H_
