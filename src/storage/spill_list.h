#ifndef GTHINKER_STORAGE_SPILL_LIST_H_
#define GTHINKER_STORAGE_SPILL_LIST_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace gthinker {

/// The paper's L_file (§V-B, Fig. 7): one worker's concurrent list of
/// spilled task batches. A comper appends a batch when its Q_task
/// overflows and refills from the front (oldest first, which keeps the
/// number of disk-resident tasks minimal); a steal donates from the back,
/// so the donor keeps its oldest work. Stolen and checkpoint-restored
/// batches are appended like spills.
///
/// The list owns its batches. A writer thread, started by the first
/// PushBack, writes them to `SpillFile`s in `dir` (created on the first
/// write) oldest first, so the list is always laid out as
///
///   [ written ... | in flight (at most one) | unwritten ... ]
///
/// PushBack appends and pops take only from the two ends, so a pop needs
/// no lookup: an unwritten end batch is handed back from memory and its
/// write is cancelled (it never touches disk), and a written batch is read
/// from its file, which is then deleted. A pop that finds its end batch in
/// flight takes it off the list at once, so the next pop moves on to the
/// next batch, and waits for the write to land before reading it back.
/// Every batch read back must hold the record count it was pushed with; a
/// drift is fatal.
///
/// The class is obs-free (storage does not depend on src/obs): the worker
/// installs observers that route disk timings into its histograms and
/// reads `QueueDepth` for the spill.queue_depth gauge.
class SpillList {
 public:
  struct Stats {
    std::atomic<int64_t> mem_hits{0};  // pops served from memory
    std::atomic<int64_t> reads{0};     // pops read back from disk
    std::atomic<int64_t> peak_queue_depth{0};
  };

  /// Disk observer: (µs, bytes) of one batch write or read.
  using Observer = std::function<void(int64_t, int64_t)>;

  explicit SpillList(std::string dir) : dir_(std::move(dir)) {}
  ~SpillList() { Stop(); }

  SpillList(const SpillList&) = delete;
  SpillList& operator=(const SpillList&) = delete;

  /// The write observer runs on the writer thread after each write, the
  /// read observer in a pop after each disk read. Install before the
  /// first PushBack.
  void SetWriteObserver(Observer fn) { write_observer_ = std::move(fn); }
  void SetReadObserver(Observer fn) { read_observer_ = std::move(fn); }

  /// Appends one batch; it is poppable at once, from any thread.
  void PushBack(std::vector<std::string> records);

  /// Pops the oldest batch into *records; false when the list is empty.
  bool PopFront(std::vector<std::string>* records) {
    return Pop(/*front=*/true, records);
  }

  /// Pops the newest batch into *records; false when the list is empty.
  bool PopBack(std::vector<std::string>* records) {
    return Pop(/*front=*/false, records);
  }

  /// Exact number of task records across all listed batches.
  int64_t TotalRecords() const;

  /// Batches not yet on disk (the one being written included).
  int64_t QueueDepth() const;

  /// Appends every listed batch's records to *records in list order,
  /// without popping (checkpoints): written batches are read from their
  /// files, the others copied from memory.
  void CopyRecords(std::vector<std::string>* records) const;

  /// Lets the in-flight write finish and joins the writer; batches it has
  /// not written stay in memory and poppable. Idempotent; no PushBack may
  /// follow.
  void Stop();

  const Stats& stats() const { return stats_; }

 private:
  struct Batch {
    std::vector<std::string> records;  // emptied once the file is written
    std::string path;                  // set once the file is written
    int64_t count = 0;
  };

  bool Pop(bool front, std::vector<std::string>* records);
  void WriterLoop();

  const std::string dir_;
  Observer write_observer_;
  Observer read_observer_;

  mutable std::mutex mutex_;
  std::condition_variable cv_work_;  // PushBack / Stop -> writer
  std::condition_variable cv_done_;  // writer -> pops of an in-flight batch
  /// Heap nodes: a batch popped in flight stays where the writer reads it.
  std::deque<std::unique_ptr<Batch>> batches_;
  size_t written_ = 0;  // batches_[0, written_) are on disk
  /// The batch being written, listed at batches_[written_] until a pop
  /// takes it; null while the writer sleeps.
  const Batch* writing_ = nullptr;
  int64_t total_records_ = 0;
  bool stop_ = false;

  std::thread writer_;
  Stats stats_;
};

}  // namespace gthinker

#endif  // GTHINKER_STORAGE_SPILL_LIST_H_
