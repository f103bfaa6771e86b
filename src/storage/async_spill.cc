#include "storage/async_spill.h"

#include "storage/spill_file.h"
#include "util/logging.h"
#include "util/timer.h"

namespace gthinker {

AsyncSpillIo::~AsyncSpillIo() { Stop(); }

void AsyncSpillIo::Start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    GT_CHECK(!started_) << "AsyncSpillIo started twice";
    started_ = true;
    stop_ = false;
  }
  thread_ = std::thread(&AsyncSpillIo::ThreadLoop, this);
}

void AsyncSpillIo::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_ || stop_) {
      if (thread_.joinable()) thread_.join();
      return;
    }
    stop_ = true;
  }
  cv_work_.notify_all();
  if (thread_.joinable()) thread_.join();
}

int64_t AsyncSpillIo::EncodedSize(const std::vector<std::string>& records) {
  int64_t bytes = static_cast<int64_t>(sizeof(uint64_t));
  for (const std::string& r : records) {
    bytes += static_cast<int64_t>(sizeof(uint64_t) + r.size());
  }
  return bytes;
}

std::string AsyncSpillIo::Submit(const std::string& dir,
                                 std::vector<std::string> records) {
  std::string path = SpillFile::ReservePath(dir);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    GT_CHECK(started_ && !stop_) << "Submit on stopped AsyncSpillIo";
    pending_.push_back(PendingWrite{path, std::move(records)});
    const int64_t depth = static_cast<int64_t>(pending_.size()) +
                          (writing_path_.empty() ? 0 : 1);
    if (depth > stats_.peak_queue_depth.load(std::memory_order_relaxed)) {
      stats_.peak_queue_depth.store(depth, std::memory_order_relaxed);
    }
  }
  cv_work_.notify_one();
  return path;
}

Status AsyncSpillIo::Fetch(const std::string& path,
                           std::vector<std::string>* records, int64_t* bytes) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // 1. Still queued: cancel the write and hand the batch back — the
    // round-trip never touches disk.
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->path == path) {
        *records = std::move(it->records);
        pending_.erase(it);
        stats_.mem_hits.fetch_add(1, std::memory_order_relaxed);
        if (bytes != nullptr) *bytes = EncodedSize(*records);
        // Cancelling the write may have emptied the queue: a Flush blocked
        // on the drain predicate has to be woken here, because the writer
        // thread will find nothing to write and never notify again.
        cv_done_.notify_all();
        return Status::Ok();
      }
    }
    // 2. Being written: wait for it to land, then read it like any other.
    cv_done_.wait(lock, [&] { return writing_path_ != path; });
  }
  // 3. On disk: a synchronous read that deletes the file.
  Timer read_timer;
  int64_t read_bytes = 0;
  Status st = SpillFile::ReadBatchAndDelete(path, records, &read_bytes);
  const int64_t us = read_timer.ElapsedMicros();
  if (st.ok()) {
    stats_.reads.fetch_add(1, std::memory_order_relaxed);
    if (read_observer_) read_observer_(us, read_bytes);
    if (bytes != nullptr) *bytes = read_bytes;
  }
  return st;
}

void AsyncSpillIo::Flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock,
                [&] { return pending_.empty() && writing_path_.empty(); });
}

int64_t AsyncSpillIo::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(pending_.size()) +
         (writing_path_.empty() ? 0 : 1);
}

void AsyncSpillIo::ThreadLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_work_.wait(lock, [&] { return stop_ || !pending_.empty(); });
    if (pending_.empty()) break;  // stop_ with the queue drained
    PendingWrite w = std::move(pending_.front());
    pending_.pop_front();
    writing_path_ = w.path;
    lock.unlock();
    Timer write_timer;
    int64_t written = 0;
    const Status st = SpillFile::WriteBatchTo(w.path, w.records, &written);
    const int64_t us = write_timer.ElapsedMicros();
    GT_CHECK_OK(st);
    if (write_observer_) write_observer_(us, written);
    lock.lock();
    writing_path_.clear();
    cv_done_.notify_all();
  }
}

}  // namespace gthinker
