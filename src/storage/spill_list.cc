#include "storage/spill_list.h"

#include <filesystem>

#include "storage/spill_file.h"
#include "util/logging.h"
#include "util/timer.h"

namespace gthinker {

namespace {

/// Reads a written batch back into *records (deleting its file when
/// `erase`) and returns the bytes read. A batch whose file holds another
/// record count than it was pushed with is fatal.
int64_t ReadWritten(const std::string& path, int64_t count, bool erase,
                    std::vector<std::string>* records) {
  int64_t bytes = 0;
  GT_CHECK_OK(erase ? SpillFile::ReadBatchAndDelete(path, records, &bytes)
                    : SpillFile::ReadBatch(path, records, &bytes));
  GT_CHECK_EQ(static_cast<int64_t>(records->size()), count)
      << "spill file " << path << " record count drifted";
  return bytes;
}

}  // namespace

void SpillList::PushBack(std::vector<std::string> records) {
  auto batch = std::make_unique<Batch>();
  batch->count = static_cast<int64_t>(records.size());
  batch->records = std::move(records);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    GT_CHECK(!stop_) << "PushBack on a stopped SpillList";
    if (!writer_.joinable()) {
      writer_ = std::thread(&SpillList::WriterLoop, this);
    }
    total_records_ += batch->count;
    batches_.push_back(std::move(batch));
    const auto depth = static_cast<int64_t>(batches_.size() - written_);
    if (depth > stats_.peak_queue_depth.load(std::memory_order_relaxed)) {
      stats_.peak_queue_depth.store(depth, std::memory_order_relaxed);
    }
  }
  cv_work_.notify_one();
}

bool SpillList::Pop(bool front, std::vector<std::string>* records) {
  std::unique_ptr<Batch> batch;
  bool in_memory = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (batches_.empty()) return false;
    const size_t end = front ? 0 : batches_.size() - 1;
    batch = std::move(front ? batches_.front() : batches_.back());
    if (front) {
      batches_.pop_front();
    } else {
      batches_.pop_back();
    }
    total_records_ -= batch->count;
    if (end < written_) {
      --written_;  // either end of the written prefix shrinks it by one
    } else if (batch.get() != writing_) {
      // Unwritten: it left the list before the writer reached it, which
      // cancels its write.
      in_memory = true;
    }
    // In flight: the writer still reads the batch, so wait for the write.
    cv_done_.wait(lock, [&] { return writing_ != batch.get(); });
  }
  if (in_memory) {
    *records = std::move(batch->records);
    stats_.mem_hits.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  Timer read_timer;
  const int64_t bytes = ReadWritten(batch->path, batch->count,
                                    /*erase=*/true, records);
  const int64_t us = read_timer.ElapsedMicros();
  stats_.reads.fetch_add(1, std::memory_order_relaxed);
  if (read_observer_) read_observer_(us, bytes);
  return true;
}

int64_t SpillList::TotalRecords() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_records_;
}

int64_t SpillList::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(batches_.size() - written_);
}

void SpillList::CopyRecords(std::vector<std::string>* records) const {
  // The lock keeps every listed file in place while it is read: a pop
  // deletes a file only after taking its batch off the list.
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < batches_.size(); ++i) {
    const Batch& batch = *batches_[i];
    if (i < written_) {
      std::vector<std::string> disk;
      ReadWritten(batch.path, batch.count, /*erase=*/false, &disk);
      for (std::string& r : disk) records->push_back(std::move(r));
    } else {
      records->insert(records->end(), batch.records.begin(),
                      batch.records.end());
    }
  }
}

void SpillList::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  if (writer_.joinable()) writer_.join();
}

void SpillList::WriterLoop() {
  bool dir_made = false;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_work_.wait(lock, [&] { return stop_ || written_ < batches_.size(); });
    if (stop_) break;
    // The oldest unwritten batch. Its heap node stays put while the lock
    // is released, even if a pop takes it off the list meanwhile: that pop
    // waits for this write.
    Batch* batch = batches_[written_].get();
    writing_ = batch;
    lock.unlock();
    if (!dir_made) {
      std::error_code ec;
      std::filesystem::create_directories(dir_, ec);
      GT_CHECK(!ec) << "cannot create spill dir " << dir_ << ": "
                    << ec.message();
      dir_made = true;
    }
    Timer write_timer;
    std::string path;
    int64_t bytes = 0;
    GT_CHECK_OK(SpillFile::WriteBatch(dir_, batch->records, &path, &bytes));
    const int64_t us = write_timer.ElapsedMicros();
    if (write_observer_) write_observer_(us, bytes);
    lock.lock();
    batch->path = std::move(path);
    std::vector<std::string>().swap(batch->records);  // the file holds them
    // Still listed (no pop took it in flight): it joins the written prefix.
    if (written_ < batches_.size() && batches_[written_].get() == batch) {
      ++written_;
    }
    writing_ = nullptr;
    cv_done_.notify_all();
  }
}

}  // namespace gthinker
