#ifndef GTHINKER_UTIL_CONCURRENT_QUEUE_H_
#define GTHINKER_UTIL_CONCURRENT_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace gthinker {

/// Unbounded multi-producer multi-consumer FIFO queue. Used for a TaskDeque's
/// ready-task buffer B_task (paper Fig. 7), which carries parked-task records
/// from the thread that lands their last pull to the owning comper, and for
/// the transports' worker mailboxes.
template <typename T>
class ConcurrentQueue {
 public:
  ConcurrentQueue() = default;

  ConcurrentQueue(const ConcurrentQueue&) = delete;
  ConcurrentQueue& operator=(const ConcurrentQueue&) = delete;

  void Push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
  }

  /// Non-blocking pop; empty optional when the queue is empty.
  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Blocking pop with a deadline; empty optional on timeout or when Wake()
  /// ended the wait early.
  template <typename Rep, typename Period>
  std::optional<T> PopFor(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, timeout, [&] { return !items_.empty() || woken_; });
    woken_ = false;
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Ends the current (or, if none is blocked, the next) PopFor wait early,
  /// with or without an item: the consumer has state outside the queue to
  /// look at. One wake covers every Wake() call made before it is consumed.
  void Wake() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      woken_ = true;
    }
    cv_.notify_all();
  }

  size_t Size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool woken_ = false;  // a Wake() not yet consumed by PopFor
};

}  // namespace gthinker

#endif  // GTHINKER_UTIL_CONCURRENT_QUEUE_H_
