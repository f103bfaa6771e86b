#ifndef GTHINKER_UTIL_SPINLOCK_H_
#define GTHINKER_UTIL_SPINLOCK_H_

#include <atomic>

namespace gthinker {

/// Tiny test-and-test-and-set spinlock for very short critical sections:
/// each shard of obs::ShardedRing (the flight recorder's event ring) guards
/// a few stores with one. Satisfies Lockable so it works with
/// std::lock_guard.
class SpinLock {
 public:
  SpinLock() = default;

  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void lock() {
    while (flag_.exchange(true, std::memory_order_acquire)) {
      while (flag_.load(std::memory_order_relaxed)) {
        // spin; on a single hardware thread the OS will preempt us
      }
    }
  }

  bool try_lock() {
    return !flag_.exchange(true, std::memory_order_acquire);
  }

  void unlock() { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

}  // namespace gthinker

#endif  // GTHINKER_UTIL_SPINLOCK_H_
