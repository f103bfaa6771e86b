#ifndef GTHINKER_UTIL_BUFFER_POOL_H_
#define GTHINKER_UTIL_BUFFER_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace gthinker {

class BufferPool;

/// A pooled, refcounted byte slab. Slabs are the unit of the zero-copy wire
/// path: a Serializer encodes into one, a Payload pins it with a reference,
/// and the same physical bytes may sit in several in-flight message batches
/// at once (a broadcast, or the TCP receive views). The last reference
/// returns the slab to its pool instead of freeing it, so steady-state
/// traffic stops allocating.
struct Slab {
  char* data = nullptr;
  size_t capacity = 0;
  /// Intrusive reference count. acq_rel on the final decrement orders all
  /// prior writers' stores before the recycle (the TSan-clean pattern).
  std::atomic<int32_t> refs{1};
  BufferPool* owner = nullptr;
  /// Pool size-class index; -1 for oversized one-off heap allocations.
  int size_class = -1;

  void Ref() { refs.fetch_add(1, std::memory_order_relaxed); }
  inline void Unref();
};

/// Size-classed free-list allocator for Slabs. Classes are powers of two
/// from 64 B to 1 MiB; larger requests fall through to one-off heap slabs
/// that are freed (not pooled) on release. Thread-safe; one mutex per class.
class BufferPool {
 public:
  static constexpr size_t kMinClassBytes = 64;
  static constexpr int kNumClasses = 15;  // 64 B .. 1 MiB

  struct Stats {
    int64_t acquires = 0;   // total Acquire calls
    int64_t pool_hits = 0;  // served from a free list (no allocation)
    int64_t allocs = 0;     // fresh heap allocations
    int64_t outstanding = 0;  // slabs currently referenced somewhere
  };

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  ~BufferPool() {
    for (auto& cls : classes_) {
      for (Slab* slab : cls.free) DeleteSlab(slab);
    }
  }

  /// Process-wide pool used by Serializer and Payload. Never destroyed
  /// before outstanding slabs (function-local static outlives user code in
  /// practice; slabs referencing it must not escape into other statics).
  static BufferPool& Global() {
    static BufferPool* pool = new BufferPool();  // leaked: outlives payloads
    return *pool;
  }

  /// Returns a slab with capacity >= min_capacity and refs == 1. The caller
  /// owns the reference; release it with Slab::Unref.
  Slab* Acquire(size_t min_capacity) {
    acquires_.fetch_add(1, std::memory_order_relaxed);
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    const int cls = ClassFor(min_capacity);
    if (cls >= 0) {
      SizeClass& c = classes_[cls];
      {
        std::lock_guard<std::mutex> lock(c.mutex);
        if (!c.free.empty()) {
          Slab* slab = c.free.back();
          c.free.pop_back();
          pool_hits_.fetch_add(1, std::memory_order_relaxed);
          slab->refs.store(1, std::memory_order_relaxed);
          return slab;
        }
      }
    }
    allocs_.fetch_add(1, std::memory_order_relaxed);
    Slab* slab = new Slab();
    slab->capacity = cls >= 0 ? ClassBytes(cls) : min_capacity;
    slab->data = new char[slab->capacity];
    slab->owner = this;
    slab->size_class = cls;
    return slab;
  }

  /// Called by Slab::Unref when the last reference drops. Pools class-sized
  /// slabs up to a per-class retention cap; frees oversized ones.
  void Recycle(Slab* slab) {
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    const int cls = slab->size_class;
    if (cls >= 0) {
      SizeClass& c = classes_[cls];
      std::lock_guard<std::mutex> lock(c.mutex);
      if (c.free.size() < RetainCap(cls)) {
        c.free.push_back(slab);
        return;
      }
    }
    DeleteSlab(slab);
  }

  Stats stats() const {
    Stats s;
    s.acquires = acquires_.load(std::memory_order_relaxed);
    s.pool_hits = pool_hits_.load(std::memory_order_relaxed);
    s.allocs = allocs_.load(std::memory_order_relaxed);
    s.outstanding = outstanding_.load(std::memory_order_relaxed);
    return s;
  }

  static constexpr size_t ClassBytes(int cls) { return kMinClassBytes << cls; }

  /// Smallest class fitting n bytes, or -1 when n exceeds the largest class.
  static int ClassFor(size_t n) {
    size_t cap = kMinClassBytes;
    for (int cls = 0; cls < kNumClasses; ++cls, cap <<= 1) {
      if (n <= cap) return cls;
    }
    return -1;
  }

 private:
  struct SizeClass {
    std::mutex mutex;
    std::vector<Slab*> free;
  };

  /// Bound idle memory per class at ~4 MiB (at least 8 slabs).
  static size_t RetainCap(int cls) {
    const size_t by_bytes = (size_t{4} << 20) / ClassBytes(cls);
    return by_bytes > 8 ? by_bytes : 8;
  }

  static void DeleteSlab(Slab* slab) {
    delete[] slab->data;
    delete slab;
  }

  SizeClass classes_[kNumClasses];
  std::atomic<int64_t> acquires_{0};
  std::atomic<int64_t> pool_hits_{0};
  std::atomic<int64_t> allocs_{0};
  std::atomic<int64_t> outstanding_{0};
};

inline void Slab::Unref() {
  if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    owner->Recycle(this);
  }
}

/// Shared RAII handle to a Slab. Copy bumps the refcount (that is the whole
/// zero-copy trick: sharing a slab across N message batches is N pointer
/// copies, not N byte copies); destruction releases it.
class SlabRef {
 public:
  SlabRef() = default;
  /// Adopts an existing reference (the caller's ref transfers in).
  explicit SlabRef(Slab* slab) : slab_(slab) {}
  SlabRef(const SlabRef& other) : slab_(other.slab_) {
    if (slab_ != nullptr) slab_->Ref();
  }
  SlabRef(SlabRef&& other) noexcept : slab_(other.slab_) {
    other.slab_ = nullptr;
  }
  SlabRef& operator=(const SlabRef& other) {
    if (this != &other) {
      Reset();
      slab_ = other.slab_;
      if (slab_ != nullptr) slab_->Ref();
    }
    return *this;
  }
  SlabRef& operator=(SlabRef&& other) noexcept {
    if (this != &other) {
      Reset();
      slab_ = other.slab_;
      other.slab_ = nullptr;
    }
    return *this;
  }
  ~SlabRef() { Reset(); }

  void Reset() {
    if (slab_ != nullptr) {
      slab_->Unref();
      slab_ = nullptr;
    }
  }

  Slab* get() const { return slab_; }
  char* data() const { return slab_ != nullptr ? slab_->data : nullptr; }
  size_t capacity() const { return slab_ != nullptr ? slab_->capacity : 0; }
  explicit operator bool() const { return slab_ != nullptr; }

 private:
  Slab* slab_ = nullptr;
};

}  // namespace gthinker

#endif  // GTHINKER_UTIL_BUFFER_POOL_H_
