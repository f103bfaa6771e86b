#ifndef GTHINKER_CORE_VERTEX_CACHE_H_
#define GTHINKER_CORE_VERTEX_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/codec.h"
#include "core/vertex.h"
#include "graph/types.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/mem_tracker.h"
#include "util/timer.h"

namespace gthinker {

/// Per-thread local counter for the approximate cache size s_cache
/// (paper §V-A "Keeping s_cache Bounded"): each comper and the comm thread
/// (which both receives responses and evicts) accumulates deltas locally
/// and commits to the shared counter only when the local magnitude reaches
/// δ, trading a bounded estimation error (n_threads · δ) for low contention.
class SCacheCounter {
 public:
  int64_t delta() const { return delta_; }

 private:
  template <typename VertexT>
  friend class VertexCache;
  int64_t delta_ = 0;
};

/// δ: the uncommitted magnitude at which a Worker's SCacheCounters commit
/// to the shared s_cache (Worker passes it to its VertexCache).
inline constexpr int kCacheCounterDelta = 10;

/// The remote-vertex cache T_cache (paper §V-A, Fig. 6): an array of k hash
/// buckets (k rounded up to a power of two so routing is a mask, not a
/// divide), each guarded by its own lock and holding:
///   Γ-table: cached vertices with per-vertex lock counts;
///   Z-list:  the zero-locked (evictable) subset of Γ, kept as an intrusive
///            doubly-linked FIFO threaded through the Γ entries themselves —
///            lock/unlock transitions are O(1) pointer splices with no second
///            hash lookup, and GC eviction is a pointer chase in
///            unlock-order (oldest-idle first);
///   R-table: requested-but-unanswered vertices, with lock counts and the
///            waiter handles of the tasks waiting for the response (opaque
///            to the cache; the Worker's are parked-task addresses).
/// Operations OP1–OP4 each lock exactly one bucket, so operations on vertices
/// hashed to different buckets proceed concurrently. The batched variants
/// (RequestBatch / ReleaseBatch) additionally group one task's pull set by
/// bucket and take each bucket lock once per group instead of once per
/// vertex — the per-pull locking cost amortizes across the task's frontier.
///
/// Each Γ entry stashes its value's serialized byte size at insertion time
/// (computed outside the bucket lock), so eviction and memory accounting
/// never re-run Codec<VertexT>::Bytes while holding a bucket lock.
template <typename VertexT>
class VertexCache {
 public:
  enum class RequestResult {
    kHit,              // in Γ-table; lock taken; *out set (OP1 case 1)
    kAlreadyRequested, // in R-table; task registered (OP1 case 2.2)
    kNewRequest,       // fresh R-table entry; caller must send the request
                       // (OP1 case 2.1)
  };

  struct Stats {
    std::atomic<int64_t> requests{0};
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> wait_joins{0};
    std::atomic<int64_t> new_requests{0};
    std::atomic<int64_t> evictions{0};
    /// Time GC spent scanning buckets with their lock held (µs): the cost
    /// the Z-list exists to minimize (paper §V-A).
    std::atomic<int64_t> evict_scan_us{0};
    /// Completed EvictUpTo passes (each scans up to every bucket once).
    std::atomic<int64_t> gc_passes{0};
    /// Bucket-lock acquisitions that found the lock already held (the
    /// try_lock fast path failed and the caller had to block).
    std::atomic<int64_t> lock_contention{0};
  };

  /// `num_buckets` is rounded up to the next power of two (so BucketIndexFor
  /// is a mask); `capacity` = c_cache (entries), `alpha` = overflow tolerance
  /// α, `counter_delta` = δ, `mem` (optional) tracks cached-value bytes.
  /// `use_z_table = false` is the ablation: GC scans the whole Γ-table for
  /// unlocked entries instead of chasing the Z-list (bench/ablation_ztable).
  VertexCache(int num_buckets, int64_t capacity, double alpha,
              int counter_delta, MemTracker* mem = nullptr,
              bool use_z_table = true)
      : buckets_(RoundUpPow2(num_buckets)),
        capacity_(capacity),
        alpha_(alpha),
        counter_delta_(counter_delta),
        use_z_table_(use_z_table),
        mem_(mem) {
    GT_CHECK_GT(num_buckets, 0);
    GT_CHECK_GT(capacity, 0);
    // Power-of-two invariant: the router masks instead of dividing.
    GT_CHECK_EQ(buckets_.size() & (buckets_.size() - 1), 0u);
    bucket_mask_ = buckets_.size() - 1;
  }

  VertexCache(const VertexCache&) = delete;
  VertexCache& operator=(const VertexCache&) = delete;

  /// OP1: the task with waiter handle `waiter` requests Γ(v). On kHit the
  /// vertex is locked for the caller and *out points at it (stable until the
  /// matching Release — the lock count keeps GC away and the node-based
  /// Γ-table keeps the address).
  RequestResult Request(VertexId v, uint64_t waiter, SCacheCounter* counter,
                        const VertexT** out) {
    stats_.requests.fetch_add(1, std::memory_order_relaxed);
    Bucket& bucket = BucketFor(v);
    RequestResult result;
    {
      BucketLock lock(this, bucket);
      result = RequestLocked(bucket, v, waiter, out);
    }
    switch (result) {
      case RequestResult::kHit:
        stats_.hits.fetch_add(1, std::memory_order_relaxed);
        break;
      case RequestResult::kAlreadyRequested:
        stats_.wait_joins.fetch_add(1, std::memory_order_relaxed);
        break;
      case RequestResult::kNewRequest:
        stats_.new_requests.fetch_add(1, std::memory_order_relaxed);
        Bump(counter, +1);
        break;
    }
    return result;
  }

  /// OP1, batched: resolves one task's remote pull set `ids[0..n)` taking
  /// each distinct bucket lock once (ids are grouped by bucket first).
  /// Occurrence order of duplicate IDs is preserved, so semantics match n
  /// sequential Request calls exactly: each occurrence takes one vertex
  /// lock, and every non-hit occurrence registers `waiter` once in the
  /// R-table (the response wakes the task once per registration).
  /// Vertices needing a wire request are appended to *new_requests; the
  /// number of immediate Γ hits is returned.
  int RequestBatch(const VertexId* ids, size_t n, uint64_t waiter,
                   SCacheCounter* counter,
                   std::vector<VertexId>* new_requests) {
    if (n == 0) return 0;
    stats_.requests.fetch_add(static_cast<int64_t>(n),
                              std::memory_order_relaxed);
    BatchScratch& s = GroupByBucket(ids, n);
    int total_hits = 0;
    int64_t total_joins = 0;
    int64_t total_new = 0;
    for (const uint32_t bucket_index : s.touched) {
      const uint32_t seg_end = s.start[bucket_index];
      const uint32_t seg_begin = seg_end - s.count[bucket_index];
      s.count[bucket_index] = 0;  // scratch ready for the next batch
      Bucket& bucket = buckets_[bucket_index];
      BucketLock lock(this, bucket);
      for (uint32_t k = seg_begin; k < seg_end; ++k) {
        const VertexT* unused = nullptr;
        switch (RequestLocked(bucket, ids[s.grouped[k]], waiter, &unused)) {
          case RequestResult::kHit:
            ++total_hits;
            break;
          case RequestResult::kAlreadyRequested:
            ++total_joins;
            break;
          case RequestResult::kNewRequest:
            ++total_new;
            new_requests->push_back(ids[s.grouped[k]]);
            break;
        }
      }
    }
    if (total_hits != 0) {
      stats_.hits.fetch_add(total_hits, std::memory_order_relaxed);
    }
    if (total_joins != 0) {
      stats_.wait_joins.fetch_add(total_joins, std::memory_order_relaxed);
    }
    if (total_new != 0) {
      stats_.new_requests.fetch_add(total_new, std::memory_order_relaxed);
      Bump(counter, total_new);
    }
    return total_hits;
  }

  /// OP2: the receiving thread installs a response, moving v from R-table to
  /// Γ-table with its lock count transferred. Returns the waiter handles
  /// registered for v, one per non-hit request occurrence. The serialized
  /// size is computed (and the memory tracker charged) before the bucket
  /// lock is taken.
  std::vector<uint64_t> InsertResponse(VertexT vertex) {
    const VertexId v = vertex.id;
    const int64_t bytes = Codec<VertexT>::Bytes(vertex);
    if (mem_ != nullptr) mem_->Consume(bytes);
    Bucket& bucket = BucketFor(v);
    std::vector<uint64_t> waiting;
    {
      BucketLock lock(this, bucket);
      auto rit = bucket.rtable.find(v);
      GT_CHECK(rit != bucket.rtable.end())
          << "response for never-requested vertex " << v;
      GammaEntry entry;
      entry.id = v;
      entry.bytes = bytes;
      entry.lock_count = rit->second.lock_count;
      entry.vertex = std::move(vertex);
      waiting = std::move(rit->second.waiting);
      bucket.rtable.erase(rit);
      auto [git, inserted] = bucket.gamma.emplace(v, std::move(entry));
      GT_CHECK(inserted) << "vertex " << v << " in both Γ-table and R-table";
      if (git->second.lock_count == 0 && use_z_table_) {
        ZPushBack(bucket, &git->second);
      }
    }
    return waiting;
  }

  /// Looks up a vertex the calling task already holds a lock on (used when a
  /// pending task becomes ready and builds its frontier).
  const VertexT* GetLocked(VertexId v) {
    Bucket& bucket = BucketFor(v);
    BucketLock lock(this, bucket);
    auto git = bucket.gamma.find(v);
    GT_CHECK(git != bucket.gamma.end()) << "GetLocked miss for vertex " << v;
    GT_CHECK_GT(git->second.lock_count, 0);
    return &git->second.vertex;
  }

  /// OP3: a task releases its hold after an iteration; at zero the vertex
  /// becomes evictable (joins the Z-list tail, so eviction order is FIFO in
  /// unlock time).
  void Release(VertexId v) {
    Bucket& bucket = BucketFor(v);
    BucketLock lock(this, bucket);
    ReleaseLocked(bucket, v);
  }

  /// OP3, batched: releases one task's remote pull set with one bucket-lock
  /// acquisition per distinct bucket. Duplicate IDs release one vertex lock
  /// per occurrence, matching n sequential Release calls.
  void ReleaseBatch(const VertexId* ids, size_t n) {
    if (n == 0) return;
    BatchScratch& s = GroupByBucket(ids, n);
    for (const uint32_t bucket_index : s.touched) {
      const uint32_t seg_end = s.start[bucket_index];
      const uint32_t seg_begin = seg_end - s.count[bucket_index];
      s.count[bucket_index] = 0;  // scratch ready for the next batch
      Bucket& bucket = buckets_[bucket_index];
      BucketLock lock(this, bucket);
      for (uint32_t k = seg_begin; k < seg_end; ++k) {
        ReleaseLocked(bucket, ids[s.grouped[k]]);
      }
    }
  }

  /// OP4: GC eviction. Scans buckets round-robin, evicting unlocked
  /// vertices, until `target` vertices are evicted or every bucket was
  /// scanned once. Returns the number evicted. Single caller (the worker's
  /// comm thread, woken by a gated comper). With the Z-list (default) each
  /// bucket scan chases exactly the evictable entries in FIFO unlock order
  /// and frees the byte sizes stashed at insertion; the ablation walks the
  /// whole Γ-table under the bucket lock. Memory-tracker updates happen
  /// outside the lock.
  int64_t EvictUpTo(int64_t target) {
    int64_t evicted = 0;
    const size_t n = buckets_.size();
    Timer scan_timer;
    for (size_t scanned = 0; scanned < n && evicted < target; ++scanned) {
      Bucket& bucket = buckets_[next_evict_bucket_];
      next_evict_bucket_ = (next_evict_bucket_ + 1) & bucket_mask_;
      int64_t bytes_freed = 0;
      {
        BucketLock lock(this, bucket);
        if (use_z_table_) {
          while (bucket.z_head != nullptr && evicted < target) {
            GammaEntry* entry = bucket.z_head;
            GT_CHECK_EQ(entry->lock_count, 0);
            ZRemove(bucket, entry);
            bytes_freed += entry->bytes;
            bucket.gamma.erase(entry->id);
            ++evicted;
          }
        } else {
          auto git = bucket.gamma.begin();
          while (git != bucket.gamma.end() && evicted < target) {
            if (git->second.lock_count != 0) {
              ++git;
              continue;
            }
            bytes_freed += git->second.bytes;
            git = bucket.gamma.erase(git);
            ++evicted;
          }
        }
      }
      if (mem_ != nullptr && bytes_freed != 0) mem_->Release(bytes_freed);
    }
    stats_.evict_scan_us.fetch_add(scan_timer.ElapsedMicros(),
                                   std::memory_order_relaxed);
    stats_.gc_passes.fetch_add(1, std::memory_order_relaxed);
    // Bulk commit: batch eviction amortizes the shared-counter update just
    // like it amortizes bucket locking.
    s_cache_.fetch_sub(evicted, std::memory_order_relaxed);
    stats_.evictions.fetch_add(evicted, std::memory_order_relaxed);
    return evicted;
  }

  /// Commits a thread-local counter (call before a thread exits).
  void FlushCounter(SCacheCounter* counter) {
    if (counter->delta_ != 0) {
      s_cache_.fetch_add(counter->delta_, std::memory_order_relaxed);
      counter->delta_ = 0;
    }
  }

  /// Approximate |Γ-tables| + |R-tables| (paper's s_cache).
  int64_t ApproxSize() const {
    return s_cache_.load(std::memory_order_relaxed);
  }

  int64_t capacity() const { return capacity_; }

  /// Actual bucket count after power-of-two rounding.
  size_t num_buckets() const { return buckets_.size(); }

  /// True when compers must stop fetching new tasks:
  /// s_cache > (1+α)·c_cache.
  bool Overflowed() const {
    return static_cast<double>(ApproxSize()) >
           (1.0 + alpha_) * static_cast<double>(capacity_);
  }

  /// δ_evict = s_cache − c_cache (how much the lazy GC should remove).
  int64_t ExcessOverCapacity() const { return ApproxSize() - capacity_; }

  const Stats& stats() const { return stats_; }

  /// Exact entry count (locks every bucket; tests/diagnostics only).
  int64_t ExactSize() const {
    int64_t total = 0;
    for (const Bucket& bucket : buckets_) {
      BucketLock lock(this, bucket);
      total += static_cast<int64_t>(bucket.gamma.size() +
                                    bucket.rtable.size());
    }
    return total;
  }

  /// Tests/diagnostics: locks every bucket and validates the structural
  /// invariants — no vertex in both Γ-table and R-table; the Z-list is a
  /// consistent doubly-linked chain holding exactly the zero-locked Γ
  /// entries (when the Z-list is enabled); every stashed byte size is
  /// non-negative. Returns the exact entry count, so callers can assert
  /// conservation in the same pass.
  int64_t CheckInvariants() const {
    int64_t total = 0;
    for (const Bucket& bucket : buckets_) {
      BucketLock lock(this, bucket);
      size_t zero_locked = 0;
      for (const auto& [v, entry] : bucket.gamma) {
        GT_CHECK(bucket.rtable.find(v) == bucket.rtable.end())
            << "vertex " << v << " in both Γ-table and R-table";
        GT_CHECK_EQ(entry.id, v);
        GT_CHECK_GE(entry.lock_count, 0);
        GT_CHECK_GE(entry.bytes, 0);
        if (entry.lock_count == 0) ++zero_locked;
        if (use_z_table_) {
          GT_CHECK_EQ(entry.in_z, entry.lock_count == 0)
              << "Z-list membership drifted for vertex " << v;
        }
      }
      if (use_z_table_) {
        size_t chained = 0;
        const GammaEntry* prev = nullptr;
        for (const GammaEntry* e = bucket.z_head; e != nullptr;
             e = e->z_next) {
          GT_CHECK_EQ(e->z_prev, prev);
          GT_CHECK(e->in_z);
          GT_CHECK_EQ(e->lock_count, 0);
          prev = e;
          ++chained;
        }
        GT_CHECK_EQ(bucket.z_tail, prev);
        GT_CHECK_EQ(chained, zero_locked)
            << "Z-list does not cover the zero-locked Γ entries";
      }
      for (const auto& [v, entry] : bucket.rtable) {
        GT_CHECK_GT(entry.lock_count, 0);
        GT_CHECK(!entry.waiting.empty());
      }
      total += static_cast<int64_t>(bucket.gamma.size() +
                                    bucket.rtable.size());
    }
    return total;
  }

 private:
  struct GammaEntry {
    VertexT vertex;
    /// Serialized size per Codec<VertexT>::Bytes, stashed at insertion so
    /// eviction and accounting never serialize under the bucket lock.
    int64_t bytes = 0;
    /// Intrusive Z-list linkage (valid only while in_z). Entry addresses are
    /// stable: the Γ-table is node-based and never moves entries.
    GammaEntry* z_prev = nullptr;
    GammaEntry* z_next = nullptr;
    VertexId id = 0;  // back-reference for Γ-table erasure during eviction
    int32_t lock_count = 0;
    bool in_z = false;
  };
  struct RequestEntry {
    int32_t lock_count = 0;
    std::vector<uint64_t> waiting;  // waiter handles
  };
  struct Bucket {
    mutable std::mutex mutex;
    std::unordered_map<VertexId, GammaEntry> gamma;
    std::unordered_map<VertexId, RequestEntry> rtable;
    /// Intrusive FIFO of zero-locked Γ entries: head = oldest idle (evicted
    /// first), tail = most recently released.
    GammaEntry* z_head = nullptr;
    GammaEntry* z_tail = nullptr;
  };

  /// RAII bucket-mutex guard. The try_lock-first acquisition feeds the
  /// lock_contention counter without adding an atomic RMW to the
  /// uncontended path.
  class BucketLock {
   public:
    BucketLock(const VertexCache* cache, const Bucket& bucket)
        : bucket_(bucket) {
      if (!bucket_.mutex.try_lock()) {
        cache->stats_.lock_contention.fetch_add(1, std::memory_order_relaxed);
        bucket_.mutex.lock();
      }
    }

    ~BucketLock() { bucket_.mutex.unlock(); }

    BucketLock(const BucketLock&) = delete;
    BucketLock& operator=(const BucketLock&) = delete;

   private:
    const Bucket& bucket_;
  };

  // ---- intrusive Z-list splices (bucket lock held) ----

  static void ZPushBack(Bucket& bucket, GammaEntry* entry) {
    entry->z_prev = bucket.z_tail;
    entry->z_next = nullptr;
    entry->in_z = true;
    if (bucket.z_tail != nullptr) {
      bucket.z_tail->z_next = entry;
    } else {
      bucket.z_head = entry;
    }
    bucket.z_tail = entry;
  }

  static void ZRemove(Bucket& bucket, GammaEntry* entry) {
    if (entry->z_prev != nullptr) {
      entry->z_prev->z_next = entry->z_next;
    } else {
      bucket.z_head = entry->z_next;
    }
    if (entry->z_next != nullptr) {
      entry->z_next->z_prev = entry->z_prev;
    } else {
      bucket.z_tail = entry->z_prev;
    }
    entry->z_prev = nullptr;
    entry->z_next = nullptr;
    entry->in_z = false;
  }

  /// OP1 core, bucket lock held. On kHit the vertex lock is taken and *out
  /// set (out is never null; batch callers pass a scratch slot).
  RequestResult RequestLocked(Bucket& bucket, VertexId v, uint64_t waiter,
                              const VertexT** out) {
    auto git = bucket.gamma.find(v);
    if (git != bucket.gamma.end()) {
      GammaEntry& entry = git->second;
      if (entry.lock_count == 0 && use_z_table_) ZRemove(bucket, &entry);
      ++entry.lock_count;
      *out = &entry.vertex;
      return RequestResult::kHit;
    }
    auto rit = bucket.rtable.find(v);
    if (rit != bucket.rtable.end()) {
      ++rit->second.lock_count;
      rit->second.waiting.push_back(waiter);
      return RequestResult::kAlreadyRequested;
    }
    RequestEntry entry;
    entry.lock_count = 1;
    entry.waiting.push_back(waiter);
    bucket.rtable.emplace(v, std::move(entry));
    return RequestResult::kNewRequest;
  }

  /// OP3 core, bucket lock held.
  void ReleaseLocked(Bucket& bucket, VertexId v) {
    auto git = bucket.gamma.find(v);
    GT_CHECK(git != bucket.gamma.end()) << "release of uncached vertex " << v;
    GT_CHECK_GT(git->second.lock_count, 0);
    if (--git->second.lock_count == 0 && use_z_table_) {
      ZPushBack(bucket, &git->second);
    }
  }

  /// Per-thread scratch for the batched ops. The per-bucket arrays are sized
  /// to the largest cache the thread has batched against; `count` stays
  /// all-zero between calls (each consumer resets the slots it used), so one
  /// scratch serves caches of different bucket counts.
  struct BatchScratch {
    std::vector<uint32_t> bucket_of;  // bucket index per input position
    std::vector<uint32_t> grouped;    // input positions, bucket-contiguous
    std::vector<uint32_t> touched;    // distinct buckets, first-seen order
    std::vector<uint32_t> count;      // live entries per touched bucket
    std::vector<uint32_t> start;      // segment end cursor per touched bucket
  };

  /// Groups ids[0..n) by bucket in O(n) — a two-pass counting group, not a
  /// sort, because the comparison sort showed up as the dominant cost of the
  /// batched hot path (bench/cache_micro). On return, for each bucket b in
  /// `touched`: grouped[start[b] - count[b] .. start[b]) holds the input
  /// positions that hash to b, in occurrence order (duplicate semantics
  /// depend on this stability). Callers must reset count[b] to zero as they
  /// consume each bucket.
  BatchScratch& GroupByBucket(const VertexId* ids, size_t n) {
    thread_local BatchScratch s;
    if (s.count.size() < buckets_.size()) {
      s.count.resize(buckets_.size(), 0);
      s.start.resize(buckets_.size());
    }
    s.bucket_of.resize(n);
    s.grouped.resize(n);
    s.touched.clear();
    for (size_t i = 0; i < n; ++i) {
      const uint32_t b = static_cast<uint32_t>(BucketIndexFor(ids[i]));
      s.bucket_of[i] = b;
      if (s.count[b]++ == 0) s.touched.push_back(b);
    }
    uint32_t offset = 0;
    for (const uint32_t b : s.touched) {
      s.start[b] = offset;
      offset += s.count[b];
    }
    for (size_t i = 0; i < n; ++i) {
      s.grouped[s.start[s.bucket_of[i]]++] = static_cast<uint32_t>(i);
    }
    return s;
  }

  Bucket& BucketFor(VertexId v) { return buckets_[BucketIndexFor(v)]; }

  size_t BucketIndexFor(VertexId v) const {
    return Mix64(static_cast<uint64_t>(v)) & bucket_mask_;
  }

  static size_t RoundUpPow2(int n) {
    size_t p = 1;
    while (p < static_cast<size_t>(n)) p <<= 1;
    return p;
  }

  void Bump(SCacheCounter* counter, int64_t d) {
    counter->delta_ += d;
    if (counter->delta_ >= counter_delta_ ||
        counter->delta_ <= -counter_delta_) {
      s_cache_.fetch_add(counter->delta_, std::memory_order_relaxed);
      counter->delta_ = 0;
    }
  }

  std::vector<Bucket> buckets_;
  size_t bucket_mask_ = 0;
  const int64_t capacity_;
  const double alpha_;
  const int counter_delta_;
  const bool use_z_table_;
  MemTracker* mem_;
  std::atomic<int64_t> s_cache_{0};
  size_t next_evict_bucket_ = 0;
  mutable Stats stats_;
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_VERTEX_CACHE_H_
