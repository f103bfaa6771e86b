// Tests for the remote-vertex cache T_cache (paper §V-A, operations OP1–OP4).

#include "core/vertex_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace gthinker {
namespace {

using VertexT = Vertex<AdjList>;
using Cache = VertexCache<VertexT>;
using RR = Cache::RequestResult;

VertexT MakeVertex(VertexId id) {
  VertexT v;
  v.id = id;
  v.value = {id + 1, id + 2};
  return v;
}

TEST(VertexCache, FirstRequestIsNew) {
  Cache cache(16, 100, 0.2, 1);
  SCacheCounter ctr;
  const VertexT* out = nullptr;
  EXPECT_EQ(cache.Request(7, /*task=*/1, &ctr, &out), RR::kNewRequest);
  cache.FlushCounter(&ctr);
  EXPECT_EQ(cache.ApproxSize(), 1);
}

TEST(VertexCache, SecondRequestJoinsWait) {
  Cache cache(16, 100, 0.2, 1);
  SCacheCounter ctr;
  const VertexT* out = nullptr;
  EXPECT_EQ(cache.Request(7, 1, &ctr, &out), RR::kNewRequest);
  EXPECT_EQ(cache.Request(7, 2, &ctr, &out), RR::kAlreadyRequested);
  // Only one entry counted even with two waiters.
  cache.FlushCounter(&ctr);
  EXPECT_EQ(cache.ApproxSize(), 1);
}

TEST(VertexCache, ResponseWakesAllWaiters) {
  Cache cache(16, 100, 0.2, 1);
  SCacheCounter ctr;
  const VertexT* out = nullptr;
  cache.Request(7, 11, &ctr, &out);
  cache.Request(7, 22, &ctr, &out);
  auto waiting = cache.InsertResponse(MakeVertex(7));
  EXPECT_EQ(waiting, (std::vector<uint64_t>{11, 22}));
}

TEST(VertexCache, HitAfterResponseLocksVertex) {
  Cache cache(16, 100, 0.2, 1);
  SCacheCounter ctr;
  const VertexT* out = nullptr;
  cache.Request(7, 1, &ctr, &out);
  cache.InsertResponse(MakeVertex(7));
  EXPECT_EQ(cache.Request(7, 2, &ctr, &out), RR::kHit);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->id, 7u);
  EXPECT_EQ(out->value, (AdjList{8, 9}));
}

TEST(VertexCache, GetLockedReturnsCachedVertex) {
  Cache cache(16, 100, 0.2, 1);
  SCacheCounter ctr;
  const VertexT* out = nullptr;
  cache.Request(5, 1, &ctr, &out);
  cache.InsertResponse(MakeVertex(5));
  const VertexT* v = cache.GetLocked(5);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->id, 5u);
}

TEST(VertexCache, LockedVertexSurvivesEviction) {
  Cache cache(16, 100, 0.2, 1);
  SCacheCounter ctr;
  const VertexT* out = nullptr;
  cache.Request(5, 1, &ctr, &out);
  cache.InsertResponse(MakeVertex(5));  // lock_count = 1 (task 1 waiting)
  EXPECT_EQ(cache.EvictUpTo(10), 0);    // locked => not in Z-table
  cache.Release(5);
  EXPECT_EQ(cache.EvictUpTo(10), 1);    // now evictable
}

TEST(VertexCache, ReleaseToZeroThenReuse) {
  Cache cache(16, 100, 0.2, 1);
  SCacheCounter ctr;
  const VertexT* out = nullptr;
  cache.Request(5, 1, &ctr, &out);
  cache.InsertResponse(MakeVertex(5));
  cache.Release(5);
  // A hit on a zero-locked vertex must pull it back out of the Z-table.
  EXPECT_EQ(cache.Request(5, 2, &ctr, &out), RR::kHit);
  EXPECT_EQ(cache.EvictUpTo(10), 0);
  cache.Release(5);
  EXPECT_EQ(cache.EvictUpTo(10), 1);
}

TEST(VertexCache, MultipleLocksNeedMultipleReleases) {
  Cache cache(16, 100, 0.2, 1);
  SCacheCounter ctr;
  const VertexT* out = nullptr;
  cache.Request(5, 1, &ctr, &out);
  cache.InsertResponse(MakeVertex(5));
  cache.Request(5, 2, &ctr, &out);  // second lock
  cache.Release(5);
  EXPECT_EQ(cache.EvictUpTo(10), 0);
  cache.Release(5);
  EXPECT_EQ(cache.EvictUpTo(10), 1);
}

TEST(VertexCache, EvictionReducesApproxSize) {
  Cache cache(16, 100, 0.2, 1);
  SCacheCounter ctr;
  const VertexT* out = nullptr;
  for (VertexId v = 0; v < 10; ++v) {
    cache.Request(v, v, &ctr, &out);
    cache.InsertResponse(MakeVertex(v));
    cache.Release(v);
  }
  cache.FlushCounter(&ctr);
  EXPECT_EQ(cache.ApproxSize(), 10);
  EXPECT_EQ(cache.EvictUpTo(4), 4);
  EXPECT_EQ(cache.ApproxSize(), 6);
  EXPECT_EQ(cache.ExactSize(), 6);
}

TEST(VertexCache, OverflowDetection) {
  Cache cache(4, /*capacity=*/10, /*alpha=*/0.2, 1);
  SCacheCounter ctr;
  const VertexT* out = nullptr;
  for (VertexId v = 0; v < 12; ++v) cache.Request(v, v, &ctr, &out);
  cache.FlushCounter(&ctr);
  EXPECT_FALSE(cache.Overflowed());  // 12 <= 1.2 * 10
  cache.Request(100, 100, &ctr, &out);
  cache.FlushCounter(&ctr);
  EXPECT_TRUE(cache.Overflowed());  // 13 > 12
  EXPECT_EQ(cache.ExcessOverCapacity(), 3);
}

TEST(VertexCache, CounterDeltaBatchesCommits) {
  Cache cache(16, 100, 0.2, /*delta=*/10);
  SCacheCounter ctr;
  const VertexT* out = nullptr;
  for (VertexId v = 0; v < 9; ++v) cache.Request(v, v, &ctr, &out);
  EXPECT_EQ(cache.ApproxSize(), 0);  // below δ: still uncommitted
  EXPECT_EQ(ctr.delta(), 9);
  cache.Request(9, 9, &ctr, &out);   // hits δ = 10 => commit
  EXPECT_EQ(cache.ApproxSize(), 10);
  EXPECT_EQ(ctr.delta(), 0);
}

TEST(VertexCache, MemTrackerAccountsCachedBytes) {
  MemTracker mem;
  Cache cache(16, 100, 0.2, 1, &mem);
  SCacheCounter ctr;
  const VertexT* out = nullptr;
  cache.Request(1, 1, &ctr, &out);
  cache.InsertResponse(MakeVertex(1));
  EXPECT_GT(mem.current(), 0);
  cache.Release(1);
  cache.EvictUpTo(10);
  EXPECT_EQ(mem.current(), 0);
}

TEST(VertexCache, StatsCounters) {
  Cache cache(16, 100, 0.2, 1);
  SCacheCounter ctr;
  const VertexT* out = nullptr;
  cache.Request(1, 1, &ctr, &out);   // new
  cache.Request(1, 2, &ctr, &out);   // join
  cache.InsertResponse(MakeVertex(1));
  cache.Request(1, 3, &ctr, &out);   // hit
  EXPECT_EQ(cache.stats().new_requests.load(), 1);
  EXPECT_EQ(cache.stats().wait_joins.load(), 1);
  EXPECT_EQ(cache.stats().hits.load(), 1);
  EXPECT_EQ(cache.stats().requests.load(), 3);
}

/// Concurrency stress: many threads request/release overlapping vertices
/// while a GC thread evicts; invariant checks inside the cache (lock counts,
/// Γ/R exclusivity) plus the final balance validate atomicity.
TEST(VertexCache, ConcurrentStress) {
  Cache cache(64, 500, 0.2, 5);
  constexpr int kThreads = 4;
  constexpr int kVertices = 200;
  std::atomic<bool> stop{false};

  // Responder: completes any outstanding request it can see by polling a
  // shared "requested" board.
  std::mutex board_mutex;
  std::vector<VertexId> board;

  std::vector<std::thread> threads;
  std::atomic<int64_t> lock_balance{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SCacheCounter ctr;
      uint64_t task_id = static_cast<uint64_t>(t) << 32;
      for (int i = 0; i < 2000; ++i) {
        const VertexId v = static_cast<VertexId>((i * 7 + t * 13) % kVertices);
        const VertexT* out = nullptr;
        switch (cache.Request(v, task_id++, &ctr, &out)) {
          case RR::kHit:
            lock_balance.fetch_add(1);
            cache.Release(v);
            lock_balance.fetch_sub(1);
            break;
          case RR::kNewRequest: {
            std::lock_guard<std::mutex> lock(board_mutex);
            board.push_back(v);
            break;
          }
          case RR::kAlreadyRequested:
            break;
        }
      }
      cache.FlushCounter(&ctr);
    });
  }
  std::thread responder([&] {
    while (!stop.load()) {
      std::vector<VertexId> todo;
      {
        std::lock_guard<std::mutex> lock(board_mutex);
        todo.swap(board);
      }
      for (VertexId v : todo) {
        auto waiting = cache.InsertResponse(MakeVertex(v));
        // Each waiter held one lock; release them all.
        for (size_t i = 0; i < waiting.size(); ++i) cache.Release(v);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  std::thread gc([&] {
    while (!stop.load()) {
      if (cache.Overflowed()) cache.EvictUpTo(cache.ExcessOverCapacity());
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true);
  responder.join();
  gc.join();
  // Drain the board to settle remaining requests.
  for (VertexId v : board) {
    auto waiting = cache.InsertResponse(MakeVertex(v));
    for (size_t i = 0; i < waiting.size(); ++i) cache.Release(v);
  }
  EXPECT_EQ(lock_balance.load(), 0);
  // After releasing everything, the whole cache must be evictable.
  const int64_t exact = cache.ExactSize();
  EXPECT_EQ(cache.EvictUpTo(exact + 100), exact);
  EXPECT_EQ(cache.ExactSize(), 0);
}

}  // namespace
}  // namespace gthinker

namespace gthinker {
namespace {

TEST(VertexCache, BucketCountRoundsUpToPowerOfTwo) {
  // Arbitrary bucket counts (config sweeps draw any positive int) round up
  // so the router can mask instead of divide.
  EXPECT_EQ(Cache(1, 100, 0.2, 1).num_buckets(), 1u);
  EXPECT_EQ(Cache(3, 100, 0.2, 1).num_buckets(), 4u);
  EXPECT_EQ(Cache(16, 100, 0.2, 1).num_buckets(), 16u);
  EXPECT_EQ(Cache(1000, 100, 0.2, 1).num_buckets(), 1024u);
}

TEST(VertexCache, RequestBatchMatchesSequentialRequests) {
  // Same vertex set, two caches: batched and one-at-a-time resolution must
  // agree on every observable (results, new-request set, sizes, stats).
  Cache batched(16, 1000, 0.2, 1);
  Cache sequential(16, 1000, 0.2, 1);
  SCacheCounter bctr, sctr;
  const VertexT* out = nullptr;

  // Pre-populate both with some cached (locked + released) vertices.
  for (VertexId v = 0; v < 8; ++v) {
    for (Cache* c : {&batched, &sequential}) {
      SCacheCounter ctr;
      c->Request(v, 900 + v, &ctr, &out);
      c->InsertResponse(MakeVertex(v));
      c->Release(v);
      c->FlushCounter(&ctr);
    }
  }
  // Leave 20..22 requested-unanswered in both.
  for (VertexId v = 20; v < 23; ++v) {
    batched.Request(v, 800 + v, &bctr, &out);
    sequential.Request(v, 800 + v, &sctr, &out);
  }

  // Mixed pull set: hits, wait-joins, new requests, and a duplicate (5
  // appears twice => two vertex locks, like two sequential Requests).
  const std::vector<VertexId> pulls = {5, 21, 40, 5, 41, 2, 20, 40};
  std::vector<VertexId> new_requests;
  const int hits = batched.RequestBatch(pulls.data(), pulls.size(),
                                        /*task=*/77, &bctr, &new_requests);

  int seq_hits = 0;
  std::vector<VertexId> seq_new;
  for (VertexId v : pulls) {
    switch (sequential.Request(v, 77, &sctr, &out)) {
      case RR::kHit:
        ++seq_hits;
        break;
      case RR::kNewRequest:
        seq_new.push_back(v);
        break;
      case RR::kAlreadyRequested:
        break;
    }
  }
  EXPECT_EQ(hits, seq_hits);
  std::sort(new_requests.begin(), new_requests.end());
  std::sort(seq_new.begin(), seq_new.end());
  EXPECT_EQ(new_requests, seq_new);
  batched.FlushCounter(&bctr);
  sequential.FlushCounter(&sctr);
  EXPECT_EQ(batched.ApproxSize(), sequential.ApproxSize());
  EXPECT_EQ(batched.ExactSize(), sequential.ExactSize());
  EXPECT_EQ(batched.stats().hits.load(), sequential.stats().hits.load());
  EXPECT_EQ(batched.stats().wait_joins.load(),
            sequential.stats().wait_joins.load());
  EXPECT_EQ(batched.stats().new_requests.load(),
            sequential.stats().new_requests.load());
  EXPECT_EQ(batched.CheckInvariants(), sequential.CheckInvariants());
}

TEST(VertexCache, DuplicatePullsInBatchRegisterPerOccurrence) {
  // One task pulling the same remote vertex twice must be woken once per
  // registration (the worker counts met-vs-req per occurrence).
  Cache cache(16, 100, 0.2, 1);
  SCacheCounter ctr;
  std::vector<VertexId> new_requests;
  const std::vector<VertexId> pulls = {7, 7, 7};
  EXPECT_EQ(cache.RequestBatch(pulls.data(), pulls.size(), 42, &ctr,
                               &new_requests),
            0);
  // Exactly one wire request...
  EXPECT_EQ(new_requests, (std::vector<VertexId>{7}));
  // ...but three wake registrations, all for task 42.
  auto waiting = cache.InsertResponse(MakeVertex(7));
  EXPECT_EQ(waiting, (std::vector<uint64_t>{42, 42, 42}));
  // And three vertex locks to unwind.
  const VertexId rel[] = {7, 7, 7};
  cache.ReleaseBatch(rel, 3);
  EXPECT_EQ(cache.EvictUpTo(10), 1);
}

TEST(VertexCache, ReleaseBatchMakesEntriesEvictable) {
  Cache cache(16, 100, 0.2, 1);
  SCacheCounter ctr;
  const VertexT* out = nullptr;
  std::vector<VertexId> ids;
  for (VertexId v = 0; v < 12; ++v) {
    cache.Request(v, v, &ctr, &out);
    cache.InsertResponse(MakeVertex(v));
    ids.push_back(v);
  }
  EXPECT_EQ(cache.EvictUpTo(100), 0);  // all locked
  cache.ReleaseBatch(ids.data(), ids.size());
  cache.CheckInvariants();
  EXPECT_EQ(cache.EvictUpTo(100), 12);
  EXPECT_EQ(cache.ExactSize(), 0);
}

TEST(VertexCache, ZListEvictsInReleaseOrder) {
  // One bucket => the intrusive Z-list is the global eviction order: FIFO in
  // unlock time, regardless of insertion order.
  Cache cache(1, 100, 0.2, 1);
  SCacheCounter ctr;
  const VertexT* out = nullptr;
  for (VertexId v = 0; v < 3; ++v) {
    cache.Request(v, v, &ctr, &out);
    cache.InsertResponse(MakeVertex(v));
  }
  cache.Release(2);
  cache.Release(0);
  cache.Release(1);
  EXPECT_EQ(cache.EvictUpTo(1), 1);  // evicts 2 (released first)
  SCacheCounter ctr2;
  EXPECT_EQ(cache.Request(0, 8, &ctr2, &out), RR::kHit);  // survivors
  EXPECT_EQ(cache.Request(1, 8, &ctr2, &out), RR::kHit);
  EXPECT_EQ(cache.Request(2, 9, &ctr2, &out), RR::kNewRequest);  // gone
}

TEST(VertexCache, FullScanEvictionEquivalentToZTable) {
  // The ablation path (no Z-table) must evict exactly the unlocked entries.
  MemTracker mem;
  VertexCache<Vertex<AdjList>> cache(8, 100, 0.2, 1, &mem,
                                     /*use_z_table=*/false);
  SCacheCounter ctr;
  const Vertex<AdjList>* out = nullptr;
  for (VertexId v = 0; v < 20; ++v) {
    cache.Request(v, v, &ctr, &out);
    Vertex<AdjList> vert;
    vert.id = v;
    vert.value = {v + 1};
    cache.InsertResponse(std::move(vert));
    if (v % 2 == 0) cache.Release(v);  // half evictable
  }
  EXPECT_EQ(cache.EvictUpTo(100), 10);  // only the released ones go
  EXPECT_EQ(cache.ExactSize(), 10);
  for (VertexId v = 1; v < 20; v += 2) {
    EXPECT_NE(cache.GetLocked(v), nullptr);  // locked ones survived
  }
  EXPECT_GE(cache.stats().evict_scan_us.load(), 0);
}

}  // namespace
}  // namespace gthinker
