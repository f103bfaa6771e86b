// Multithreaded stress for the T_cache hot path (batched OP1/OP3, intrusive
// Z-list and its full-scan ablation) and the async spill pipeline. Runs
// under the GT_SANITIZE=thread CI job: TSan must see no races between
// concurrent RequestBatch/ReleaseBatch/InsertResponse/EvictUpTo, and the
// conservation checks below must hold exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/vertex_cache.h"
#include "storage/mini_dfs.h"
#include "storage/spill_file.h"
#include "storage/spill_list.h"

namespace gthinker {
namespace {

using VertexT = Vertex<AdjList>;
using Cache = VertexCache<VertexT>;

VertexT MakeVertex(VertexId id) {
  VertexT v;
  v.id = id;
  v.value = {id + 1, id + 2, id + 3};
  return v;
}

/// Mirrors the worker's task-resolution protocol (met/req commit, responder
/// wake-ups, batched release on completion) against one cache from many
/// threads, with a GC thread evicting concurrently. Afterwards ExactSize()
/// must match the committed insert/evict counters and CheckInvariants()
/// must find no entry in both Γ and R and a consistent Z-list.
void RunStress(bool use_z_table) {
  Cache cache(/*buckets=*/32, /*capacity=*/300, /*alpha=*/0.2, /*delta=*/5,
              nullptr, use_z_table);
  constexpr int kThreads = 4;
  constexpr int kVertices = 150;
  constexpr int kRounds = 1500;
  std::atomic<bool> producers_done{false};

  // The shared T_task analogue: met/req per in-flight pull batch. A batch is
  // complete when met == req; whoever completes it releases its locks.
  struct PendingTask {
    std::vector<VertexId> pulls;
    int met = 0;
    int req = -1;  // -1 = not yet committed by the submitting thread
  };
  std::mutex table_mutex;
  std::unordered_map<uint64_t, PendingTask> table;

  std::mutex board_mutex;
  std::vector<VertexId> board;  // vertices awaiting a "response"

  // Ground truth maintained outside the cache.
  std::atomic<int64_t> responses_inserted{0};
  std::atomic<int64_t> evicted_total{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SCacheCounter ctr;
      std::vector<VertexId> pulls;
      std::vector<VertexId> fresh;
      for (int i = 0; i < kRounds; ++i) {
        const uint64_t tid = (static_cast<uint64_t>(t) << 32) |
                             static_cast<uint64_t>(i);
        // A small pull set with a deliberate duplicate every few rounds:
        // each occurrence takes one vertex lock and one wake registration.
        pulls.clear();
        const int width = 1 + (i + t) % 6;
        for (int k = 0; k < width; ++k) {
          pulls.push_back(
              static_cast<VertexId>((i * 31 + t * 17 + k * 7) % kVertices));
        }
        if (i % 3 == 0) pulls.push_back(pulls.front());
        const int total = static_cast<int>(pulls.size());
        {
          std::lock_guard<std::mutex> lock(table_mutex);
          table.emplace(tid, PendingTask{pulls, 0, -1});
        }
        fresh.clear();
        const int hits = cache.RequestBatch(pulls.data(), pulls.size(), tid,
                                            &ctr, &fresh);
        if (!fresh.empty()) {
          std::lock_guard<std::mutex> lock(board_mutex);
          for (VertexId v : fresh) board.push_back(v);
        }
        // Commit req, exactly like Worker::Resolve: responses may have
        // raced in between RequestBatch and here.
        std::vector<VertexId> to_release;
        {
          std::lock_guard<std::mutex> lock(table_mutex);
          auto it = table.find(tid);
          it->second.met += hits;
          if (it->second.met == total) {
            to_release = std::move(it->second.pulls);
            table.erase(it);
          } else {
            it->second.req = total;
          }
        }
        if (!to_release.empty()) {
          cache.ReleaseBatch(to_release.data(), to_release.size());
        }
      }
      cache.FlushCounter(&ctr);
    });
  }

  // Responder: answers board entries; each response wakes the registered
  // tasks (one met per registration, duplicates included) and completed
  // tasks release their whole pull set.
  std::thread responder([&] {
    while (true) {
      std::vector<VertexId> todo;
      {
        std::lock_guard<std::mutex> lock(board_mutex);
        todo.swap(board);
      }
      bool tasks_open;
      {
        std::lock_guard<std::mutex> lock(table_mutex);
        tasks_open = !table.empty();
      }
      if (todo.empty()) {
        if (producers_done.load() && !tasks_open) break;
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        continue;
      }
      for (VertexId v : todo) {
        auto waiting = cache.InsertResponse(MakeVertex(v));
        responses_inserted.fetch_add(1);
        for (uint64_t tid : waiting) {
          std::vector<VertexId> to_release;
          {
            std::lock_guard<std::mutex> lock(table_mutex);
            auto it = table.find(tid);
            ASSERT_TRUE(it != table.end());
            ++it->second.met;
            if (it->second.req >= 0 && it->second.met == it->second.req) {
              to_release = std::move(it->second.pulls);
              table.erase(it);
            }
          }
          if (!to_release.empty()) {
            cache.ReleaseBatch(to_release.data(), to_release.size());
          }
        }
      }
    }
  });

  std::atomic<bool> stop_gc{false};
  std::thread gc([&] {
    while (!stop_gc.load()) {
      if (cache.Overflowed()) {
        evicted_total.fetch_add(cache.EvictUpTo(cache.ExcessOverCapacity()));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  for (auto& t : threads) t.join();
  producers_done.store(true);
  responder.join();
  stop_gc.store(true);
  gc.join();

  // Every pull batch resolved and released its locks.
  EXPECT_TRUE(table.empty());
  EXPECT_TRUE(board.empty());

  // Structural invariants + conservation: no entry in both Γ and R, the
  // Z-list covers exactly the unlocked entries, and with every request
  // answered the exact entry count equals inserted - evicted.
  const int64_t exact = cache.CheckInvariants();
  EXPECT_EQ(exact, cache.ExactSize());
  EXPECT_EQ(exact, responses_inserted.load() - evicted_total.load());
  // Everything is released, so the whole cache must be evictable...
  EXPECT_EQ(cache.EvictUpTo(exact + 100), exact);
  EXPECT_EQ(cache.ExactSize(), 0);
  // ...and the shared counter must commit back to zero (bulk eviction
  // commits exactly; thread deltas were flushed on exit).
  EXPECT_EQ(cache.ApproxSize(), 0);
}

TEST(CacheStress, MutexZList) { RunStress(true); }
TEST(CacheStress, MutexFullScan) { RunStress(false); }

/// Blocks until L_file's writer has caught up: every batch is on disk.
void AwaitWritten(const SpillList& list) {
  while (list.QueueDepth() != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

/// Async spill pipeline stress: a producer pushes batches into L_file and
/// a consumer pops them back through every path (unwritten mem-hit,
/// in-flight wait, disk read) while the producer takes periodic
/// checkpoint-style copies. Every batch must come back exactly once with
/// exact contents.
TEST(CacheStress, AsyncSpillRoundTrips) {
  const std::string dir = MakeTempDir("async_spill_stress");
  SpillList l_file(dir + "/l");

  constexpr int kBatches = 120;
  constexpr int kRecordsPerBatch = 16;
  std::atomic<int64_t> records_back{0};

  std::thread producer([&] {
    for (int b = 0; b < kBatches; ++b) {
      std::vector<std::string> records;
      for (int r = 0; r < kRecordsPerBatch; ++r) {
        records.push_back("batch" + std::to_string(b) + "_rec" +
                          std::to_string(r));
      }
      l_file.PushBack(std::move(records));
      if (b % 7 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      if (b % 31 == 0) {
        std::vector<std::string> copy;
        l_file.CopyRecords(&copy);
        EXPECT_EQ(copy.size() % kRecordsPerBatch, 0u);
      }
    }
  });

  std::thread consumer([&] {
    int consumed = 0;
    std::vector<std::string> records;
    while (consumed < kBatches) {
      if (!l_file.PopFront(&records)) {
        std::this_thread::sleep_for(std::chrono::microseconds(30));
        continue;
      }
      EXPECT_EQ(static_cast<int>(records.size()), kRecordsPerBatch);
      // One producer, FIFO L_file: the i-th batch popped is batch i.
      for (size_t r = 0; r < records.size(); ++r) {
        EXPECT_EQ(records[r], "batch" + std::to_string(consumed) + "_rec" +
                                  std::to_string(r));
      }
      records_back.fetch_add(static_cast<int64_t>(records.size()));
      ++consumed;
    }
  });

  producer.join();
  consumer.join();
  EXPECT_EQ(records_back.load(), int64_t{kBatches} * kRecordsPerBatch);
  EXPECT_EQ(l_file.QueueDepth(), 0);
  EXPECT_EQ(l_file.TotalRecords(), 0);
  const auto& stats = l_file.stats();
  // Every batch came back from memory or from disk, exactly once.
  EXPECT_EQ(stats.mem_hits.load() + stats.reads.load(), kBatches);
  l_file.Stop();
  RemoveTree(dir);
}

/// Pins the on-disk spill format that checkpoints read: a batch L_file's
/// writer put on disk is byte-identical to SpillFile::WriteBatch's file.
TEST(CacheStress, AsyncWriterMatchesSyncFormat) {
  const std::string dir = MakeTempDir("async_spill_format");
  std::vector<std::string> records = {"alpha", "bravo", std::string(1000, 'x'),
                                      ""};
  std::string sync_path;
  ASSERT_TRUE(SpillFile::WriteBatch(dir, records, &sync_path).ok());
  // Written by the list's writer thread (not popped, so it cannot mem-hit).
  const std::string list_dir = dir + "/l";
  SpillList l_file(list_dir);
  l_file.PushBack(records);
  AwaitWritten(l_file);
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(list_dir)) {
    files.push_back(entry.path());
  }
  ASSERT_EQ(files.size(), 1u);
  auto bytes_of = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  EXPECT_EQ(bytes_of(files[0].string()), bytes_of(sync_path));
  std::vector<std::string> back;
  ASSERT_TRUE(l_file.PopFront(&back));
  EXPECT_EQ(back, records);
  EXPECT_EQ(l_file.stats().reads.load(), 1);
  l_file.Stop();
  RemoveTree(dir);
}

}  // namespace
}  // namespace gthinker
