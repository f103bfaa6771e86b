// Tests for MiniDfs, SpillFile, and SpillList (L_file).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "storage/mini_dfs.h"
#include "storage/spill_file.h"
#include "storage/spill_list.h"

namespace gthinker {
namespace {

class MiniDfsTest : public ::testing::Test {
 protected:
  MiniDfsTest() : dir_(MakeTempDir("dfs")), dfs_(dir_) {}
  ~MiniDfsTest() override { RemoveTree(dir_); }
  std::string dir_;
  MiniDfs dfs_;
};

TEST_F(MiniDfsTest, PutGetRoundtrip) {
  ASSERT_TRUE(dfs_.Put("a/b/key", "payload").ok());
  std::string got;
  ASSERT_TRUE(dfs_.Get("a/b/key", &got).ok());
  EXPECT_EQ(got, "payload");
}

TEST_F(MiniDfsTest, GetMissingIsNotFound) {
  std::string got;
  EXPECT_TRUE(dfs_.Get("nope", &got).IsNotFound());
}

TEST_F(MiniDfsTest, ExistsAndDelete) {
  ASSERT_TRUE(dfs_.Put("k", "v").ok());
  EXPECT_TRUE(dfs_.Exists("k"));
  ASSERT_TRUE(dfs_.Delete("k").ok());
  EXPECT_FALSE(dfs_.Exists("k"));
  EXPECT_FALSE(dfs_.Delete("k").ok());
}

TEST_F(MiniDfsTest, PutOverwrites) {
  ASSERT_TRUE(dfs_.Put("k", "one").ok());
  ASSERT_TRUE(dfs_.Put("k", "two").ok());
  std::string got;
  ASSERT_TRUE(dfs_.Get("k", &got).ok());
  EXPECT_EQ(got, "two");
}

TEST_F(MiniDfsTest, BinaryBlobSafe) {
  std::string blob(256, '\0');
  for (int i = 0; i < 256; ++i) blob[i] = static_cast<char>(i);
  ASSERT_TRUE(dfs_.Put("bin", blob).ok());
  std::string got;
  ASSERT_TRUE(dfs_.Get("bin", &got).ok());
  EXPECT_EQ(got, blob);
}

TEST_F(MiniDfsTest, ListSortedNonRecursive) {
  ASSERT_TRUE(dfs_.Put("parts/part_2", "b").ok());
  ASSERT_TRUE(dfs_.Put("parts/part_1", "a").ok());
  ASSERT_TRUE(dfs_.Put("parts/sub/deep", "c").ok());
  std::vector<std::string> keys;
  ASSERT_TRUE(dfs_.List("parts", &keys).ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"parts/part_1", "parts/part_2"}));
}

TEST_F(MiniDfsTest, ListMissingDirIsEmpty) {
  std::vector<std::string> keys = {"sentinel"};
  ASSERT_TRUE(dfs_.List("ghost", &keys).ok());
  EXPECT_TRUE(keys.empty());
}

TEST_F(MiniDfsTest, ClearEmptiesRoot) {
  ASSERT_TRUE(dfs_.Put("x", "1").ok());
  ASSERT_TRUE(dfs_.Clear().ok());
  EXPECT_FALSE(dfs_.Exists("x"));
  // Still usable after clear.
  ASSERT_TRUE(dfs_.Put("y", "2").ok());
  EXPECT_TRUE(dfs_.Exists("y"));
}

TEST(SpillFileTest, BatchRoundtripAndDelete) {
  const std::string dir = MakeTempDir("spill");
  std::vector<std::string> records = {"alpha", "", std::string(1000, 'z')};
  std::string path;
  ASSERT_TRUE(SpillFile::WriteBatch(dir, records, &path).ok());
  std::vector<std::string> back;
  ASSERT_TRUE(SpillFile::ReadBatch(path, &back).ok());
  EXPECT_EQ(back, records);
  // ReadBatchAndDelete removes the file.
  ASSERT_TRUE(SpillFile::ReadBatchAndDelete(path, &back).ok());
  EXPECT_EQ(back, records);
  EXPECT_TRUE(SpillFile::ReadBatch(path, &back).IsNotFound());
  RemoveTree(dir);
}

TEST(SpillFileTest, UniquePathsPerBatch) {
  const std::string dir = MakeTempDir("spill");
  std::string p1, p2;
  ASSERT_TRUE(SpillFile::WriteBatch(dir, {"a"}, &p1).ok());
  ASSERT_TRUE(SpillFile::WriteBatch(dir, {"b"}, &p2).ok());
  EXPECT_NE(p1, p2);
  RemoveTree(dir);
}

TEST(SpillFileTest, MissingFileIsNotFound) {
  std::vector<std::string> out;
  EXPECT_TRUE(SpillFile::ReadBatch("/no/such/file", &out).IsNotFound());
}

/// A batch of `n` records tagged `tag`: "tag/0", "tag/1", ...
std::vector<std::string> Batch(const std::string& tag, int n) {
  std::vector<std::string> records;
  for (int i = 0; i < n; ++i) records.push_back(tag + "/" + std::to_string(i));
  return records;
}

/// Files in `dir`; 0 before the list's first write creates it.
int FilesIn(const std::string& dir) {
  if (!std::filesystem::exists(dir)) return 0;
  return static_cast<int>(
      std::distance(std::filesystem::directory_iterator(dir),
                    std::filesystem::directory_iterator()));
}

/// Blocks until the writer has caught up: every listed batch is on disk.
void AwaitWritten(const SpillList& list) {
  while (list.QueueDepth() != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

/// Holds the writer inside its write observer, where its batch is in
/// flight: the file is written but the batch is not yet marked so.
class WriterGate {
 public:
  void Hold() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return entered_ > 0; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
};

class SpillListTest : public ::testing::Test {
 protected:
  SpillListTest() : root_(MakeTempDir("spill_list")), dir_(root_ + "/l") {}
  ~SpillListTest() override { RemoveTree(root_); }
  std::string root_;
  std::string dir_;  // created by the list's first write
};

TEST_F(SpillListTest, FifoFrontLifoBack) {
  SpillList list(dir_);
  list.PushBack(Batch("a", 10));
  list.PushBack(Batch("b", 20));
  list.PushBack(Batch("c", 30));
  EXPECT_EQ(list.TotalRecords(), 60);
  std::vector<std::string> got;
  ASSERT_TRUE(list.PopFront(&got));  // refill takes the oldest
  EXPECT_EQ(got, Batch("a", 10));
  ASSERT_TRUE(list.PopBack(&got));  // donation takes the newest
  EXPECT_EQ(got, Batch("c", 30));
  EXPECT_EQ(list.TotalRecords(), 20);
  ASSERT_TRUE(list.PopFront(&got));
  EXPECT_EQ(got, Batch("b", 20));
  EXPECT_FALSE(list.PopFront(&got));
  EXPECT_FALSE(list.PopBack(&got));
  EXPECT_EQ(list.TotalRecords(), 0);
  list.Stop();
}

TEST_F(SpillListTest, BatchesKeepTheirRecordCounts) {
  SpillList list(dir_);
  list.PushBack(Batch("full", 150));
  list.PushBack(Batch("tail", 7));
  AwaitWritten(list);  // both come back from disk, through the count check
  std::vector<std::string> got;
  ASSERT_TRUE(list.PopFront(&got));
  EXPECT_EQ(got.size(), 150u);
  ASSERT_TRUE(list.PopFront(&got));
  EXPECT_EQ(got.size(), 7u);
  EXPECT_EQ(list.stats().reads.load(), 2);
  list.Stop();
}

TEST_F(SpillListTest, CopyDoesNotDrain) {
  SpillList list(dir_);
  list.PushBack(Batch("x", 1));
  AwaitWritten(list);  // x is copied from its file
  list.PushBack(Batch("y", 2));
  const std::vector<std::string> expected = {"x/0", "y/0", "y/1"};
  for (int copy = 0; copy < 2; ++copy) {
    std::vector<std::string> records;
    list.CopyRecords(&records);
    EXPECT_EQ(records, expected);
    EXPECT_EQ(list.TotalRecords(), 3);
  }
  std::vector<std::string> got;
  ASSERT_TRUE(list.PopFront(&got));
  EXPECT_EQ(got, Batch("x", 1));
  ASSERT_TRUE(list.PopFront(&got));
  EXPECT_EQ(got, Batch("y", 2));
  list.Stop();
}

TEST_F(SpillListTest, ConcurrentPushPop) {
  SpillList list(dir_);
  constexpr int kPushers = 4;
  constexpr int kBatchesEach = 250;
  constexpr int kBatches = kPushers * kBatchesEach;
  std::atomic<int> popped{0};
  std::vector<std::string> records[2];  // per popper: front, back
  std::vector<std::thread> threads;
  for (int t = 0; t < kPushers; ++t) {
    threads.emplace_back([&list, t] {
      for (int i = 0; i < kBatchesEach; ++i) {
        list.PushBack(Batch(std::to_string(t * 1000 + i), 3));
      }
    });
  }
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&, p] {
      std::vector<std::string> got;
      while (popped.load() < kBatches) {
        if (p == 0 ? list.PopFront(&got) : list.PopBack(&got)) {
          EXPECT_EQ(got.size(), 3u);
          records[p].insert(records[p].end(), got.begin(), got.end());
          popped.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // Every pushed record came back exactly once.
  std::vector<std::string> all = records[0];
  all.insert(all.end(), records[1].begin(), records[1].end());
  std::vector<std::string> expected;
  for (int b = 0; b < kBatches; ++b) {
    const int t = b / kBatchesEach;
    const int i = b % kBatchesEach;
    for (std::string& r : Batch(std::to_string(t * 1000 + i), 3)) {
      expected.push_back(std::move(r));
    }
  }
  std::sort(all.begin(), all.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(all, expected);
  EXPECT_EQ(list.TotalRecords(), 0);
  const auto& stats = list.stats();
  EXPECT_EQ(stats.mem_hits.load() + stats.reads.load(), kBatches);
  list.Stop();
  EXPECT_EQ(FilesIn(dir_), 0);
}

// The list's layout is [written | in flight | unwritten]; the next three
// tests pin what a pop does at each kind of end.

TEST_F(SpillListTest, PopBackOfUnwrittenBatchIsAMemoryHit) {
  WriterGate gate;
  SpillList list(dir_);
  list.SetWriteObserver([&gate](int64_t, int64_t) { gate.Hold(); });
  list.PushBack(Batch("a", 4));
  gate.AwaitEntered();  // a is in flight
  list.PushBack(Batch("b", 4));
  list.PushBack(Batch("c", 4));
  EXPECT_EQ(list.QueueDepth(), 3);
  std::vector<std::string> got;
  ASSERT_TRUE(list.PopBack(&got));
  EXPECT_EQ(got, Batch("c", 4));
  EXPECT_EQ(list.stats().mem_hits.load(), 1);
  EXPECT_EQ(list.stats().reads.load(), 0);
  gate.Open();
  AwaitWritten(list);
  EXPECT_EQ(FilesIn(dir_), 2);  // a and b: c's write was cancelled
  ASSERT_TRUE(list.PopBack(&got));
  EXPECT_EQ(got, Batch("b", 4));
  ASSERT_TRUE(list.PopFront(&got));
  EXPECT_EQ(got, Batch("a", 4));
  EXPECT_EQ(list.stats().mem_hits.load(), 1);
  EXPECT_EQ(list.stats().reads.load(), 2);
  EXPECT_EQ(FilesIn(dir_), 0);
  list.Stop();
}

TEST_F(SpillListTest, PopFrontAfterWriterCaughtUpReadsDisk) {
  SpillList list(dir_);
  int64_t written_bytes = 0;
  int64_t read_bytes = 0;
  list.SetWriteObserver(
      [&written_bytes](int64_t, int64_t bytes) { written_bytes = bytes; });
  list.SetReadObserver(
      [&read_bytes](int64_t, int64_t bytes) { read_bytes = bytes; });
  list.PushBack(Batch("a", 5));
  AwaitWritten(list);
  EXPECT_EQ(FilesIn(dir_), 1);
  std::vector<std::string> got;
  ASSERT_TRUE(list.PopFront(&got));
  EXPECT_EQ(got, Batch("a", 5));
  EXPECT_EQ(list.stats().reads.load(), 1);
  EXPECT_EQ(list.stats().mem_hits.load(), 0);
  EXPECT_GT(read_bytes, 0);
  EXPECT_EQ(read_bytes, written_bytes);
  EXPECT_EQ(FilesIn(dir_), 0);  // the read deleted the file
  list.Stop();
}

TEST_F(SpillListTest, PopOfInFlightBatchWaitsForItsWrite) {
  for (const bool front : {true, false}) {
    WriterGate gate;
    SpillList list(dir_);
    list.SetWriteObserver([&gate](int64_t, int64_t) { gate.Hold(); });
    auto pop = [&list, front](std::vector<std::string>* got) {
      return front ? list.PopFront(got) : list.PopBack(got);
    };
    list.PushBack(Batch("a", 3));
    gate.AwaitEntered();  // a is in flight, at both ends of the list
    std::atomic<bool> opened{false};
    std::thread popper([&] {
      std::vector<std::string> got;
      EXPECT_TRUE(pop(&got));
      EXPECT_TRUE(opened.load()) << "popped before the write finished";
      EXPECT_EQ(got, Batch("a", 3));
    });
    // The popper takes a off the list before it waits, so the next pop at
    // the same end gets b from memory while a's write is still held.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (list.TotalRecords() != 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (list.TotalRecords() != 0) {
      ADD_FAILURE() << "a pop in flight kept its batch on the list";
      opened.store(true);
      gate.Open();
      popper.join();
      return;
    }
    list.PushBack(Batch("b", 3));
    std::vector<std::string> got;
    EXPECT_TRUE(pop(&got));
    EXPECT_EQ(got, Batch("b", 3));
    EXPECT_EQ(list.stats().mem_hits.load(), 1) << "front=" << front;
    opened.store(true);
    gate.Open();
    popper.join();
    EXPECT_EQ(list.stats().reads.load(), 1) << "front=" << front;
    list.Stop();
  }
}

TEST(MakeTempDirTest, UniqueAndWritable) {
  const std::string a = MakeTempDir("t");
  const std::string b = MakeTempDir("t");
  EXPECT_NE(a, b);
  MiniDfs probe(a);
  EXPECT_TRUE(probe.Put("x", "y").ok());
  RemoveTree(a);
  RemoveTree(b);
}

}  // namespace
}  // namespace gthinker

#include "graph/generator.h"
#include "graph/loader.h"
#include "storage/partitioned_graph.h"

namespace gthinker {
namespace {

TEST(PartitionedGraph, WritesAllVerticesAcrossParts) {
  Graph g = Generator::ErdosRenyi(60, 150, 12);
  const std::string dir = MakeTempDir("partdfs");
  MiniDfs dfs(dir);
  ASSERT_TRUE(WritePartitionedAdjacency(g, &dfs, "graph", 4).ok());
  std::vector<std::string> keys;
  ASSERT_TRUE(dfs.List("graph", &keys).ok());
  EXPECT_EQ(keys.size(), 4u);
  // Re-parse every line; the union must reconstruct the graph.
  Graph rebuilt;
  for (const std::string& key : keys) {
    std::string blob;
    ASSERT_TRUE(dfs.Get(key, &blob).ok());
    size_t pos = 0;
    while (pos < blob.size()) {
      size_t nl = blob.find('\n', pos);
      if (nl == std::string::npos) nl = blob.size();
      const std::string line = blob.substr(pos, nl - pos);
      pos = nl + 1;
      if (line.empty()) continue;
      VertexId id = 0;
      AdjList adj;
      ASSERT_TRUE(GraphIo::ParseAdjacencyLine(line, &id, &adj).ok());
      for (VertexId u : adj) {
        if (id < u) rebuilt.AddEdge(id, u);
      }
    }
  }
  rebuilt.Resize(g.NumVertices());
  rebuilt.Finalize();
  EXPECT_EQ(rebuilt.NumEdges(), g.NumEdges());
  RemoveTree(dir);
}

TEST(PartitionedGraph, RejectsBadPartCount) {
  Graph g(4);
  g.Finalize();
  const std::string dir = MakeTempDir("partdfs");
  MiniDfs dfs(dir);
  EXPECT_TRUE(
      WritePartitionedAdjacency(g, &dfs, "graph", 0).IsInvalidArgument());
  RemoveTree(dir);
}

TEST(CorruptSpillFile, ReportsCorruption) {
  const std::string dir = MakeTempDir("spillbad");
  MiniDfs dfs(dir);
  ASSERT_TRUE(dfs.Put("bad.bin", "this is not a spill file").ok());
  std::vector<std::string> records;
  Status s = SpillFile::ReadBatch(dfs.PathFor("bad.bin"), &records);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  RemoveTree(dir);
}

}  // namespace
}  // namespace gthinker
