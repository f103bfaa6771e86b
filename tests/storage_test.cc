// Tests for MiniDfs, SpillFile, and FileList.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "storage/file_list.h"
#include "storage/mini_dfs.h"
#include "storage/spill_file.h"

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

TEST(SpillFileTest, ReservePathThenWriteMatchesWriteBatch) {
  // The async writer's split protocol (reserve the unique name now, write
  // the bytes later) must produce the same files WriteBatch does.
  const std::string dir = MakeTempDir("spill");
  const std::string reserved = SpillFile::ReservePath(dir);
  const std::string reserved2 = SpillFile::ReservePath(dir);
  EXPECT_NE(reserved, reserved2);  // names are unique even before writing
  std::vector<std::string> records = {"x", std::string(500, 'y')};
  int64_t bytes = 0;
  ASSERT_TRUE(SpillFile::WriteBatchTo(reserved, records, &bytes).ok());
  EXPECT_GT(bytes, 0);
  std::vector<std::string> back;
  int64_t read_bytes = 0;
  ASSERT_TRUE(SpillFile::ReadBatchAndDelete(reserved, &back, &read_bytes)
                  .ok());
  EXPECT_EQ(back, records);
  EXPECT_EQ(read_bytes, bytes);
  RemoveTree(dir);
}

TEST(FileListTest, FifoFrontLifoBack) {
  FileList list;
  list.PushBack("a", 10);
  list.PushBack("b", 20);
  list.PushBack("c", 30);
  EXPECT_EQ(list.Size(), 3u);
  EXPECT_EQ(list.TotalRecords(), 60);
  EXPECT_EQ(list.TryPopFront()->path, "a");  // refill takes oldest
  EXPECT_EQ(list.TryPopBack()->path, "c");   // donation takes newest
  EXPECT_EQ(list.TotalRecords(), 20);
  EXPECT_EQ(list.TryPopFront()->path, "b");
  EXPECT_FALSE(list.TryPopFront().has_value());
  EXPECT_FALSE(list.TryPopBack().has_value());
  EXPECT_TRUE(list.Empty());
  EXPECT_EQ(list.TotalRecords(), 0);
}

TEST(FileListTest, EntriesKeepTheirRecordCounts) {
  FileList list;
  list.PushBack("full", 150);
  list.PushBack("tail", 7);
  auto full = list.TryPopFront();
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->records, 150);
  auto tail = list.TryPopFront();
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->records, 7);
}

TEST(FileListTest, SnapshotDoesNotDrain) {
  FileList list;
  list.PushBack("x", 1);
  list.PushBack("y", 2);
  auto snap = list.Snapshot();
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_EQ(list.Size(), 2u);
  EXPECT_EQ(list.TotalRecords(), 3);
}

TEST(FileListTest, ConcurrentPushPop) {
  FileList list;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&list, t] {
      for (int i = 0; i < 250; ++i) {
        list.PushBack(std::to_string(t * 1000 + i), 3);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(list.Size(), 1000u);
  EXPECT_EQ(list.TotalRecords(), 3000);
  int popped = 0;
  while (list.TryPopFront().has_value()) ++popped;
  EXPECT_EQ(popped, 1000);
  EXPECT_EQ(list.TotalRecords(), 0);
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
