// Tests for Subgraph, Task serialization, and the protocol encoders.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "apps/maxclique_app.h"
#include "core/protocol.h"
#include "core/subgraph.h"
#include "core/task.h"
#include "core/vertex.h"

namespace gthinker {
namespace {

using VertexT = Vertex<AdjList>;

VertexT V(VertexId id, AdjList adj) {
  VertexT v;
  v.id = id;
  v.value = std::move(adj);
  return v;
}

TEST(Subgraph, AddAndLookup) {
  Subgraph<VertexT> g;
  g.AddVertex(V(3, {4, 5}));
  g.AddVertex(V(4, {5}));
  EXPECT_EQ(g.NumVertices(), 2u);
  EXPECT_TRUE(g.HasVertex(3));
  EXPECT_FALSE(g.HasVertex(9));
  ASSERT_NE(g.GetVertex(4), nullptr);
  EXPECT_EQ(g.GetVertex(4)->value, (AdjList{5}));
  EXPECT_EQ(g.GetVertex(9), nullptr);
}

TEST(Subgraph, AddVertexOverwritesSameId) {
  Subgraph<VertexT> g;
  g.AddVertex(V(3, {4}));
  g.AddVertex(V(3, {7, 8}));
  EXPECT_EQ(g.NumVertices(), 1u);
  EXPECT_EQ(g.GetVertex(3)->value, (AdjList{7, 8}));
}

TEST(Subgraph, PreservesInsertionOrder) {
  Subgraph<VertexT> g;
  g.AddVertex(V(9, {}));
  g.AddVertex(V(2, {}));
  g.AddVertex(V(5, {}));
  EXPECT_EQ(g.vertices()[0].id, 9u);
  EXPECT_EQ(g.vertices()[1].id, 2u);
  EXPECT_EQ(g.vertices()[2].id, 5u);
}

TEST(Subgraph, SerializationRoundtrip) {
  Subgraph<VertexT> g;
  g.AddVertex(V(3, {4, 5}));
  g.AddVertex(V(4, {}));
  Serializer ser;
  g.Serialize(ser);
  Subgraph<VertexT> back;
  Deserializer des(ser);
  ASSERT_TRUE(back.Deserialize(des).ok());
  EXPECT_EQ(back.NumVertices(), 2u);
  EXPECT_EQ(back.GetVertex(3)->value, (AdjList{4, 5}));
  EXPECT_EQ(back.vertices()[0].id, 3u);  // order preserved
}

TEST(Subgraph, ClearEmpties) {
  Subgraph<VertexT> g;
  g.AddVertex(V(1, {2}));
  g.Clear();
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_FALSE(g.HasVertex(1));
}

TEST(Subgraph, MemoryBytesGrowsWithContent) {
  Subgraph<VertexT> g;
  const int64_t empty = g.MemoryBytes();
  g.AddVertex(V(1, AdjList(100, 7)));
  EXPECT_GT(g.MemoryBytes(), empty + 300);
}

TEST(Task, PullAccumulatesAndTakeClears) {
  Task<AdjList, VertexId> t;
  t.Pull(3);
  t.Pull(9);
  EXPECT_EQ(t.pulls(), (std::vector<VertexId>{3, 9}));
  auto taken = t.TakePulls();
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_TRUE(t.pulls().empty());
}

TEST(Task, SerializationRoundtripWithContext) {
  Task<AdjList, CliqueContext> t;
  t.context().s = {1, 2, 3};
  t.subgraph().AddVertex(V(4, {5, 6}));
  t.Pull(5);
  t.Pull(6);
  t.BumpIteration();

  Serializer ser;
  t.Serialize(ser);
  Task<AdjList, CliqueContext> back;
  Deserializer des(ser);
  ASSERT_TRUE(back.Deserialize(des).ok());
  EXPECT_EQ(back.context().s, (std::vector<VertexId>{1, 2, 3}));
  EXPECT_EQ(back.pulls(), (std::vector<VertexId>{5, 6}));
  EXPECT_EQ(back.iteration(), 1u);
  EXPECT_EQ(back.subgraph().GetVertex(4)->value, (AdjList{5, 6}));
}

TEST(Task, RecordStartsWithIterationThenPulls) {
  // Wire protocol v3 layout of a task record: u32 iteration | u64 n, n pull
  // ids | subgraph | context. Nothing sits between the iteration and the
  // pull list.
  Task<AdjList, CliqueContext> t;
  t.Pull(9);
  t.BumpIteration();
  t.BumpIteration();
  Serializer ser;
  t.Serialize(ser);
  const std::string bytes = ser.Release();
  ASSERT_GE(bytes.size(), 4 + 8 + sizeof(VertexId));
  uint32_t iteration = 0;
  uint64_t pulls = 0;
  VertexId first = 0;
  std::memcpy(&iteration, bytes.data(), sizeof(iteration));
  std::memcpy(&pulls, bytes.data() + 4, sizeof(pulls));
  std::memcpy(&first, bytes.data() + 12, sizeof(first));
  EXPECT_EQ(iteration, 2u);
  EXPECT_EQ(pulls, 1u);
  EXPECT_EQ(first, 9u);
}

TEST(Task, LabeledVertexSerialization) {
  Task<LabeledAdj, VertexId> t;
  Vertex<LabeledAdj> v;
  v.id = 2;
  v.value.label = 5;
  v.value.adj = {{3, 1}, {4, 0}};
  t.subgraph().AddVertex(v);
  t.context() = 2;

  Serializer ser;
  t.Serialize(ser);
  Task<LabeledAdj, VertexId> back;
  Deserializer des(ser);
  ASSERT_TRUE(back.Deserialize(des).ok());
  const auto* got = back.subgraph().GetVertex(2);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->value.label, 5);
  ASSERT_EQ(got->value.adj.size(), 2u);
  EXPECT_EQ(got->value.adj[0].id, 3u);
  EXPECT_EQ(got->value.adj[0].label, 1);
}

TEST(Task, CorruptBlobFailsCleanly) {
  Task<AdjList, CliqueContext> t;
  Deserializer des("garbage", 3);
  EXPECT_FALSE(t.Deserialize(des).ok());
}

TEST(Protocol, TaskIdPacksComperAndSeq) {
  const uint64_t id = MakeTaskId(5, 123456789);
  EXPECT_EQ(ComperOfTaskId(id), 5);
  EXPECT_EQ(id & ((1ULL << 48) - 1), 123456789ULL);
  EXPECT_EQ(ComperOfTaskId(MakeTaskId(0, 0)), 0);
  EXPECT_EQ(ComperOfTaskId(MakeTaskId(65535, 1)), 65535);
}

TEST(Protocol, ProgressReportRoundtrip) {
  ProgressReport r;
  r.worker_id = 3;
  r.final_report = 1;
  r.idle = 1;
  r.remaining_estimate = 42;
  r.data_sent = 100;
  r.data_processed = 99;
  r.peak_mem_bytes = 1 << 20;
  r.ledger.spawned = 7;
  r.ledger.restored = 2;
  r.ledger.finished = 5;
  r.ledger.spilled = 3;
  r.ledger.loaded = 3;
  r.ledger.donated = 1;
  r.ledger.received = 4;
  r.ledger.checkpointed = 6;
  r.tasks_live = 6;
  r.tasks_on_disk = 2;
  r.drained_messages = 9;
  r.agg_delta = "blobby";
  ProgressReport back;
  ASSERT_TRUE(back.Decode(r.Encode()).ok());
  EXPECT_EQ(back.worker_id, 3);
  EXPECT_EQ(back.final_report, 1);
  EXPECT_EQ(back.idle, 1);
  EXPECT_EQ(back.remaining_estimate, 42);
  EXPECT_EQ(back.data_sent, 100);
  EXPECT_EQ(back.data_processed, 99);
  EXPECT_EQ(back.peak_mem_bytes, 1 << 20);
  EXPECT_EQ(back.ledger.spawned, 7);
  EXPECT_EQ(back.ledger.restored, 2);
  EXPECT_EQ(back.ledger.finished, 5);
  EXPECT_EQ(back.ledger.spilled, 3);
  EXPECT_EQ(back.ledger.loaded, 3);
  EXPECT_EQ(back.ledger.donated, 1);
  EXPECT_EQ(back.ledger.received, 4);
  EXPECT_EQ(back.ledger.checkpointed, 6);
  EXPECT_EQ(back.ledger.ExpectedLive(), 7);
  EXPECT_EQ(back.tasks_live, 6);
  EXPECT_EQ(back.tasks_on_disk, 2);
  EXPECT_EQ(back.drained_messages, 9);
  EXPECT_EQ(back.agg_delta, "blobby");
}

TEST(Protocol, DrainBarrierRoundtrip) {
  int32_t worker = -1;
  ASSERT_TRUE(DecodeDrainBarrier(EncodeDrainBarrier(11), &worker).ok());
  EXPECT_EQ(worker, 11);
}

TEST(Protocol, VertexRequestRoundtrip) {
  std::vector<VertexId> ids = {9, 4, 4, 100};
  std::vector<VertexId> back;
  ASSERT_TRUE(DecodeVertexRequest(EncodeVertexRequest(ids), &back).ok());
  EXPECT_EQ(back, ids);
}

TEST(Protocol, StealOrderRoundtrip) {
  int32_t dst = -1;
  int64_t t_us = -1;
  ASSERT_TRUE(DecodeStealOrder(EncodeStealOrder(7, 42), &dst, &t_us).ok());
  EXPECT_EQ(dst, 7);
  EXPECT_EQ(t_us, 42);
}

TEST(Protocol, CheckpointMessagesRoundtrip) {
  CheckpointRequest req;
  req.epoch = 12;
  CheckpointRequest req_back;
  ASSERT_TRUE(req_back.Decode(req.Encode()).ok());
  EXPECT_EQ(req_back.epoch, 12u);

  CheckpointAck ack;
  ack.worker_id = 2;
  ack.epoch = 12;
  ack.agg_delta = "d";
  CheckpointAck ack_back;
  ASSERT_TRUE(ack_back.Decode(ack.Encode()).ok());
  EXPECT_EQ(ack_back.worker_id, 2);
  EXPECT_EQ(ack_back.epoch, 12u);
  EXPECT_EQ(ack_back.agg_delta, "d");
}

TEST(Protocol, DecodeGarbageFails) {
  ProgressReport r;
  EXPECT_FALSE(r.Decode("xx").ok());
}

}  // namespace
}  // namespace gthinker
