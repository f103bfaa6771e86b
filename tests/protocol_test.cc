// Round-trip and robustness tests for every wire payload in core/protocol.h.
// Corrupted, truncated or over-long payloads must come back as
// Status::Corruption — decoders never crash, over-read, allocate implausible
// amounts, or ignore trailing bytes.

#include "core/protocol.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/payload.h"
#include "util/serializer.h"

namespace gthinker {
namespace {

// Rebuilds a payload with the last `n` bytes chopped off, exercising the
// truncated-wire path of a decoder.
Payload Truncate(const Payload& p, size_t n) {
  std::string bytes = p.ToString();
  bytes.resize(bytes.size() - n);
  return Payload(std::move(bytes));
}

// Rebuilds a payload with one stray byte appended after the message.
Payload Extend(const Payload& p) {
  return Payload(p.ToString() + '\x5a');
}

ProgressReport MakeReport() {
  ProgressReport r;
  r.worker_id = 3;
  r.final_report = 1;
  r.idle = 1;
  r.remaining_estimate = 42;
  r.data_sent = 100;
  r.data_processed = 99;
  r.task_iterations = 21;
  r.spilled_batches = 2;
  r.stolen_batches = 1;
  r.vertex_requests = 55;
  r.cache_hits = 44;
  r.cache_evictions = 3;
  r.peak_mem_bytes = 1 << 20;
  r.comper_idle_rounds = 9;
  r.cache_requests = 60;
  r.comper_rounds = 80;
  r.ledger.spawned = 7;
  r.ledger.restored = 1;
  r.ledger.finished = 6;
  r.ledger.spilled = 2;
  r.ledger.loaded = 2;
  r.ledger.donated = 1;
  r.ledger.received = 1;
  r.ledger.checkpointed = 4;
  r.ledger.disk_donated = 3;
  r.tasks_live = 2;
  r.tasks_on_disk = 1;
  r.drained_messages = 5;
  r.queue_depth = 11;
  r.cache_size = 12;
  r.spill_queue_depth = 13;
  r.inbox_depth = 14;
  r.agg_delta = std::string("\x00\x01\x02opaque", 9);
  return r;
}

TEST(ProtocolTest, ProgressReportRoundTrip) {
  const ProgressReport r = MakeReport();
  Payload wire = r.Encode();
  ProgressReport got;
  ASSERT_TRUE(got.Decode(wire).ok());
  EXPECT_EQ(got.worker_id, r.worker_id);
  EXPECT_EQ(got.final_report, r.final_report);
  EXPECT_EQ(got.idle, r.idle);
  EXPECT_EQ(got.remaining_estimate, r.remaining_estimate);
  EXPECT_EQ(got.data_sent, r.data_sent);
  EXPECT_EQ(got.data_processed, r.data_processed);
  EXPECT_EQ(got.task_iterations, r.task_iterations);
  EXPECT_EQ(got.spilled_batches, r.spilled_batches);
  EXPECT_EQ(got.stolen_batches, r.stolen_batches);
  EXPECT_EQ(got.vertex_requests, r.vertex_requests);
  EXPECT_EQ(got.cache_hits, r.cache_hits);
  EXPECT_EQ(got.cache_evictions, r.cache_evictions);
  EXPECT_EQ(got.peak_mem_bytes, r.peak_mem_bytes);
  EXPECT_EQ(got.comper_idle_rounds, r.comper_idle_rounds);
  EXPECT_EQ(got.cache_requests, r.cache_requests);
  EXPECT_EQ(got.comper_rounds, r.comper_rounds);
  EXPECT_EQ(got.ledger.spawned, r.ledger.spawned);
  EXPECT_EQ(got.ledger.restored, r.ledger.restored);
  EXPECT_EQ(got.ledger.finished, r.ledger.finished);
  EXPECT_EQ(got.ledger.spilled, r.ledger.spilled);
  EXPECT_EQ(got.ledger.loaded, r.ledger.loaded);
  EXPECT_EQ(got.ledger.donated, r.ledger.donated);
  EXPECT_EQ(got.ledger.received, r.ledger.received);
  EXPECT_EQ(got.ledger.checkpointed, r.ledger.checkpointed);
  EXPECT_EQ(got.ledger.disk_donated, r.ledger.disk_donated);
  EXPECT_EQ(got.tasks_live, r.tasks_live);
  EXPECT_EQ(got.tasks_on_disk, r.tasks_on_disk);
  EXPECT_EQ(got.drained_messages, r.drained_messages);
  EXPECT_EQ(got.queue_depth, r.queue_depth);
  EXPECT_EQ(got.cache_size, r.cache_size);
  EXPECT_EQ(got.spill_queue_depth, r.spill_queue_depth);
  EXPECT_EQ(got.inbox_depth, r.inbox_depth);
  EXPECT_EQ(got.agg_delta, r.agg_delta);
}

TEST(ProtocolTest, ProgressReportEveryTruncationIsCorruption) {
  Payload wire = MakeReport().Encode();
  const size_t total = wire.size();
  for (size_t cut = 1; cut <= total; ++cut) {
    ProgressReport got;
    Status s = got.Decode(Truncate(wire, cut));
    EXPECT_TRUE(s.IsCorruption()) << "cut=" << cut;
  }
}

TEST(ProtocolTest, VertexRequestRoundTrip) {
  const std::vector<VertexId> ids = {1, 7, 42, 0xffffffffu};
  Payload wire = EncodeVertexRequest(ids);
  std::vector<VertexId> got;
  ASSERT_TRUE(DecodeVertexRequest(wire, &got).ok());
  EXPECT_EQ(got, ids);
  // Empty request is legal.
  ASSERT_TRUE(DecodeVertexRequest(EncodeVertexRequest({}), &got).ok());
  EXPECT_TRUE(got.empty());
}

TEST(ProtocolTest, VertexRequestTruncatedAndGarbageCount) {
  Payload wire = EncodeVertexRequest({1, 2, 3});
  std::vector<VertexId> got;
  EXPECT_TRUE(DecodeVertexRequest(Truncate(wire, 2), &got).IsCorruption());
  // A count claiming more elements than the bytes can hold must be rejected
  // before any allocation.
  Serializer ser;
  ser.Write<uint64_t>(uint64_t{1} << 60);
  EXPECT_TRUE(DecodeVertexRequest(TakePayload(ser), &got).IsCorruption());
  // Empty wire: not even the count fits.
  EXPECT_TRUE(DecodeVertexRequest(Payload(), &got).IsCorruption());
}

TEST(ProtocolTest, TaskBatchRoundTripWithTimestamp) {
  const std::vector<std::string> records = {"t0", "t1", "t2"};
  Payload wire = EncodeTaskBatch(records, 123456);
  std::vector<std::string> got;
  int64_t t_us = 0;
  ASSERT_TRUE(DecodeTaskBatch(wire, &got, &t_us).ok());
  EXPECT_EQ(got, records);
  EXPECT_EQ(t_us, 123456);
  // Timestamp out-param is optional.
  ASSERT_TRUE(DecodeTaskBatch(wire, &got).ok());
  EXPECT_EQ(got.size(), 3u);
}

TEST(ProtocolTest, TaskBatchTruncationIsCorruption) {
  Payload wire = EncodeTaskBatch({"abc"}, 9);
  std::vector<std::string> got;
  const size_t total = wire.size();
  for (size_t cut = 1; cut <= total; ++cut) {
    EXPECT_TRUE(DecodeTaskBatch(Truncate(wire, cut), &got).IsCorruption())
        << "cut=" << cut;
  }
}

TEST(ProtocolTest, StealOrderRoundTrip) {
  Payload wire = EncodeStealOrder(5, 987654);
  int32_t dst = -1;
  int64_t t_us = 0;
  ASSERT_TRUE(DecodeStealOrder(wire, &dst, &t_us).ok());
  EXPECT_EQ(dst, 5);
  EXPECT_EQ(t_us, 987654);
}

TEST(ProtocolTest, StealOrderLegacyShortFormDecodes) {
  // The pre-timestamp i32-only form now decodes as Corruption: the
  // timestamp is mandatory, and no peer can send the short form because
  // the wire is versioned through HELLO.
  Serializer ser;
  ser.Write<int32_t>(2);
  int32_t dst = -1;
  int64_t t_us = -1;
  EXPECT_TRUE(DecodeStealOrder(TakePayload(ser), &dst, &t_us).IsCorruption());
}

TEST(ProtocolTest, StealOrderTooShortIsCorruption) {
  Serializer ser;
  ser.Write<int16_t>(1);  // not even the i32 fits
  int32_t dst = 0;
  int64_t t_us = 0;
  EXPECT_TRUE(DecodeStealOrder(TakePayload(ser), &dst, &t_us).IsCorruption());
  EXPECT_TRUE(DecodeStealOrder(Payload(), &dst, &t_us).IsCorruption());
}

TEST(ProtocolTest, DrainBarrierRoundTripAndTruncation) {
  Payload wire = EncodeDrainBarrier(7);
  int32_t id = -1;
  ASSERT_TRUE(DecodeDrainBarrier(wire, &id).ok());
  EXPECT_EQ(id, 7);
  EXPECT_TRUE(DecodeDrainBarrier(Truncate(wire, 1), &id).IsCorruption());
  EXPECT_TRUE(DecodeDrainBarrier(Payload(), &id).IsCorruption());
}

TEST(ProtocolTest, CheckpointRequestRoundTripAndTruncation) {
  CheckpointRequest req;
  req.epoch = 0xabcdef0123456789ull;
  Payload wire = req.Encode();
  CheckpointRequest got;
  ASSERT_TRUE(got.Decode(wire).ok());
  EXPECT_EQ(got.epoch, req.epoch);
  EXPECT_TRUE(got.Decode(Truncate(wire, 3)).IsCorruption());
  EXPECT_TRUE(got.Decode(Payload()).IsCorruption());
}

TEST(ProtocolTest, CheckpointAckRoundTripAndTruncation) {
  CheckpointAck ack;
  ack.worker_id = 4;
  ack.epoch = 11;
  ack.agg_delta = std::string("blob\x00with nul", 13);
  Payload wire = ack.Encode();
  CheckpointAck got;
  ASSERT_TRUE(got.Decode(wire).ok());
  EXPECT_EQ(got.worker_id, 4);
  EXPECT_EQ(got.epoch, 11u);
  EXPECT_EQ(got.agg_delta, ack.agg_delta);
  const size_t total = wire.size();
  for (size_t cut = 1; cut <= total; ++cut) {
    EXPECT_TRUE(got.Decode(Truncate(wire, cut)).IsCorruption())
        << "cut=" << cut;
  }
}

TEST(ProtocolTest, DecodersAcceptFragmentedPayloads) {
  // The wire may deliver a spliced multi-fragment payload (Γ-shared
  // responses); decoders go through PayloadView and must still work.
  Payload wire = EncodeVertexRequest({10, 20, 30});
  const std::string bytes = wire.ToString();
  Payload split = Payload::CopyOf(bytes.data(), bytes.size() / 2);
  split.Append(Payload::CopyOf(bytes.data() + bytes.size() / 2,
                               bytes.size() - bytes.size() / 2));
  ASSERT_FALSE(split.IsFlat());
  std::vector<VertexId> got;
  ASSERT_TRUE(DecodeVertexRequest(split, &got).ok());
  EXPECT_EQ(got, (std::vector<VertexId>{10, 20, 30}));
}

// Every control decoder is total: a valid encoding plus one stray byte is
// Corruption, and so is the same encoding cut short by one byte.
TEST(ProtocolTest, ProgressReportRejectsTrailingAndTruncatedBytes) {
  const Payload wire = MakeReport().Encode();
  ProgressReport got;
  EXPECT_TRUE(got.Decode(Extend(wire)).IsCorruption());
  EXPECT_TRUE(got.Decode(Truncate(wire, 1)).IsCorruption());
}

TEST(ProtocolTest, CheckpointRequestRejectsTrailingAndTruncatedBytes) {
  CheckpointRequest req;
  req.epoch = 9;
  const Payload wire = req.Encode();
  CheckpointRequest got;
  EXPECT_TRUE(got.Decode(Extend(wire)).IsCorruption());
  EXPECT_TRUE(got.Decode(Truncate(wire, 1)).IsCorruption());
}

TEST(ProtocolTest, CheckpointAckRejectsTrailingAndTruncatedBytes) {
  CheckpointAck ack;
  ack.worker_id = 2;
  ack.epoch = 5;
  ack.agg_delta = "delta";
  const Payload wire = ack.Encode();
  CheckpointAck got;
  EXPECT_TRUE(got.Decode(Extend(wire)).IsCorruption());
  EXPECT_TRUE(got.Decode(Truncate(wire, 1)).IsCorruption());
}

TEST(ProtocolTest, StealOrderRejectsTrailingAndTruncatedBytes) {
  const Payload wire = EncodeStealOrder(1, 77);
  int32_t dst = -1;
  int64_t t_us = 0;
  EXPECT_TRUE(DecodeStealOrder(Extend(wire), &dst, &t_us).IsCorruption());
  EXPECT_TRUE(DecodeStealOrder(Truncate(wire, 1), &dst, &t_us).IsCorruption());
}

TEST(ProtocolTest, DrainBarrierRejectsTrailingAndTruncatedBytes) {
  const Payload wire = EncodeDrainBarrier(3);
  int32_t id = -1;
  EXPECT_TRUE(DecodeDrainBarrier(Extend(wire), &id).IsCorruption());
  EXPECT_TRUE(DecodeDrainBarrier(Truncate(wire, 1), &id).IsCorruption());
}

TEST(ProtocolTest, VertexRequestRejectsTrailingAndTruncatedBytes) {
  const Payload wire = EncodeVertexRequest({4, 5, 6});
  std::vector<VertexId> ids;
  EXPECT_TRUE(DecodeVertexRequest(Extend(wire), &ids).IsCorruption());
  EXPECT_TRUE(DecodeVertexRequest(Truncate(wire, 1), &ids).IsCorruption());
}

TEST(ProtocolTest, TaskBatchRejectsTrailingAndTruncatedBytes) {
  const Payload wire = EncodeTaskBatch({"x", "yz"}, 8);
  std::vector<std::string> records;
  EXPECT_TRUE(DecodeTaskBatch(Extend(wire), &records).IsCorruption());
  EXPECT_TRUE(DecodeTaskBatch(Truncate(wire, 1), &records).IsCorruption());
}

TEST(ProtocolTest, TaskIdPacksComperAndSequence) {
  const uint64_t id = MakeTaskId(5, 123456789);
  EXPECT_EQ(ComperOfTaskId(id), 5);
  EXPECT_EQ(id & ((1ULL << 48) - 1), 123456789ull);
}

}  // namespace
}  // namespace gthinker
