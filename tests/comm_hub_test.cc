// Tests for the simulated interconnect and the requester's PullCoalescer.

#include "net/comm_hub.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/pull_coalescer.h"

namespace gthinker {
namespace {

MessageBatch Make(int src, int dst, const std::string& payload) {
  MessageBatch mb;
  mb.src_worker = src;
  mb.dst_worker = dst;
  mb.type = MsgType::kVertexRequest;
  mb.payload = payload;
  return mb;
}

TEST(CommHub, DeliversToDestination) {
  CommHub hub(3);
  hub.Send(Make(0, 2, "hello"));
  MessageBatch got;
  ASSERT_TRUE(hub.Receive(2, 100'000, &got));
  EXPECT_EQ(got.src_worker, 0);
  EXPECT_EQ(got.payload, "hello");
}

TEST(CommHub, ReceiveTimesOutWhenEmpty) {
  CommHub hub(2);
  MessageBatch got;
  EXPECT_FALSE(hub.Receive(0, 5'000, &got));
}

TEST(CommHub, FifoPerLink) {
  CommHub hub(2);
  for (int i = 0; i < 20; ++i) hub.Send(Make(0, 1, std::to_string(i)));
  for (int i = 0; i < 20; ++i) {
    MessageBatch got;
    ASSERT_TRUE(hub.Receive(1, 100'000, &got));
    EXPECT_EQ(got.payload, std::to_string(i));
  }
}

TEST(CommHub, CountsBatchesAndBytes) {
  CommHub hub(2);
  hub.Send(Make(0, 1, "abcd"));
  hub.Send(Make(1, 0, "xy"));
  EXPECT_EQ(hub.TotalBatchesSent(), 2);
  EXPECT_EQ(hub.TotalBytesSent(), 6);
  MessageBatch got;
  ASSERT_TRUE(hub.Receive(1, 100'000, &got));
  ASSERT_TRUE(hub.Receive(0, 100'000, &got));
  EXPECT_EQ(hub.TotalBatchesDelivered(), 2);
}

TEST(CommHub, LatencyDelaysDelivery) {
  NetConfig net;
  net.latency_us = 20'000;  // 20 ms
  CommHub hub(2, net);
  const int64_t before = hub.NowUs();
  hub.Send(Make(0, 1, "slow"));
  MessageBatch got;
  ASSERT_TRUE(hub.Receive(1, 1'000'000, &got));
  EXPECT_GE(hub.NowUs() - before, 18'000);
}

TEST(CommHub, SelfSendSkipsWire) {
  NetConfig net;
  net.latency_us = 50'000;
  CommHub hub(2, net);
  const int64_t before = hub.NowUs();
  hub.Send(Make(1, 1, "local"));
  MessageBatch got;
  ASSERT_TRUE(hub.Receive(1, 1'000'000, &got));
  EXPECT_LT(hub.NowUs() - before, 40'000);
}

TEST(CommHub, BandwidthSerializesLargeBatches) {
  NetConfig net;
  net.bandwidth_mbps = 1.0;  // 1 Mb/s => 8 µs per byte
  CommHub hub(2, net);
  const std::string payload(2'000, 'x');  // ~16 ms of wire time
  const int64_t before = hub.NowUs();
  hub.Send(Make(0, 1, payload));
  MessageBatch got;
  ASSERT_TRUE(hub.Receive(1, 10'000'000, &got));
  EXPECT_GE(hub.NowUs() - before, 12'000);
}

TEST(CommHub, ConcurrentSendersAllDelivered) {
  CommHub hub(4);
  std::vector<std::thread> senders;
  for (int s = 0; s < 3; ++s) {
    senders.emplace_back([&hub, s] {
      for (int i = 0; i < 100; ++i) hub.Send(Make(s, 3, "m"));
    });
  }
  for (auto& t : senders) t.join();
  int received = 0;
  MessageBatch got;
  while (hub.Receive(3, 10'000, &got)) ++received;
  EXPECT_EQ(received, 300);
}

// ---------------------------------------------------------------------------
// PullCoalescer
// ---------------------------------------------------------------------------

TEST(PullCoalescer, FlushesExactlyAtMaxIds) {
  PullCoalescer coalescer(2, /*max_ids=*/3);
  std::vector<VertexId> batch;
  EXPECT_FALSE(coalescer.Add(1, 10, &batch));
  EXPECT_FALSE(coalescer.Add(1, 11, &batch));
  ASSERT_TRUE(coalescer.Add(1, 12, &batch));
  EXPECT_EQ(batch, (std::vector<VertexId>{10, 11, 12}));
  EXPECT_FALSE(coalescer.HasPending());
  EXPECT_FALSE(coalescer.Flush(1, &batch));
}

TEST(PullCoalescer, AcceptsSameIdAgainAfterFlush) {
  PullCoalescer coalescer(2, /*max_ids=*/8);
  std::vector<VertexId> batch;
  EXPECT_FALSE(coalescer.Add(0, 5, &batch));
  ASSERT_TRUE(coalescer.Flush(0, &batch));
  EXPECT_EQ(batch, std::vector<VertexId>{5});
  // The response may already be in the cache or evicted again: a new window
  // must re-request the vertex, not drop it as in flight.
  EXPECT_FALSE(coalescer.Add(0, 5, &batch));
  ASSERT_TRUE(coalescer.Flush(0, &batch));
  EXPECT_EQ(batch, std::vector<VertexId>{5});
}

TEST(PullCoalescer, HasPendingTracksOpenIds) {
  PullCoalescer coalescer(3, /*max_ids=*/8);
  std::vector<VertexId> batch;
  EXPECT_FALSE(coalescer.HasPending());
  EXPECT_FALSE(coalescer.Add(1, 4, &batch));
  EXPECT_FALSE(coalescer.Add(2, 6, &batch));
  EXPECT_TRUE(coalescer.HasPending());
  ASSERT_TRUE(coalescer.Flush(1, &batch));
  EXPECT_TRUE(coalescer.HasPending());  // destination 2 is still open
  ASSERT_TRUE(coalescer.Flush(2, &batch));
  EXPECT_FALSE(coalescer.HasPending());
}

}  // namespace
}  // namespace gthinker
