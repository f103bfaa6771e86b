// Transport conformance suite: a CommHub must present the same contract
// whether it delivers in-process or over a net::Transport backend — per-link
// FIFO, a Wake that ends a blocked Receive, and well-defined delivery
// stamping. The TCP backend additionally must reject stray connections (bad
// magic, wrong protocol version, a second HELLO for a live rank) without
// taking the cluster down, must never deliver a corrupt or forged frame, and
// must tell a peer's orderly close (after its BYE) from a lost link: a
// corrupt frame or an early close loses the link, which is fatal.
//
// The TCP rows run a real multi-rank cluster inside one test process: one
// TcpTransport + CommHub pair per rank, full mesh over 127.0.0.1.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/comm_hub.h"
#include "net/frame.h"
#include "net/payload.h"
#include "net/transport_tcp.h"
#include "util/logging.h"
#include "util/timer.h"

namespace gthinker {
namespace {

// Reserves `n` distinct ephemeral localhost ports (all sockets held open
// until every port is known, so none repeats).
std::vector<int> PickFreePorts(int n) {
  std::vector<int> fds, ports;
  for (int i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    GT_CHECK_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    GT_CHECK_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
                0);
    socklen_t len = sizeof(addr);
    GT_CHECK_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len),
                0);
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int fd : fds) ::close(fd);
  return ports;
}

/// Connects to a localhost port, retrying for a few seconds while nothing
/// listens there yet.
int RawConnect(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  Timer t;
  while (true) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    GT_CHECK_GE(fd, 0);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    GT_CHECK_LT(t.ElapsedSeconds(), 5.0) << "nothing listens on " << port;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void RawSendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, 0);
    ASSERT_GT(n, 0);
    off += static_cast<size_t>(n);
  }
}

/// `h` with `payload` appended, as it goes on the wire (the caller sets the
/// CRC, so a test can forge it).
std::string EncodeFrame(net::FrameHeader h, const std::string& payload = "") {
  h.payload_len = static_cast<uint32_t>(payload.size());
  std::string bytes(net::kFrameHeaderSize, '\0');
  net::EncodeFrameHeader(h, bytes.data());
  return bytes + payload;
}

net::FrameHeader Hello(int rank) {
  net::FrameHeader h;
  h.kind = net::FrameKind::kHello;
  h.src = rank;
  return h;
}

MessageBatch Make(int src, int dst, MsgType type, const std::string& payload) {
  MessageBatch mb;
  mb.src_worker = src;
  mb.dst_worker = dst;
  mb.type = type;
  mb.payload = payload;
  return mb;
}

// ---------------------------------------------------------------------------
// Backend harness: one hub for in-process, one (hub, transport) pair per
// rank over loopback sockets for tcp. Endpoint e lives on rank
// (e == num_workers ? 0 : e).
// ---------------------------------------------------------------------------

class Backend {
 public:
  virtual ~Backend() = default;
  virtual const char* name() const = 0;
  virtual int num_workers() const = 0;
  virtual CommHub& HubFor(int endpoint) = 0;
};

class InProcBackend : public Backend {
 public:
  explicit InProcBackend(int num_workers, const NetConfig& net = NetConfig())
      : num_workers_(num_workers), hub_(num_workers + 1, net) {
    GT_CHECK_OK(hub_.Start());
  }
  const char* name() const override { return "inproc"; }
  int num_workers() const override { return num_workers_; }
  CommHub& HubFor(int) override { return hub_; }

 private:
  int num_workers_;
  CommHub hub_;
};

/// Per-rank option overrides applied on top of the defaults (socket buffer
/// sizing, backpressure cap).
struct TcpTuning {
  int sndbuf_bytes = 0;
  int64_t send_buffer_max_bytes = 4 << 20;
};

/// Rank `rank`'s hub of a loopback cluster with one rank per port.
std::unique_ptr<CommHub> MakeTcpHub(int rank, const std::vector<int>& ports,
                                    TcpTuning tuning = TcpTuning()) {
  net::TcpTransportOptions opts;
  opts.rank = rank;
  opts.num_workers = static_cast<int>(ports.size());
  for (int p : ports) opts.hosts.push_back("127.0.0.1:" + std::to_string(p));
  opts.sndbuf_bytes = tuning.sndbuf_bytes;
  opts.send_buffer_max_bytes = tuning.send_buffer_max_bytes;
  return std::make_unique<CommHub>(
      opts.num_workers + 1, std::make_unique<net::TcpTransport>(opts));
}

class TcpBackend : public Backend {
 public:
  explicit TcpBackend(int num_workers, TcpTuning tuning = TcpTuning())
      : num_workers_(num_workers) {
    ports_ = PickFreePorts(num_workers);
    for (int r = 0; r < num_workers; ++r) {
      hubs_.push_back(MakeTcpHub(r, ports_, tuning));
    }
    // Start() blocks until the full mesh handshook, so all ranks must start
    // concurrently — exactly what the per-process launcher does for real.
    std::vector<Status> statuses(num_workers);
    std::vector<std::thread> starters;
    for (int r = 0; r < num_workers; ++r) {
      starters.emplace_back(
          [this, r, &statuses] { statuses[r] = hubs_[r]->Start(); });
    }
    for (auto& t : starters) t.join();
    for (const Status& s : statuses) GT_CHECK_OK(s);
  }
  const char* name() const override { return "tcp"; }
  int num_workers() const override { return num_workers_; }
  CommHub& HubFor(int endpoint) override {
    return *hubs_[endpoint == num_workers_ ? 0 : endpoint];
  }
  int port(int rank) const { return ports_[rank]; }

 private:
  int num_workers_;
  std::vector<int> ports_;
  std::vector<std::unique_ptr<CommHub>> hubs_;
};

std::unique_ptr<Backend> MakeBackend(const std::string& which,
                                     int num_workers) {
  if (which == "tcp") return std::make_unique<TcpBackend>(num_workers);
  return std::make_unique<InProcBackend>(num_workers);
}

int64_t CounterValue(const obs::MetricsSnapshot& snap,
                     const std::string& name) {
  return snap.CounterValue(name);
}

class TransportConformance : public ::testing::TestWithParam<const char*> {};

// ---------------------------------------------------------------------------
// FIFO per (src, dst, kind): interleaved types on one link arrive in send
// order overall, hence also per type.
// ---------------------------------------------------------------------------
TEST_P(TransportConformance, FifoPerLink) {
  auto backend = MakeBackend(GetParam(), 2);
  constexpr int kN = 200;
  for (int i = 0; i < kN; ++i) {
    const MsgType type =
        i % 2 == 0 ? MsgType::kVertexRequest : MsgType::kVertexResponse;
    backend->HubFor(0).Send(Make(0, 1, type, std::to_string(i)));
  }
  CommHub& receiver = backend->HubFor(1);
  for (int i = 0; i < kN; ++i) {
    MessageBatch got;
    ASSERT_TRUE(receiver.Receive(1, 2'000'000, &got)) << "at " << i;
    EXPECT_EQ(got.src_worker, 0);
    EXPECT_EQ(got.payload.ToString(), std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// Delivery stamping: the in-process wire stamps sent_at_us (feeding the
// delivery histograms); sockets deliberately do not (no cross-process
// clock), which CommHub must tolerate.
// ---------------------------------------------------------------------------
TEST_P(TransportConformance, DeliveryStamping) {
  auto backend = MakeBackend(GetParam(), 2);
  backend->HubFor(0).Send(Make(0, 1, MsgType::kVertexRequest, "stamp"));
  MessageBatch got;
  ASSERT_TRUE(backend->HubFor(1).Receive(1, 2'000'000, &got));
  if (std::string(GetParam()) == "inproc") {
    EXPECT_GT(got.sent_at_us, 0);
  } else {
    EXPECT_EQ(got.sent_at_us, 0);
  }
}

// ---------------------------------------------------------------------------
// Wake: another thread ends a blocked Receive long before its timeout, with
// nothing delivered; a batch sent afterwards still arrives.
// ---------------------------------------------------------------------------
TEST_P(TransportConformance, WakeEndsABlockedReceive) {
  auto backend = MakeBackend(GetParam(), 2);
  CommHub& hub = backend->HubFor(1);
  std::thread waker([&hub] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    hub.Wake(1);
  });
  Timer waited;
  MessageBatch got;
  EXPECT_FALSE(hub.Receive(1, 30'000'000, &got));
  waker.join();
  EXPECT_LT(waited.ElapsedSeconds(), 10.0);
  backend->HubFor(0).Send(Make(0, 1, MsgType::kVertexRequest, "after"));
  ASSERT_TRUE(hub.Receive(1, 2'000'000, &got));
  EXPECT_EQ(got.payload.ToString(), "after");
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformance,
                         ::testing::Values("inproc", "tcp"));

// ---------------------------------------------------------------------------
// In-process-only: simulated latency delays delivery on a hub with no
// transport, reached through the same Backend seam as the rows above.
// ---------------------------------------------------------------------------
TEST(TransportInProc, SimulatedLatencyDelaysDelivery) {
  NetConfig net;
  net.latency_us = 20'000;
  InProcBackend backend(2, net);
  CommHub& hub = backend.HubFor(0);
  const int64_t before = hub.NowUs();
  hub.Send(Make(0, 1, MsgType::kVertexRequest, "slow"));
  MessageBatch got;
  ASSERT_TRUE(hub.Receive(1, 1'000'000, &got));
  EXPECT_GE(hub.NowUs() - before, 18'000);
}

// ---------------------------------------------------------------------------
// TCP-only stream-hardening tests. A stray connection (garbage, a wrong
// version, a second HELLO for a live rank) is counted and rejected, and the
// cluster still routes traffic afterwards. A corrupt or forged frame on a
// live link is counted and never delivered, and the link is lost for good:
// the next Receive dies naming the peer.
// ---------------------------------------------------------------------------

bool WaitForCounter(CommHub& hub, const std::string& name, int64_t at_least,
                    double timeout_s = 10.0) {
  Timer t;
  while (t.ElapsedSeconds() < timeout_s) {
    if (CounterValue(hub.MetricsSnapshot(), name) >= at_least) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

void ExpectRoundTrip(Backend& backend, int from, int to) {
  backend.HubFor(from).Send(
      Make(from, to, MsgType::kVertexRequest, "still-alive"));
  MessageBatch got;
  ASSERT_TRUE(backend.HubFor(to).Receive(to, 5'000'000, &got));
  EXPECT_EQ(got.payload.ToString(), "still-alive");
}

/// Rank 0 of a 2-rank cluster whose rank 1 the test plays over a raw socket
/// from its first byte: rank 0's Start() completes on the raw HELLO.
class LoneRankZero {
 public:
  LoneRankZero() {
    const std::vector<int> ports = PickFreePorts(2);
    hub_ = MakeTcpHub(0, ports);
    Status started;
    std::thread starter([&] { started = hub_->Start(); });
    fd_ = RawConnect(ports[0]);
    RawSendAll(fd_, EncodeFrame(Hello(1)));
    starter.join();
    GT_CHECK_OK(started);
  }
  ~LoneRankZero() {
    hub_.reset();  // our own Stop() first: the close that follows is orderly
    CloseRaw();
  }
  CommHub& hub() { return *hub_; }
  int fd() const { return fd_; }
  /// Closes the raw rank 1's end of the link.
  void CloseRaw() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  /// Waits until rank 0's IO thread rebuilt its pollset `after` times, as it
  /// does when a link is dropped.
  bool WaitForPollRebuild(int64_t after) {
    return WaitForCounter(*hub_, "transport.poll_rebuilds", after + 1);
  }
  int64_t PollRebuilds() {
    return CounterValue(hub_->MetricsSnapshot(), "transport.poll_rebuilds");
  }

 private:
  std::unique_ptr<CommHub> hub_;
  int fd_ = -1;
};

TEST(TransportTcp, GarbageConnectionRejected) {
  TcpBackend backend(2);
  const int fd = RawConnect(backend.port(0));
  std::string garbage(64, '\xa5');  // no valid magic anywhere
  RawSendAll(fd, garbage);
  EXPECT_TRUE(
      WaitForCounter(backend.HubFor(0), "transport.hello_rejected", 1));
  ::close(fd);
  ExpectRoundTrip(backend, 0, 1);
  ExpectRoundTrip(backend, 1, 0);
}

TEST(TransportTcp, WrongVersionHelloRejected) {
  TcpBackend backend(2);
  const int fd = RawConnect(backend.port(0));
  net::FrameHeader h = Hello(1);
  h.version = net::kProtocolVersion + 1;
  RawSendAll(fd, EncodeFrame(h));
  EXPECT_TRUE(
      WaitForCounter(backend.HubFor(0), "transport.hello_rejected", 1));
  ::close(fd);
  ExpectRoundTrip(backend, 1, 0);
}

TEST(TransportTcp, SecondHelloForLiveRankIsRejected) {
  TcpBackend backend(2);
  // A valid HELLO as rank 1 while rank 1's link is up: links are never
  // replaced, so it is rejected and the live link keeps working.
  const int fd = RawConnect(backend.port(0));
  RawSendAll(fd, EncodeFrame(Hello(1)));
  EXPECT_TRUE(
      WaitForCounter(backend.HubFor(0), "transport.hello_rejected", 1));
  ::close(fd);
  ExpectRoundTrip(backend, 0, 1);
  ExpectRoundTrip(backend, 1, 0);
}

TEST(TransportTcp, CorruptDataFrameDropsConnection) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  LoneRankZero rank0;
  // A DATA frame whose CRC does not match its payload.
  net::FrameHeader data;
  data.kind = net::FrameKind::kData;
  data.msg_type = static_cast<uint8_t>(MsgType::kVertexRequest);
  data.src = 1;
  data.dst = 0;
  data.crc32 = 0xDEADBEEF;  // wrong for "abcd"
  RawSendAll(rank0.fd(), EncodeFrame(data, "abcd"));
  // Rank 0 counts the corruption and never delivers the frame...
  EXPECT_TRUE(WaitForCounter(rank0.hub(), "transport.frames_corrupt", 1));
  EXPECT_EQ(rank0.hub().InboxDepth(0), 0);
  // ...and the link is gone for good: the next Receive dies naming rank 1.
  MessageBatch got;
  EXPECT_DEATH(rank0.hub().Receive(0, 100'000, &got),
               "link to rank 1 lost .corrupt frame: CRC mismatch");
}

TEST(TransportTcp, ForgedSourceDataFrameDropsConnection) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  LoneRankZero rank0;
  // A CRC-valid DATA frame that claims to come from endpoint 5: rank 1 may
  // only speak for worker 1. Delivered, it would reach master code that
  // indexes per-worker state by the source.
  const std::string payload = "forged";
  net::FrameHeader data;
  data.kind = net::FrameKind::kData;
  data.msg_type = static_cast<uint8_t>(MsgType::kVertexRequest);
  data.src = 5;
  data.dst = 0;
  data.crc32 = net::Crc32C(payload.data(), payload.size());
  RawSendAll(rank0.fd(), EncodeFrame(data, payload));
  EXPECT_TRUE(WaitForCounter(rank0.hub(), "transport.frames_corrupt", 1));
  EXPECT_EQ(rank0.hub().InboxDepth(0), 0);
  MessageBatch got;
  EXPECT_DEATH(rank0.hub().Receive(0, 100'000, &got),
               "link to rank 1 lost .corrupt frame: forged source");
}

// ---------------------------------------------------------------------------
// Closing marker: a peer's Stop() sends a BYE behind all of its data, so a
// close after the BYE is orderly and leaves rank 0 running. A close before
// it is a lost link: the next Receive dies naming the peer.
// ---------------------------------------------------------------------------
TEST(TransportTcp, CloseAfterTheClosingMarkerIsSilent) {
  LoneRankZero rank0;
  net::FrameHeader bye;
  bye.kind = net::FrameKind::kBye;
  bye.src = 1;
  bye.dst = 0;
  RawSendAll(rank0.fd(), EncodeFrame(bye));
  ASSERT_TRUE(
      WaitForCounter(rank0.hub(), "transport.frames_received{peer=1}", 1));
  const int64_t rebuilds = rank0.PollRebuilds();
  rank0.CloseRaw();
  ASSERT_TRUE(rank0.WaitForPollRebuild(rebuilds));  // the link is dropped
  MessageBatch got;
  EXPECT_FALSE(rank0.hub().Receive(0, 100'000, &got));  // and not lost
  EXPECT_EQ(CounterValue(rank0.hub().MetricsSnapshot(),
                         "transport.frames_corrupt"),
            0);
}

TEST(TransportTcp, CloseBeforeTheClosingMarkerIsALossNamingThePeer) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  LoneRankZero rank0;
  const int64_t rebuilds = rank0.PollRebuilds();
  rank0.CloseRaw();
  ASSERT_TRUE(rank0.WaitForPollRebuild(rebuilds));
  MessageBatch got;
  EXPECT_DEATH(rank0.hub().Receive(0, 100'000, &got),
               "link to rank 1 lost .*before its closing marker");
}

// ---------------------------------------------------------------------------
// Start-up redial: rank 1 starts about 100 ms before rank 0 listens, so its
// first dials are refused. Start() redials at a fixed short interval inside
// its handshake window, and both sides come up.
// ---------------------------------------------------------------------------
TEST(TransportTcp, LateListenerIsRedialedWithinStart) {
  const std::vector<int> ports = PickFreePorts(2);
  std::vector<std::unique_ptr<CommHub>> hubs;
  for (int r = 0; r < 2; ++r) hubs.push_back(MakeTcpHub(r, ports));
  Timer t;
  Status started1;
  double up1_s = 0.0;
  std::thread dialer([&] {
    started1 = hubs[1]->Start();
    up1_s = t.ElapsedSeconds();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const double listen_s = t.ElapsedSeconds();
  const Status started0 = hubs[0]->Start();
  dialer.join();
  ASSERT_TRUE(started0.ok()) << started0.ToString();
  ASSERT_TRUE(started1.ok()) << started1.ToString();
  EXPECT_GE(CounterValue(hubs[1]->MetricsSnapshot(),
                         "transport.reconnects{peer=0}"),
            1);
  const double gap_ms = (up1_s - listen_s) * 1e3;
  RecordProperty("redial_gap_us", static_cast<int>(gap_ms * 1e3));
  std::printf("rank 1 up %.2f ms after rank 0 began listening\n", gap_ms);
  EXPECT_LT(gap_ms, 2000.0);  // loose: sanitizer builds run slow
  hubs[0]->Send(Make(0, 1, MsgType::kVertexRequest, "up"));
  MessageBatch got;
  ASSERT_TRUE(hubs[1]->Receive(1, 5'000'000, &got));
  EXPECT_EQ(got.payload.ToString(), "up");
}

// ---------------------------------------------------------------------------
// Frame integrity across split writes: a tiny SO_SNDBUF forces sendmsg() to
// return short counts, splitting frames (and the scatter-gather iovec runs)
// at arbitrary byte boundaries, both in headers and in payloads. Every
// payload must still arrive intact and in order.
// ---------------------------------------------------------------------------
TEST(TransportTcp, TinySndbufSplitsFramesLosslessly) {
  TcpTuning tuning;
  tuning.sndbuf_bytes = 4096;  // the kernel may round up; still far below
                               // the burst size, guaranteeing short writes
  TcpBackend backend(2, tuning);
  constexpr int kBatches = 64;
  const std::string chunk_a(9000, 'A');
  const std::string chunk_b(7001, 'B');
  for (int i = 0; i < kBatches; ++i) {
    MessageBatch mb;
    mb.src_worker = 0;
    mb.dst_worker = 1;
    mb.type = MsgType::kVertexRequest;
    mb.payload = Payload(chunk_a + static_cast<char>('a' + i % 26) + chunk_b);
    backend.HubFor(0).Send(std::move(mb));
  }
  CommHub& receiver = backend.HubFor(1);
  for (int i = 0; i < kBatches; ++i) {
    MessageBatch got;
    ASSERT_TRUE(receiver.Receive(1, 5'000'000, &got)) << "at " << i;
    const std::string body = got.payload.ToString();
    ASSERT_EQ(body.size(), chunk_a.size() + 1 + chunk_b.size()) << "at " << i;
    EXPECT_EQ(body.substr(0, chunk_a.size()), chunk_a);
    EXPECT_EQ(body[chunk_a.size()], static_cast<char>('a' + i % 26));
    EXPECT_EQ(body.substr(chunk_a.size() + 1), chunk_b);
  }
  // Short writes really happened: the frames completed across more syscalls
  // than a single gather would need (otherwise the test proves nothing).
  const auto snap = backend.HubFor(0).MetricsSnapshot();
  EXPECT_GT(CounterValue(snap, "transport.sendmsg_calls"), 1);
}

// ---------------------------------------------------------------------------
// Receive-buffer growth: the receiver starts with a 64 KiB buffer per peer,
// so frames just under, just over and far over it must arrive intact and in
// order, interleaved with tiny ones on the same link.
// ---------------------------------------------------------------------------
TEST(TransportTcp, FramesLargerThanTheReceiveBufferArriveIntact) {
  TcpBackend backend(2);
  const std::vector<size_t> sizes = {1, (64 << 10) - 1, (64 << 10) + 1,
                                     3 << 20};
  constexpr int kRounds = 3;
  std::vector<std::string> sent;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t size : sizes) {
      sent.emplace_back(size, static_cast<char>('a' + sent.size()));
      MessageBatch mb;
      mb.src_worker = 0;
      mb.dst_worker = 1;
      mb.type = MsgType::kVertexResponse;
      mb.payload = Payload(sent.back());
      backend.HubFor(0).Send(std::move(mb));
    }
  }
  CommHub& receiver = backend.HubFor(1);
  for (size_t i = 0; i < sent.size(); ++i) {
    MessageBatch got;
    ASSERT_TRUE(receiver.Receive(1, 5'000'000, &got)) << "at " << i;
    EXPECT_TRUE(got.payload == sent[i])
        << "at " << i << ": " << got.payload.size() << " bytes, expected "
        << sent[i].size() << " bytes of '" << sent[i][0] << "'";
  }
}

// ---------------------------------------------------------------------------
// Backpressure regression: Send() blocks above send_buffer_max_bytes, and
// blocked senders must wake promptly as the IO thread drains the queue — not
// after a poll-timeout beat. A burst 32x the cap completing inside the test
// deadline while the receiver consumes concurrently proves the wakeups are
// event-driven.
// ---------------------------------------------------------------------------
TEST(TransportTcp, BackpressureWaitersWakePromptly) {
  TcpTuning tuning;
  tuning.send_buffer_max_bytes = 64 << 10;
  TcpBackend backend(2, tuning);
  constexpr int kBatches = 128;
  const std::string body(16 << 10, 'z');  // 128 * 16KB = 32x the cap
  std::thread consumer([&] {
    CommHub& receiver = backend.HubFor(1);
    for (int i = 0; i < kBatches; ++i) {
      MessageBatch got;
      ASSERT_TRUE(receiver.Receive(1, 10'000'000, &got)) << "at " << i;
      ASSERT_EQ(got.payload.size(), body.size());
    }
  });
  Timer t;
  for (int i = 0; i < kBatches; ++i) {
    backend.HubFor(0).Send(
        Make(0, 1, MsgType::kVertexRequest, body));
  }
  const double send_s = t.ElapsedSeconds();
  consumer.join();
  const auto snap = backend.HubFor(0).MetricsSnapshot();
  EXPECT_GT(CounterValue(snap, "transport.backpressure_waits{peer=1}"), 0)
      << "cap never engaged; raise the burst size";
  // Loopback moves 2MB in well under a second when wakeups are prompt; a
  // second per wait (the old poll beat) would blow far past this.
  EXPECT_LT(send_s, 5.0);
}

}  // namespace
}  // namespace gthinker
