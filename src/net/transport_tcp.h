#ifndef GTHINKER_NET_TRANSPORT_TCP_H_
#define GTHINKER_NET_TRANSPORT_TCP_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/message.h"
#include "net/payload.h"
#include "net/transport.h"

namespace gthinker::net {

struct TcpTransportOptions {
  /// This process's rank; ranks map 1:1 to hostfile lines.
  int rank = 0;
  /// Cluster worker count. Endpoints are 0..num_workers-1 (one worker per
  /// rank) plus num_workers (the master, hosted on rank 0).
  int num_workers = 1;
  /// "host:port" per rank, hostfile order; size must equal num_workers.
  std::vector<std::string> hosts;
  /// Per-peer buffered-send cap; Send() blocks (backpressure) above it.
  int64_t send_buffer_max_bytes = 4 << 20;
  /// SO_SNDBUF override for peer sockets (0 = OS default). Tests use a tiny
  /// value to force short writes that split frames across syscalls.
  int sndbuf_bytes = 0;
};

/// Socket backend: each process hosts one worker rank (rank 0 also hosts the
/// master endpoint) and keeps one bidirectional TCP connection per peer rank
/// (rank r connects to every q < r and accepts from every q > r; a HELLO
/// frame checks the protocol version both ways, and every frame carries a
/// CRC-32C of its payload). One IO thread drives poll(2) over the listen
/// socket, the accepted connections awaiting their HELLO and every peer
/// socket. Writes gather the per-peer send queue of framed messages
/// (header + live Payload, no copy) into a single sendmsg()
/// per syscall; reads land in one growable buffer per peer, and each
/// complete DATA body is copied out into its own payload for the hub.
/// Send() applies backpressure above send_buffer_max_bytes. A link lives
/// for the whole job: Start() redials a peer that is not listening yet, but
/// a handshaken link is never redialed or replaced. Stop() sends each peer a
/// BYE frame behind all of its data; a link that closes before the peer's
/// BYE (and before our Stop()), or carries a corrupt or forged frame, is
/// lost, and the process's next Send or hub Receive dies naming the peer.
///
/// Locking (DESIGN.md "Transport layer", data plane):
///   - mu_ guards connection lifecycle (hello state, pending
///     handshakes, closing markers, pollset version). Critical sections are
///     short: no socket IO happens under mu_.
///   - each Peer's send_mu guards its send queue, so Send() to one peer
///     never contends with the poll loop or with sends to other peers.
///   - socket and receive-side state is confined to the IO thread.
///
/// The transport never decides that the wire is empty: the master releases
/// the workers only once their progress reports prove it (core/master.h),
/// so by Stop() nothing but a final report can still be queued.
class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(TcpTransportOptions options);
  ~TcpTransport() override;

  const char* name() const override { return "tcp"; }
  Status Start(Deliver deliver) override;
  void Stop() override;
  void Send(MessageBatch batch) override;
  /// Dies naming every lost peer, if any link is lost.
  void CheckLinks() const override;
  void AppendMetrics(obs::MetricsSnapshot* snap) const override;

  /// The listen port actually bound (resolves a ":0" hostfile entry).
  int port() const { return port_; }
  int rank() const { return options_.rank; }

 private:
  /// One framed message in a send queue: the encoded header plus the live
  /// payload. Its string stays shared (refcounted) until the frame is fully
  /// written, so the bytes serialized by the sender go to the socket without
  /// ever being copied into a frame buffer.
  struct OutFrame {
    std::array<char, kFrameHeaderSize> header;
    Payload payload;
    FrameKind kind = FrameKind::kData;
    size_t size() const { return kFrameHeaderSize + payload.size(); }
  };

  struct Peer {
    // -- connection state: confined to the IO thread after Start(), except
    //    the mu_-guarded fields noted below --
    int fd = -1;
    bool connecting = false;  // nonblocking connect() awaiting POLLOUT
    bool hello_ok = false;    // mu_: handshake done; never redialed after
    std::string rx;     // receive buffer; its size() is its capacity
    size_t rx_len = 0;  // filled prefix of rx
    size_t rx_off = 0;  // parsed prefix of rx
    int64_t redial_at_ms = 0;  // mu_: steady-clock ms of the next start-up dial
    bool bye_rx = false;       // mu_: the peer's closing marker arrived
    std::string lost;          // mu_: why the link was lost (empty = not lost)
    // -- send plane: guarded by send_mu --
    std::mutex send_mu;
    std::condition_variable send_cv;  // backpressure waiters, Stop's flush
    std::deque<OutFrame> sendq;       // framed messages, FIFO
    size_t front_off = 0;             // bytes of sendq.front() written
    // lock-free mirrors of the queue size for backpressure / POLLOUT arming
    std::atomic<int64_t> queued_bytes{0};
    std::atomic<int64_t> queued_frames{0};
    // per-peer wire metrics (relaxed atomics; read lock-free by obs)
    std::atomic<int64_t> frames_sent{0};
    std::atomic<int64_t> bytes_sent{0};
    std::atomic<int64_t> frames_received{0};
    std::atomic<int64_t> bytes_received{0};
    std::atomic<int64_t> flushes{0};  // send queue drained to empty
    std::atomic<int64_t> backpressure_waits{0};
    std::atomic<int64_t> reconnects{0};  // start-up redials
  };

  /// An accepted connection whose peer rank is unknown until its HELLO.
  struct Pending {
    int fd = -1;
    std::string rxbuf;
  };

  int EndpointRank(int endpoint) const {
    return endpoint == options_.num_workers ? 0 : endpoint;
  }
  bool IsLocalEndpoint(int endpoint) const {
    return endpoint >= 0 && endpoint <= options_.num_workers &&
           EndpointRank(endpoint) == options_.rank;
  }

  void IoLoop();
  void WakeLocked();
  void MarkPollsetDirtyLocked() { ++pollset_version_; }
  void DialLocked(int q);  // begins a nonblocking connect to rank q
  /// Makes accepted `fd`, whose HELLO named rank q, the link to q and seeds
  /// its receive buffer with `rx`, the bytes read past the HELLO.
  void AdoptLocked(int q, int fd, const std::string& rx);
  bool WritePeer(int q);  // false = link died (and was dropped)
  bool ReadPeer(int q);   // false = link died (and was dropped)
  void EnsureRxSpace(Peer& peer);
  /// Parses complete frames out of the peer's rx buffer; false = corrupt.
  bool ParseRx(int q);
  /// Applies one verified frame from peer rank q. Returns the protocol
  /// violation (unknown type, forged DATA source), or nullptr.
  const char* HandleFrame(int q, const FrameHeader& h, const char* payload);
  /// Counts a corrupt frame from rank q and loses the link; returns false.
  bool RejectFrame(int q, const std::string& why);
  /// Closes the link to rank q and discards its send queue; the close of a
  /// handshaken link is a loss unless the peer's BYE preceded it.
  void DropPeer(int q, const std::string& why);
  /// Marks the handshaken link to rank q lost (first reason wins; not once
  /// Stop() began) and wakes blocked senders.
  void RecordLoss(int q, const std::string& why);
  void AbandonSendQueueLocked(Peer& peer);  // requires peer.send_mu
  OutFrame EncodeDataFrame(MessageBatch batch) const;
  OutFrame EncodeControlFrame(FrameKind kind, uint8_t msg_type) const;
  void EnqueueFrameLocked(Peer& peer, OutFrame frame);
  void EnqueueHello(int q);
  bool AllHelloLocked() const;

  const TcpTransportOptions options_;
  const int num_endpoints_;
  Deliver deliver_;  // set by Start(), before the IO thread runs

  mutable std::mutex mu_;
  std::condition_variable cv_start_;  // handshake completion
  std::vector<Peer> peers_;           // indexed by rank; self slot unused
  std::vector<Pending> pending_;
  Status start_error_;       // sticky Start() failure (bad version)
  std::atomic<bool> link_lost_{false};  // some peer's `lost` is set
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  /// Bumped (under mu_) whenever the set of pollable fds changes; the IO
  /// thread rebuilds its cached pollset only when its seen version lags.
  uint64_t pollset_version_ = 1;

  std::atomic<int64_t> frames_corrupt_{0};
  std::atomic<int64_t> hello_rejected_{0};
  std::atomic<int64_t> frames_dropped_{0};  // DATA for a non-local endpoint
  std::atomic<int64_t> batches_abandoned_{0};  // DATA dropped by teardown
  std::atomic<int64_t> poll_rebuilds_{0};      // pollset reconstructions
  std::atomic<int64_t> sendmsg_calls_{0};
  std::atomic<int64_t> sendmsg_frames_{0};  // frames completed by sendmsg
  std::atomic<int64_t> sendmsg_bytes_{0};

  int listen_fd_ = -1;
  int wake_r_ = -1;  // self-pipe that interrupts the IO thread's poll
  int wake_w_ = -1;
  int port_ = 0;
  std::thread io_thread_;
};

}  // namespace gthinker::net

#endif  // GTHINKER_NET_TRANSPORT_TCP_H_
