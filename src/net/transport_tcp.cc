#include "net/transport_tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "util/logging.h"

namespace gthinker::net {

namespace {

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void SetSndbuf(int fd, int bytes) {
  if (bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
  }
}

/// Splits "host:port"; returns false on a malformed entry.
bool SplitHostPort(const std::string& entry, std::string* host, int* port) {
  const size_t colon = entry.rfind(':');
  if (colon == std::string::npos || colon + 1 >= entry.size()) return false;
  *host = entry.substr(0, colon);
  char* end = nullptr;
  const long p = std::strtol(entry.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || p < 0 || p > 65535) return false;
  *port = static_cast<int>(p);
  return true;
}

constexpr int kIoPollMs = 50;  // fallback poll cadence (stop flag)
constexpr int64_t kStopFlushMs = 5000;  // bounded best-effort flush in Stop()
/// iovec budget per sendmsg(): bounds per-call setup cost while still
/// coalescing tens of frames (well under the kernel's UIO_MAXIOV of 1024).
constexpr int kMaxIovPerSendmsg = 64;
/// Initial per-peer receive buffer; it doubles while one frame outgrows it.
constexpr size_t kRecvChunk = 64 * 1024;

}  // namespace

TcpTransport::TcpTransport(TcpTransportOptions options)
    : options_(std::move(options)),
      num_endpoints_(options_.num_workers + 1),
      peers_(static_cast<size_t>(options_.num_workers)) {
  GT_CHECK_GT(options_.num_workers, 0);
  GT_CHECK_GE(options_.rank, 0);
  GT_CHECK_LT(options_.rank, options_.num_workers);
  GT_CHECK_EQ(static_cast<int>(options_.hosts.size()), options_.num_workers);
  inboxes_.resize(num_endpoints_);
  for (int e = 0; e < num_endpoints_; ++e) {
    if (IsLocalEndpoint(e)) {
      inboxes_[e] = std::make_unique<ConcurrentQueue<MessageBatch>>();
    }
  }
}

TcpTransport::~TcpTransport() { Stop(); }

/// Start() fails if the full-mesh handshake is not done within this.
constexpr int64_t kHandshakeTimeoutMs = 10'000;

Status TcpTransport::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_.load(std::memory_order_relaxed)) {
      return Status::Aborted("tcp transport already running");
    }
  }
  std::string host;
  int port = 0;
  if (!SplitHostPort(options_.hosts[options_.rank], &host, &port)) {
    return Status::InvalidArgument("bad hostfile entry: " +
                                   options_.hosts[options_.rank]);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("bind :" + std::to_string(port) + ": " + err);
  }
  if (::listen(fd, options_.num_workers + 8) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError(std::string("listen: ") + err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("getsockname: " + err);
  }
  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("pipe: " + err);
  }
  SetNonBlocking(pipefd[0]);
  SetNonBlocking(pipefd[1]);
  SetNonBlocking(fd);

  std::unique_lock<std::mutex> lock(mu_);
  listen_fd_ = fd;
  port_ = static_cast<int>(ntohs(addr.sin_port));
  wake_r_ = pipefd[0];
  wake_w_ = pipefd[1];
  running_.store(true, std::memory_order_relaxed);
  stop_.store(false, std::memory_order_relaxed);
  MarkPollsetDirtyLocked();
  io_thread_ = std::thread(&TcpTransport::IoLoop, this);

  // Block until the full mesh has exchanged HELLOs (or a sticky error /
  // timeout). A peer that is not listening yet is redialed by the IO thread.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kHandshakeTimeoutMs);
  cv_start_.wait_until(lock, deadline, [&] {
    return !start_error_.ok() || AllHelloLocked();
  });
  if (!start_error_.ok()) {
    const Status err = start_error_;
    lock.unlock();
    Stop();
    return err;
  }
  if (!AllHelloLocked()) {
    lock.unlock();
    Stop();
    return Status::IoError("tcp transport: handshake timeout after " +
                           std::to_string(kHandshakeTimeoutMs) + "ms");
  }
  return Status::Ok();
}

void TcpTransport::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_.load(std::memory_order_relaxed)) return;
  }
  {
    // Each peer's last frame is our BYE, behind all of our data. A peer
    // whose BYE arrived has stopped reading: it gets none.
    std::lock_guard<std::mutex> lock(mu_);
    for (int q = 0; q < options_.num_workers; ++q) {
      Peer& peer = peers_[q];
      if (q == options_.rank || !peer.hello_ok || peer.bye_rx) continue;
      std::lock_guard<std::mutex> slock(peer.send_mu);
      EnqueueFrameLocked(peer, EncodeControlFrame(FrameKind::kBye, 0));
    }
    WakeLocked();
  }
  // The one wait for the send queues, where a worker rank's final report
  // can still sit: until each queue empties (WritePeer and DropPeer notify),
  // a link is lost (RecordLoss notifies) or kStopFlushMs passes. The rest is
  // counted as abandoned below.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kStopFlushMs);
  for (Peer& p : peers_) {
    std::unique_lock<std::mutex> slock(p.send_mu);
    p.send_cv.wait_until(slock, deadline, [&] {
      return p.sendq.empty() || link_lost_.load(std::memory_order_relaxed);
    });
  }
  stop_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    WakeLocked();
  }
  for (Peer& p : peers_) {
    std::lock_guard<std::mutex> slock(p.send_mu);
    p.send_cv.notify_all();
  }
  if (io_thread_.joinable()) io_thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  for (Peer& p : peers_) {
    {
      std::lock_guard<std::mutex> slock(p.send_mu);
      AbandonSendQueueLocked(p);
    }
    if (p.fd >= 0) ::close(p.fd);
    p.fd = -1;
    p.rx = std::string();
    p.rx_len = p.rx_off = 0;
  }
  for (Pending& c : pending_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  pending_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (int* fd : {&wake_r_, &wake_w_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
  running_.store(false, std::memory_order_relaxed);
}

void TcpTransport::AbandonSendQueueLocked(Peer& peer) {
  // Anything still queued was accepted by Send() but never hit the wire:
  // count the data frames so the final report can audit drained vs
  // abandoned instead of losing them silently.
  for (const OutFrame& f : peer.sendq) {
    if (f.kind == FrameKind::kData) {
      batches_abandoned_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  peer.sendq.clear();
  peer.front_off = 0;
  peer.queued_bytes.store(0, std::memory_order_relaxed);
  peer.queued_frames.store(0, std::memory_order_relaxed);
}

void TcpTransport::WakeLocked() {
  if (wake_w_ >= 0) {
    const char b = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_w_, &b, 1);
  }
}

TcpTransport::OutFrame TcpTransport::EncodeDataFrame(
    MessageBatch batch) const {
  FrameHeader h;
  h.kind = FrameKind::kData;
  h.msg_type = static_cast<uint8_t>(batch.type);
  h.src = batch.src_worker;
  h.dst = batch.dst_worker;
  h.payload_len = static_cast<uint32_t>(batch.payload.size());
  h.crc32 = Crc32C(batch.payload.data(), batch.payload.size());
  OutFrame out;
  out.kind = FrameKind::kData;
  EncodeFrameHeader(h, out.header.data());
  // Zero-copy: the sendq shares the payload's string until the frame is
  // written; sendmsg gathers header + payload.
  out.payload = std::move(batch.payload);
  return out;
}

TcpTransport::OutFrame TcpTransport::EncodeControlFrame(
    FrameKind kind, uint8_t msg_type) const {
  FrameHeader h;
  h.kind = kind;
  h.msg_type = msg_type;
  h.src = options_.rank;
  h.dst = 0;
  OutFrame out;
  out.kind = kind;
  EncodeFrameHeader(h, out.header.data());
  return out;
}

void TcpTransport::EnqueueFrameLocked(Peer& peer, OutFrame frame) {
  peer.queued_bytes.fetch_add(static_cast<int64_t>(frame.size()),
                              std::memory_order_relaxed);
  peer.queued_frames.fetch_add(1, std::memory_order_relaxed);
  peer.sendq.push_back(std::move(frame));
}

void TcpTransport::EnqueueHello(int q) {
  OutFrame frame = EncodeControlFrame(FrameKind::kHello, 0);
  Peer& peer = peers_[q];
  std::lock_guard<std::mutex> lock(peer.send_mu);
  EnqueueFrameLocked(peer, std::move(frame));
}

void TcpTransport::Send(MessageBatch batch) {
  FailIfLinkLost();
  const int dst_rank = EndpointRank(batch.dst_worker);
  GT_CHECK_GE(batch.dst_worker, 0);
  GT_CHECK_LT(batch.dst_worker, num_endpoints_);
  if (dst_rank == options_.rank) {
    // Intra-process traffic (worker 0 <-> master on rank 0) never touches a
    // socket. No wire stamp: cross-endpoint latency histograms are an
    // in-process-backend feature.
    batch.deliver_at_us = 0;
    batch.sent_at_us = 0;
    inboxes_[batch.dst_worker]->Push(std::move(batch));
    return;
  }
  GT_CHECK(running_.load(std::memory_order_relaxed));
  Peer& peer = peers_[dst_rank];
  OutFrame frame = EncodeDataFrame(std::move(batch));
  bool was_empty = false;
  {
    std::unique_lock<std::mutex> lock(peer.send_mu);
    if (peer.queued_bytes.load(std::memory_order_relaxed) >=
        options_.send_buffer_max_bytes) {
      peer.backpressure_waits.fetch_add(1, std::memory_order_relaxed);
      peer.send_cv.wait(lock, [&] {
        return stop_.load(std::memory_order_relaxed) ||
               link_lost_.load(std::memory_order_relaxed) ||
               peer.queued_bytes.load(std::memory_order_relaxed) <
                   options_.send_buffer_max_bytes;
      });
      if (link_lost_.load(std::memory_order_acquire)) {
        lock.unlock();
        FailIfLinkLost();
      }
      if (stop_.load(std::memory_order_relaxed)) {
        // Teardown: the batch is abandoned with the run — but audited.
        batches_abandoned_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    was_empty = peer.sendq.empty();
    EnqueueFrameLocked(peer, std::move(frame));
  }
  if (was_empty) {
    // Only the empty->nonempty transition needs a wakeup: once nonempty, the
    // IO thread either has a wake pending or POLLOUT armed.
    std::lock_guard<std::mutex> lock(mu_);
    WakeLocked();
  }
}

bool TcpTransport::Receive(int endpoint, int64_t timeout_us,
                           MessageBatch* out) {
  GT_CHECK(IsLocalEndpoint(endpoint));
  FailIfLinkLost();
  auto popped =
      inboxes_[endpoint]->PopFor(std::chrono::microseconds(timeout_us));
  if (!popped.has_value()) {
    FailIfLinkLost();
    return false;
  }
  *out = std::move(*popped);
  return true;
}

void TcpTransport::Wake(int endpoint) {
  GT_CHECK(IsLocalEndpoint(endpoint));
  inboxes_[endpoint]->Wake();
}

int64_t TcpTransport::InboxDepth(int endpoint) const {
  if (!IsLocalEndpoint(endpoint)) return 0;
  return static_cast<int64_t>(inboxes_[endpoint]->Size());
}

bool TcpTransport::AllHelloLocked() const {
  for (int q = 0; q < options_.num_workers; ++q) {
    if (q == options_.rank) continue;
    if (!peers_[q].hello_ok) return false;
  }
  return true;
}

/// Interval between start-up dials of a peer that is not listening yet.
constexpr int64_t kRedialMs = 2;

void TcpTransport::DialLocked(int q) {
  Peer& peer = peers_[q];
  peer.redial_at_ms = SteadyNowMs() + kRedialMs;  // if this attempt fails
  std::string host;
  int port = 0;
  addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  int fd = -1;
  if (SplitHostPort(options_.hosts[q], &host, &port) &&
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &res) == 0 &&
      res != nullptr) {
    fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  }
  if (fd >= 0) {
    SetNonBlocking(fd);
    SetNoDelay(fd);
    SetSndbuf(fd, options_.sndbuf_bytes);
    // Typically ECONNREFUSED while the peer is not listening yet.
    if (::connect(fd, res->ai_addr, res->ai_addrlen) != 0 &&
        errno != EINPROGRESS) {
      ::close(fd);
      fd = -1;
    }
  }
  if (res != nullptr) ::freeaddrinfo(res);
  if (fd < 0) {
    peer.reconnects.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // POLLOUT reports the connect's outcome, and the HELLO goes out then.
  peer.fd = fd;
  peer.connecting = true;
  MarkPollsetDirtyLocked();
}

void TcpTransport::AdoptLocked(int q, int fd, const std::string& rx) {
  Peer& peer = peers_[q];
  peer.fd = fd;
  peer.hello_ok = true;
  cv_start_.notify_all();
  // Seed the receive buffer with whatever followed the HELLO.
  peer.rx = rx;
  peer.rx_len = rx.size();
  peer.rx.resize(std::max(kRecvChunk, rx.size()));
  peer.rx_off = 0;
  EnqueueHello(q);
  MarkPollsetDirtyLocked();
}

void TcpTransport::DropPeer(int q, const std::string& why) {
  Peer& peer = peers_[q];
  if (peer.fd >= 0) ::close(peer.fd);
  peer.fd = -1;
  peer.connecting = false;
  peer.rx = std::string();
  peer.rx_len = peer.rx_off = 0;
  bool orderly;
  {
    std::lock_guard<std::mutex> lock(mu_);
    MarkPollsetDirtyLocked();
    orderly = peer.bye_rx;
    // A start-up dial that failed: the dial loop retries it.
    if (!peer.hello_ok) peer.reconnects.fetch_add(1, std::memory_order_relaxed);
  }
  {
    // Nothing queued can reach the peer any more (before the handshake the
    // queue holds only our HELLO, which the redial sends afresh). Stop()
    // may be waiting for this queue.
    std::lock_guard<std::mutex> slock(peer.send_mu);
    AbandonSendQueueLocked(peer);
    peer.send_cv.notify_all();
  }
  if (!orderly) RecordLoss(q, why + " before its closing marker");
}

void TcpTransport::RecordLoss(int q, const std::string& why) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_.load(std::memory_order_relaxed) || !peers_[q].hello_ok ||
        !peers_[q].lost.empty()) {
      return;
    }
    peers_[q].lost = why;
    link_lost_.store(true, std::memory_order_release);
  }
  // Wake senders blocked on backpressure so they fail instead of waiting.
  for (Peer& p : peers_) {
    std::lock_guard<std::mutex> slock(p.send_mu);
    p.send_cv.notify_all();
  }
}

void TcpTransport::FailIfLinkLost() const {
  if (!link_lost_.load(std::memory_order_acquire)) return;
  std::string lost;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int q = 0; q < options_.num_workers; ++q) {
      if (peers_[q].lost.empty()) continue;
      lost += (lost.empty() ? ": link to rank " : "; link to rank ") +
              std::to_string(q) + " lost (" + peers_[q].lost + ")";
    }
  }
  LOG_FATAL << "tcp rank " << options_.rank << lost
            << "; the job cannot complete without it";
}

bool TcpTransport::WritePeer(int q) {
  Peer& peer = peers_[q];
  const int fd = peer.fd;
  if (fd < 0) return true;
  std::unique_lock<std::mutex> lock(peer.send_mu);
  while (!peer.sendq.empty()) {
    // Gather header + payload across as many queued frames as the iovec
    // budget allows: one syscall flushes a burst of small batches. Only the
    // front frame can be partly written.
    iovec iov[kMaxIovPerSendmsg];
    int niov = 0;
    size_t skip = peer.front_off;
    for (auto it = peer.sendq.begin();
         it != peer.sendq.end() && niov + 2 <= kMaxIovPerSendmsg; ++it) {
      const OutFrame& f = *it;
      if (skip < kFrameHeaderSize) {
        iov[niov].iov_base = const_cast<char*>(f.header.data()) + skip;
        iov[niov].iov_len = kFrameHeaderSize - skip;
        ++niov;
        skip = 0;
      } else {
        skip -= kFrameHeaderSize;
      }
      if (skip < f.payload.size()) {
        iov[niov].iov_base = const_cast<char*>(f.payload.data()) + skip;
        iov[niov].iov_len = f.payload.size() - skip;
        ++niov;
      }
      skip = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<decltype(msg.msg_iovlen)>(niov);
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return true;
      }
      const std::string err = std::strerror(errno);
      lock.unlock();
      DropPeer(q, "send failed: " + err);
      return false;
    }
    sendmsg_calls_.fetch_add(1, std::memory_order_relaxed);
    sendmsg_bytes_.fetch_add(n, std::memory_order_relaxed);
    peer.bytes_sent.fetch_add(n, std::memory_order_relaxed);
    // Pop fully-written frames (releasing their payloads) and leave the
    // partial tail as the new front offset.
    size_t advanced = peer.front_off + static_cast<size_t>(n);
    int64_t completed = 0;
    while (!peer.sendq.empty() && advanced >= peer.sendq.front().size()) {
      const size_t sz = peer.sendq.front().size();
      advanced -= sz;
      peer.queued_bytes.fetch_sub(static_cast<int64_t>(sz),
                                  std::memory_order_relaxed);
      peer.queued_frames.fetch_sub(1, std::memory_order_relaxed);
      ++completed;
      peer.sendq.pop_front();
    }
    peer.front_off = advanced;
    peer.frames_sent.fetch_add(completed, std::memory_order_relaxed);
    sendmsg_frames_.fetch_add(completed, std::memory_order_relaxed);
    if (peer.queued_bytes.load(std::memory_order_relaxed) <
        options_.send_buffer_max_bytes) {
      peer.send_cv.notify_all();
    }
    if (peer.sendq.empty()) {
      peer.flushes.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  return true;
}

const char* TcpTransport::HandleFrame(int q, const FrameHeader& h,
                                      const char* payload) {
  switch (h.kind) {
    case FrameKind::kHello: {
      // Version was already vetted by the caller. On the dialing side this
      // is the acceptor's reply completing the handshake (a socket that
      // connected to itself hears its own rank and is redialed); accepted
      // connections were attached to their peer slot before parsing.
      if (h.src != q) return "HELLO from the wrong rank";
      std::lock_guard<std::mutex> lock(mu_);
      Peer& peer = peers_[q];
      peer.hello_ok = true;
      cv_start_.notify_all();
      return nullptr;
    }
    case FrameKind::kBye: {
      std::lock_guard<std::mutex> lock(mu_);
      peers_[q].bye_rx = true;
      return nullptr;
    }
    case FrameKind::kData: {
      if (h.msg_type >= kNumMsgTypes) return "unknown message type";
      // A rank speaks only for its own endpoints: its worker, plus the
      // master on rank 0. Anything else is a forged source that would let
      // the frame reach code indexing per-worker state by src.
      if (h.src != q && !(q == 0 && h.src == options_.num_workers)) {
        return "forged source endpoint";
      }
      if (!IsLocalEndpoint(h.dst)) {
        frames_dropped_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;  // misrouted, but the stream itself is intact
      }
      MessageBatch batch;
      batch.src_worker = h.src;
      batch.dst_worker = h.dst;
      batch.type = static_cast<MsgType>(h.msg_type);
      // The body leaves the receive buffer as its own string, so the buffer
      // can be rewound while the batch is still being processed.
      batch.payload = Payload(std::string(payload, h.payload_len));
      // No cross-process clock: remote batches deliver immediately and are
      // excluded from the delivery-latency histograms (sent_at_us == 0).
      batch.deliver_at_us = 0;
      batch.sent_at_us = 0;
      inboxes_[h.dst]->Push(std::move(batch));
      return nullptr;
    }
  }
  return "unknown frame kind";
}

bool TcpTransport::RejectFrame(int q, const std::string& why) {
  // Loss first: whoever sees the counter move also sees the link lost.
  RecordLoss(q, "corrupt frame: " + why);
  frames_corrupt_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

bool TcpTransport::ParseRx(int q) {
  Peer& peer = peers_[q];
  while (peer.rx_len - peer.rx_off >= kFrameHeaderSize) {
    const char* base = peer.rx.data() + peer.rx_off;
    FrameHeader h;
    if (!DecodeFrameHeader(base, &h)) return RejectFrame(q, "bad header");
    if (h.version != kProtocolVersion) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (!peer.hello_ok && start_error_.ok()) {
          // Only a dialed link awaits its HELLO here (accepted ones were
          // vetted before adoption): the acceptor speaks another version, a
          // configuration error reported as a clean Start() failure.
          start_error_ = Status::InvalidArgument(
              "protocol version mismatch: peer rank " + std::to_string(q) +
              " speaks v" + std::to_string(h.version) + ", this build v" +
              std::to_string(kProtocolVersion));
          cv_start_.notify_all();
        }
      }
      return RejectFrame(q, "wrong protocol version");
    }
    if (peer.rx_len - peer.rx_off - kFrameHeaderSize < h.payload_len) break;
    const char* payload = base + kFrameHeaderSize;
    if (h.payload_len > 0 && Crc32C(payload, h.payload_len) != h.crc32) {
      return RejectFrame(q, "CRC mismatch");
    }
    if (const char* violation = HandleFrame(q, h, payload)) {
      return RejectFrame(q, violation);
    }
    peer.frames_received.fetch_add(1, std::memory_order_relaxed);
    peer.rx_off += kFrameHeaderSize + h.payload_len;
  }
  return true;
}

void TcpTransport::EnsureRxSpace(Peer& peer) {
  if (peer.rx_off == peer.rx_len) {
    peer.rx_len = peer.rx_off = 0;  // fully parsed: rewind
    if (peer.rx.empty()) peer.rx.resize(kRecvChunk);
    return;
  }
  if (peer.rx_len < peer.rx.size()) return;
  // A partial frame reached the end of the buffer: double the buffer when
  // that frame alone fills it, else slide the frame to the front.
  const size_t leftover = peer.rx_len - peer.rx_off;
  if (leftover == peer.rx.size()) {
    peer.rx.resize(2 * peer.rx.size());
    return;
  }
  std::memmove(peer.rx.data(), peer.rx.data() + peer.rx_off, leftover);
  peer.rx_len = leftover;
  peer.rx_off = 0;
}

bool TcpTransport::ReadPeer(int q) {
  Peer& peer = peers_[q];
  while (true) {
    EnsureRxSpace(peer);
    char* dst = peer.rx.data() + peer.rx_len;
    const size_t space = peer.rx.size() - peer.rx_len;
    const ssize_t n = ::recv(peer.fd, dst, space, 0);
    if (n > 0) {
      peer.bytes_received.fetch_add(n, std::memory_order_relaxed);
      peer.rx_len += static_cast<size_t>(n);
      if (!ParseRx(q)) {
        DropPeer(q, "corrupt frame");
        return false;
      }
      if (static_cast<size_t>(n) < space) return true;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return true;
    }
    DropPeer(q, n == 0 ? "connection closed" : std::strerror(errno));
    return false;
  }
}

void TcpTransport::IoLoop() {
  std::vector<pollfd> pfds;
  // owners[i]: -1 listen, -2 wake pipe, q >= 0 peer rank, -(3+i) pending_[i]
  std::vector<int> owners;
  uint64_t seen_version = 0;  // pollset_version_ starts at 1: build on entry
  while (true) {
    int timeout_ms = kIoPollMs;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_.load(std::memory_order_relaxed)) break;
      const int64_t now_ms = SteadyNowMs();
      // This rank dials every lower rank; higher ranks dial us. Only a link
      // that has not completed its handshake is (re)dialed.
      for (int q = 0; q < options_.rank; ++q) {
        Peer& peer = peers_[q];
        if (peer.fd >= 0 || peer.hello_ok || !start_error_.ok()) continue;
        if (now_ms >= peer.redial_at_ms) DialLocked(q);
        if (peer.fd < 0) {
          timeout_ms = static_cast<int>(std::min<int64_t>(
              timeout_ms, std::max<int64_t>(1, peer.redial_at_ms - now_ms)));
        }
      }
      if (seen_version != pollset_version_) {
        // The fd set changed (connect, drop, accept, adoption): rebuild the
        // cached pollset. Steady-state iterations skip this and only refresh
        // the event masks in place below.
        seen_version = pollset_version_;
        poll_rebuilds_.fetch_add(1, std::memory_order_relaxed);
        pfds.clear();
        owners.clear();
        pfds.push_back({wake_r_, POLLIN, 0});
        owners.push_back(-2);
        pfds.push_back({listen_fd_, POLLIN, 0});
        owners.push_back(-1);
        for (size_t i = 0; i < pending_.size(); ++i) {
          pfds.push_back({pending_[i].fd, POLLIN, 0});
          owners.push_back(-3 - static_cast<int>(i));
        }
        for (int q = 0; q < options_.num_workers; ++q) {
          if (q != options_.rank && peers_[q].fd >= 0) {
            pfds.push_back({peers_[q].fd, POLLIN, 0});
            owners.push_back(q);
          }
        }
      }
    }
    for (size_t i = 0; i < pfds.size(); ++i) {
      pfds[i].revents = 0;
      const int q = owners[i];
      if (q < 0) continue;
      Peer& peer = peers_[q];
      short events = POLLIN;
      if (peer.connecting ||
          peer.queued_frames.load(std::memory_order_relaxed) > 0) {
        events |= POLLOUT;
      }
      pfds[i].events = events;
    }
    const int ready =
        ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    if (stop_.load(std::memory_order_relaxed)) break;

    std::vector<int> dead_pending;
    for (size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      const int owner = owners[i];
      if (owner == -2) {
        char drain[256];
        while (::read(wake_r_, drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (owner == -1) {
        std::lock_guard<std::mutex> lock(mu_);
        while (true) {
          const int conn = ::accept(listen_fd_, nullptr, nullptr);
          if (conn < 0) break;
          SetNonBlocking(conn);
          SetNoDelay(conn);
          SetSndbuf(conn, options_.sndbuf_bytes);
          pending_.push_back(Pending{conn, std::string()});
          MarkPollsetDirtyLocked();
        }
        continue;
      }
      if (owner <= -3) {
        // Accepted connection awaiting its HELLO.
        const size_t idx = static_cast<size_t>(-3 - owner);
        std::unique_lock<std::mutex> lock(mu_);
        if (idx >= pending_.size()) continue;
        Pending& c = pending_[idx];
        if (c.fd != pfds[i].fd) continue;
        char buf[4096];
        bool drop = false;
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          c.rxbuf.append(buf, static_cast<size_t>(n));
          if (c.rxbuf.size() >= kFrameHeaderSize) {
            FrameHeader h;
            // A HELLO for a rank whose link is already up is rejected:
            // links are never replaced.
            if (!DecodeFrameHeader(c.rxbuf.data(), &h) ||
                h.kind != FrameKind::kHello ||
                h.version != kProtocolVersion || h.src <= options_.rank ||
                h.src >= options_.num_workers || peers_[h.src].hello_ok) {
              hello_rejected_.fetch_add(1, std::memory_order_relaxed);
              drop = true;
            } else {
              AdoptLocked(h.src, c.fd, c.rxbuf.substr(kFrameHeaderSize));
              c.fd = -1;  // ownership transferred
              dead_pending.push_back(static_cast<int>(idx));
              lock.unlock();
              // Service the fresh link outside mu_ (socket IO never runs
              // under the global lock): parse bytes that arrived with the
              // HELLO and flush the reply.
              if (!ParseRx(h.src)) {
                DropPeer(h.src, "corrupt frame");
              } else {
                WritePeer(h.src);
              }
              continue;
            }
          }
        } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                              errno != EINTR)) {
          drop = true;
        }
        if (drop) {
          ::close(c.fd);
          c.fd = -1;
          dead_pending.push_back(static_cast<int>(idx));
        }
        continue;
      }
      // Peer socket.
      const int q = owner;
      Peer& peer = peers_[q];
      if (peer.fd != pfds[i].fd) continue;  // dropped this iteration
      const short rev = pfds[i].revents;
      if (peer.connecting && (rev & (POLLOUT | POLLERR | POLLHUP))) {
        int err = 0;
        socklen_t elen = sizeof(err);
        ::getsockopt(peer.fd, SOL_SOCKET, SO_ERROR, &err, &elen);
        if (err != 0) {
          DropPeer(q, std::strerror(err));
          continue;
        }
        peer.connecting = false;
        EnqueueHello(q);
      }
      if (rev & (POLLERR | POLLHUP | POLLNVAL)) {
        // Read out anything still buffered (a BYE makes the close orderly)
        // before declaring the link dead.
        if (ReadPeer(q)) DropPeer(q, "connection hung up");
        continue;
      }
      if ((rev & POLLIN) && !ReadPeer(q)) continue;
      if (!peer.connecting &&
          peer.queued_frames.load(std::memory_order_relaxed) > 0) {
        WritePeer(q);
      }
    }
    if (dead_pending.empty()) continue;
    std::lock_guard<std::mutex> lock(mu_);
    std::sort(dead_pending.begin(), dead_pending.end());
    for (auto it = dead_pending.rbegin(); it != dead_pending.rend(); ++it) {
      pending_.erase(pending_.begin() + *it);
    }
    MarkPollsetDirtyLocked();
  }
}

void TcpTransport::AppendMetrics(obs::MetricsSnapshot* snap) const {
  const auto relaxed = std::memory_order_relaxed;
  snap->counters.emplace_back("transport.frames_corrupt",
                              frames_corrupt_.load(relaxed));
  snap->counters.emplace_back("transport.hello_rejected",
                              hello_rejected_.load(relaxed));
  snap->counters.emplace_back("transport.frames_dropped",
                              frames_dropped_.load(relaxed));
  snap->counters.emplace_back("transport.batches_abandoned",
                              batches_abandoned_.load(relaxed));
  snap->counters.emplace_back("transport.poll_rebuilds",
                              poll_rebuilds_.load(relaxed));
  snap->counters.emplace_back("transport.sendmsg_calls",
                              sendmsg_calls_.load(relaxed));
  snap->counters.emplace_back("transport.sendmsg_frames",
                              sendmsg_frames_.load(relaxed));
  snap->counters.emplace_back("transport.sendmsg_bytes",
                              sendmsg_bytes_.load(relaxed));
  for (int q = 0; q < options_.num_workers; ++q) {
    if (q == options_.rank) continue;
    const Peer& p = peers_[q];
    const std::string label = "{peer=" + std::to_string(q) + "}";
    snap->counters.emplace_back("transport.frames_sent" + label,
                                p.frames_sent.load(relaxed));
    snap->counters.emplace_back("transport.bytes_sent" + label,
                                p.bytes_sent.load(relaxed));
    snap->counters.emplace_back("transport.frames_received" + label,
                                p.frames_received.load(relaxed));
    snap->counters.emplace_back("transport.bytes_received" + label,
                                p.bytes_received.load(relaxed));
    snap->counters.emplace_back("transport.send_flushes" + label,
                                p.flushes.load(relaxed));
    snap->counters.emplace_back("transport.backpressure_waits" + label,
                                p.backpressure_waits.load(relaxed));
    snap->counters.emplace_back("transport.reconnects" + label,
                                p.reconnects.load(relaxed));
    snap->gauges.emplace_back("transport.send_queue_bytes" + label,
                              p.queued_bytes.load(relaxed));
  }
}

}  // namespace gthinker::net
