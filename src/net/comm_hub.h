#ifndef GTHINKER_NET_COMM_HUB_H_
#define GTHINKER_NET_COMM_HUB_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "net/message.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace gthinker {

/// The interconnect between the endpoints of a cluster (workers plus the
/// master). CommHub is a thin routing/accounting shim over a pluggable
/// net::Transport backend (DESIGN.md "Transport layer"):
///
///   - the transport only moves MessageBatches between endpoints — in-memory
///     mailboxes with simulated latency/bandwidth (InProcTransport, the
///     default) or framed TCP sockets (TcpTransport);
///   - the hub owns the wire's counters — per-kind sent/delivered/bytes and
///     the delivery-latency histograms. Whether the wire is empty is the
///     master's call, from the workers' progress reports (core/master.h).
///
/// All inter-worker data crosses this hub as serialized batches — workers
/// never touch each other's memory — so the in-process code path is the same
/// as a socket deployment.
///
/// Thread-safe: any worker thread may Send concurrently.
class CommHub {
 public:
  /// Default backend: in-process mailboxes for `num_workers` endpoints with
  /// the simulated-interconnect knobs in `config`. Ready immediately
  /// (Start() is optional and trivially OK).
  explicit CommHub(int num_workers, NetConfig config = {});

  /// External backend: the hub routes/accounts, `transport` moves bytes.
  /// `num_endpoints` is the cluster-wide endpoint count (workers + master);
  /// call Start() before the first Send.
  CommHub(int num_endpoints, std::unique_ptr<net::Transport> transport);

  ~CommHub();

  int num_workers() const { return num_workers_; }

  /// Starts the transport (connection establishment / handshake for socket
  /// backends). Must succeed before the first Send on an external backend.
  Status Start() { return transport_->Start(); }

  const char* TransportName() const { return transport_->name(); }

  /// Accounts the batch and hands it to the transport for delivery to
  /// batch.dst_worker. FIFO order per (src,dst) link is preserved. May block
  /// under transport backpressure, never drops.
  void Send(MessageBatch batch);

  /// The destination-side receive: pops the next batch for local endpoint
  /// `worker`, waiting up to `timeout_us` real microseconds. Returns false
  /// on timeout.
  bool Receive(int worker, int64_t timeout_us, MessageBatch* out);

  /// Ends a Receive blocked on local endpoint `worker` early, so its thread
  /// looks at state that changed outside its inbox (net::Transport::Wake).
  void Wake(int worker) { transport_->Wake(worker); }

  /// Stops the transport (closing connections after a socket backend's
  /// closing marker, flushing what it can within a bound). Idempotent. Call
  /// before the final MetricsSnapshot() so teardown accounting — e.g.
  /// transport.batches_abandoned, the send-queue frames a socket backend had
  /// to drop — lands in that snapshot instead of being lost in the
  /// destructor.
  void Shutdown() { transport_->Stop(); }

  /// Batches of one type ever sent (steal-efficiency accounting: tasks
  /// received per kStealOrder issued). Local sends only under sockets.
  int64_t SentCount(MsgType type) const {
    return sent_by_type_[static_cast<int>(type)].load(
        std::memory_order_acquire);
  }

  /// Current backlog of local endpoint `w`'s inbox (sampled gauge).
  int64_t InboxDepth(int worker) const { return transport_->InboxDepth(worker); }

  /// Wire observability: per-kind send/delivery counts, payload bytes, and
  /// a delivery-latency histogram (Send() to the receiver popping it, so it
  /// covers simulated wire time plus real queueing delay) per message kind,
  /// plus the transport's own counters (per-peer send/flush/backpressure for
  /// sockets). Snapshot is safe while traffic flows.
  obs::MetricsSnapshot MetricsSnapshot() const;

  /// Monotonic hub clock, microseconds.
  int64_t NowUs() const;

  // --- wire statistics (for benches and the job report) ---
  int64_t TotalBatchesSent() const {
    return batches_sent_.load(std::memory_order_acquire);
  }
  int64_t TotalBatchesDelivered() const {
    return batches_delivered_.load(std::memory_order_acquire);
  }
  int64_t TotalBytesSent() const {
    return bytes_sent_.load(std::memory_order_acquire);
  }

 private:
  const int num_workers_;
  const int64_t epoch_us_;
  std::unique_ptr<net::Transport> transport_;
  std::atomic<int64_t> batches_sent_{0};
  std::atomic<int64_t> batches_delivered_{0};
  std::atomic<int64_t> bytes_sent_{0};
  std::array<std::atomic<int64_t>, kNumMsgTypes> sent_by_type_{};
  std::array<std::atomic<int64_t>, kNumMsgTypes> bytes_by_type_{};
  std::array<std::atomic<int64_t>, kNumMsgTypes> delivered_by_type_{};
  std::array<obs::Histogram, kNumMsgTypes> delivery_us_{};
};

}  // namespace gthinker

#endif  // GTHINKER_NET_COMM_HUB_H_
