#ifndef GTHINKER_NET_COMM_HUB_H_
#define GTHINKER_NET_COMM_HUB_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/message.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "util/concurrent_queue.h"
#include "util/status.h"

namespace gthinker {

/// The interconnect between the endpoints of a cluster (workers plus the
/// master), DESIGN.md "Transport layer". The hub holds one inbox per
/// endpoint and owns the one receive path:
///
///   - in-process (no transport), the hub delivers every batch itself over
///     a simulated wire: it stamps each batch, serializes it on its
///     (src,dst) link under NetConfig's bandwidth, and the receiver waits
///     out the rest of its latency;
///   - with a net::Transport (TcpTransport), the hub hands it every batch,
///     and the transport delivers the batches for this process's endpoints
///     into the inboxes, unstamped.
///
/// The hub also owns the wire's counters: per-kind sent/delivered/bytes and
/// the delivery-latency histograms. Whether the wire is empty is the
/// master's call, from the workers' progress reports (core/master.h).
///
/// All inter-worker data crosses this hub as serialized batches — workers
/// never touch each other's memory — so the in-process code path is the same
/// as a socket deployment.
///
/// Thread-safe: any worker thread may Send concurrently.
class CommHub {
 public:
  /// In-process: every one of the `num_endpoints` endpoints lives in this
  /// process, on the simulated wire `config`. Ready immediately (Start() is
  /// optional and trivially OK).
  explicit CommHub(int num_endpoints, NetConfig config = {});

  /// External backend: the hub routes/accounts, `transport` carries the
  /// batches. `num_endpoints` is the cluster-wide endpoint count (workers +
  /// master); call Start() before the first Send.
  CommHub(int num_endpoints, std::unique_ptr<net::Transport> transport);

  ~CommHub();

  int num_workers() const { return num_workers_; }

  /// Starts the transport (connection establishment / handshake for socket
  /// backends), which delivers into the inboxes from then on. Must succeed
  /// before the first Send on an external backend.
  Status Start();

  const char* TransportName() const {
    return transport_ ? transport_->name() : "inproc";
  }

  /// Accounts the batch and delivers it to batch.dst_worker, or hands it to
  /// the transport. FIFO order per (src,dst) link is preserved. May block
  /// under transport backpressure, never drops.
  void Send(MessageBatch batch);

  /// The destination-side receive: pops the next batch for local endpoint
  /// `worker`, waiting up to `timeout_us` real microseconds. Returns false
  /// on timeout or Wake. Dies if the transport lost a link.
  bool Receive(int worker, int64_t timeout_us, MessageBatch* out);

  /// Ends a Receive blocked on endpoint `worker` early (it returns false, or
  /// a batch if one landed meanwhile); a Wake with no Receive blocked ends
  /// the next one at once. Any thread may call it: this is how an
  /// endpoint's own threads tell its receiving thread that state outside
  /// the inbox changed.
  void Wake(int worker) { inboxes_[worker].Wake(); }

  /// Stops the transport (closing connections after a socket backend's
  /// closing marker, flushing what it can within a bound). Idempotent. Call
  /// before the final MetricsSnapshot() so teardown accounting — e.g.
  /// transport.batches_abandoned, the send-queue frames a socket backend had
  /// to drop — lands in that snapshot instead of being lost in the
  /// destructor.
  void Shutdown() {
    if (transport_) transport_->Stop();
  }

  /// Batches of one type ever sent (steal-efficiency accounting: tasks
  /// received per kStealOrder issued). Local sends only under sockets.
  int64_t SentCount(MsgType type) const {
    return sent_by_type_[static_cast<int>(type)].load(
        std::memory_order_acquire);
  }

  /// Current backlog of endpoint `w`'s inbox (sampled gauge). A remote
  /// endpoint's inbox stays empty: its batches go to its own process.
  int64_t InboxDepth(int worker) const {
    return static_cast<int64_t>(inboxes_[worker].Size());
  }

  /// Wire observability: per-kind send/delivery counts, payload bytes, and
  /// a delivery-latency histogram (Send() to the receiver popping it, so it
  /// covers simulated wire time plus real queueing delay) per message kind,
  /// plus the transport's own counters (per-peer send/flush/backpressure for
  /// sockets). Snapshot is safe while traffic flows.
  obs::MetricsSnapshot MetricsSnapshot() const;

  /// Monotonic hub clock, microseconds.
  int64_t NowUs() const;

  // --- wire statistics (for benches and the job report) ---
  int64_t TotalBatchesSent() const { return Sum(sent_by_type_); }
  int64_t TotalBatchesDelivered() const { return Sum(delivered_by_type_); }
  int64_t TotalBytesSent() const { return Sum(bytes_by_type_); }

 private:
  using PerKind = std::array<std::atomic<int64_t>, kNumMsgTypes>;

  static int64_t Sum(const PerKind& counts);

  const int num_workers_;
  const NetConfig config_;
  const int64_t epoch_us_;
  std::vector<ConcurrentQueue<MessageBatch>> inboxes_;
  /// When each (src,dst) link of the simulated wire is free again, row-major
  /// (bandwidth modeling); empty when NetConfig models nothing.
  std::vector<std::atomic<int64_t>> link_free_at_us_;
  /// Null in-process. Declared after the inboxes, so it is destroyed (and
  /// stops delivering) first.
  std::unique_ptr<net::Transport> transport_;
  PerKind sent_by_type_{};
  PerKind bytes_by_type_{};
  PerKind delivered_by_type_{};
  std::array<obs::Histogram, kNumMsgTypes> delivery_us_{};
};

}  // namespace gthinker

#endif  // GTHINKER_NET_COMM_HUB_H_
