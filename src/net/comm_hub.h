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
#include "util/status.h"

namespace gthinker {

/// The interconnect between the endpoints of a cluster (workers plus the
/// master). CommHub is a thin routing/accounting shim over a pluggable
/// net::Transport backend (DESIGN.md "Transport layer"):
///
///   - the transport only moves MessageBatches between endpoints — in-memory
///     mailboxes with simulated latency/bandwidth (InProcTransport, the
///     default) or framed TCP sockets (TcpTransport);
///   - the hub owns every counter the engine reasons about — per-kind
///     sent/processed/delivered/bytes, the delivery-latency histograms, and
///     the InFlightCount() the termination protocol rests on.
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

  /// Acknowledges that a received batch has been *fully handled*, including
  /// any messages the handler sent in response. A batch counts toward
  /// InFlightCount() from Send until MarkProcessed, so InFlightCount()==0
  /// means no message is queued, on the wire, or being handled — the wire is
  /// provably quiet and no handler is about to send. The call that leaves
  /// nothing in flight (cluster-wide in-process; nothing unhandled in this
  /// process under sockets) wakes every local endpoint that began its drain.
  void MarkProcessed(MsgType type);

  /// Announces that local endpoint `endpoint` has entered the shutdown
  /// drain (it will originate no further spontaneous traffic). Required for
  /// socket backends to certify cluster-wide quiescence. From here on the
  /// hub (and a socket transport, as its drain markers land) Wakes the
  /// endpoint when the wire can have emptied, so a drain that waits on
  /// InFlightCount() need not poll.
  void BeginDrain(int endpoint);

  /// Stops the transport (closing connections, flushing what it can within a
  /// bound). Idempotent. Call before the final MetricsSnapshot() so teardown
  /// accounting — e.g. transport.batches_abandoned, the send-queue frames a
  /// socket backend had to drop — lands in the job report instead of being
  /// lost in the destructor.
  void Shutdown() { transport_->Stop(); }

  /// Batches sent but not yet MarkProcessed'd, over all message types.
  /// With an in-process backend this is exact across the whole cluster.
  /// With a socket backend it covers what *this process* can know: its own
  /// unhandled receives plus the transport's wire-resident work (send
  /// buffers, inbox backlog, outstanding drain markers) — it reaches zero
  /// and stays zero only once the cluster-wide drain protocol completes.
  int64_t InFlightCount() const;

  /// Same, restricted to one message type (e.g. kTaskBatch for the
  /// checkpoint quiesce and kStealOrder for steal-plan quiescing). Only
  /// globally meaningful for an in-process backend; socket-backed runs gate
  /// such features off in Validate().
  int64_t InFlightCount(MsgType type) const;

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

  // --- wire statistics (for benches and termination detection) ---
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
  /// Batches this process received but has not MarkProcessed'd yet — the
  /// local half of InFlightCount() for backends that can't count globally.
  std::atomic<int64_t> unprocessed_{0};
  /// Local endpoints that called BeginDrain, and how many: MarkProcessed
  /// looks for quiet only once the count is non-zero.
  std::vector<std::atomic<bool>> draining_;
  std::atomic<int> num_draining_{0};
  std::array<std::atomic<int64_t>, kNumMsgTypes> sent_by_type_{};
  std::array<std::atomic<int64_t>, kNumMsgTypes> processed_by_type_{};
  std::array<std::atomic<int64_t>, kNumMsgTypes> bytes_by_type_{};
  std::array<std::atomic<int64_t>, kNumMsgTypes> delivered_by_type_{};
  std::array<obs::Histogram, kNumMsgTypes> delivery_us_{};
};

}  // namespace gthinker

#endif  // GTHINKER_NET_COMM_HUB_H_
