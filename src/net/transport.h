#ifndef GTHINKER_NET_TRANSPORT_H_
#define GTHINKER_NET_TRANSPORT_H_

#include <cstdint>

#include "net/message.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace gthinker::net {

/// The pluggable byte-moving backend under CommHub (DESIGN.md "Transport
/// layer"). CommHub stays the single routing/accounting surface the engine
/// talks to; a Transport only moves MessageBatches between *endpoints* and
/// answers questions about what it still holds.
///
/// Endpoint model: endpoints 0..num_workers-1 are the workers and endpoint
/// num_workers is the master. A transport instance serves one process, which
/// hosts one or more *local* endpoints (all of them for the in-process
/// backend; one worker rank — plus the master on rank 0 — for TCP).
///
/// Contract (enforced by tests/transport_conformance_test.cc):
///   - FIFO per (src, dst): batches between one ordered pair are delivered
///     in send order.
///   - Send() never drops a batch while the transport is running; it may
///     block (backpressure) but must eventually accept.
///   - Receive() returns batches for a *local* endpoint only.
///
/// A transport does not decide when the wire is empty: the master does,
/// from the workers' progress reports (core/master.h), and only then lets
/// the processes stop.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Short backend name for metrics/status output ("inproc", "tcp").
  virtual const char* name() const = 0;

  /// Establishes connections / handshakes. Must be called (and succeed)
  /// before the first Send. Trivial for the in-process backend.
  virtual Status Start() = 0;

  /// Flushes what it can and tears down. Idempotent.
  virtual void Stop() = 0;

  /// Queues `batch` for delivery to batch.dst_worker. Called concurrently
  /// from many threads. May block under backpressure.
  virtual void Send(MessageBatch batch) = 0;

  /// Pops the next batch addressed to local endpoint `endpoint`, waiting up
  /// to `timeout_us` real microseconds. Returns false on timeout.
  virtual bool Receive(int endpoint, int64_t timeout_us, MessageBatch* out) = 0;

  /// Ends a Receive blocked on local endpoint `endpoint` early (it returns
  /// false, or a batch if one landed meanwhile); a Wake with no Receive
  /// blocked ends the next one at once. Any thread may call it: this is how
  /// an endpoint's own threads tell its receiving thread that state outside
  /// the inbox changed.
  virtual void Wake(int endpoint) = 0;

  /// Current backlog of `endpoint`'s inbox (sampled gauge). Remote
  /// endpoints report 0 — a process cannot see a peer's queues.
  virtual int64_t InboxDepth(int endpoint) const = 0;

  /// Appends backend counters/gauges (per-peer send/flush/backpressure for
  /// sockets) to the hub's snapshot.
  virtual void AppendMetrics(obs::MetricsSnapshot* snap) const = 0;
};

}  // namespace gthinker::net

#endif  // GTHINKER_NET_TRANSPORT_H_
