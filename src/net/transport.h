#ifndef GTHINKER_NET_TRANSPORT_H_
#define GTHINKER_NET_TRANSPORT_H_

#include <functional>

#include "net/message.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace gthinker::net {

/// The pluggable backend under CommHub that carries batches between
/// processes (DESIGN.md "Transport layer"). CommHub stays the single
/// routing/accounting surface the engine talks to, and it owns every
/// endpoint's inbox; a Transport only carries each batch to the process
/// that hosts its destination and hands it to that process's hub.
///
/// Endpoint model: endpoints 0..num_workers-1 are the workers and endpoint
/// num_workers is the master. A transport instance serves one process, which
/// hosts one or more *local* endpoints (one worker rank — plus the master on
/// rank 0 — for TCP).
///
/// Contract (enforced by tests/transport_conformance_test.cc):
///   - FIFO per (src, dst): batches between one ordered pair are delivered
///     in send order.
///   - Send() never drops a batch while the transport is running; it may
///     block (backpressure) but must eventually accept.
///   - Deliver receives batches for *local* endpoints only, unstamped
///     (sent_at_us == 0: there is no clock shared across processes).
///
/// A transport does not decide when the wire is empty: the master does,
/// from the workers' progress reports (core/master.h), and only then lets
/// the processes stop.
class Transport {
 public:
  /// The hub's inbox: takes a batch addressed to a local endpoint. Called
  /// from any transport thread.
  using Deliver = std::function<void(MessageBatch)>;

  virtual ~Transport() = default;

  /// Short backend name for metrics/status output ("tcp").
  virtual const char* name() const = 0;

  /// Establishes connections / handshakes and from then on hands every
  /// batch for a local endpoint to `deliver`. Must be called (and succeed)
  /// before the first Send.
  virtual Status Start(Deliver deliver) = 0;

  /// Flushes what it can and tears down. Idempotent.
  virtual void Stop() = 0;

  /// Carries `batch` to batch.dst_worker. Called concurrently from many
  /// threads. May block under backpressure.
  virtual void Send(MessageBatch batch) = 0;

  /// Dies naming the peer if a link the job needs is lost. The hub calls it
  /// around each Receive wait, so a lost link fails the next Receive.
  virtual void CheckLinks() const = 0;

  /// Appends backend counters/gauges (per-peer send/flush/backpressure for
  /// sockets) to the hub's snapshot.
  virtual void AppendMetrics(obs::MetricsSnapshot* snap) const = 0;
};

}  // namespace gthinker::net

#endif  // GTHINKER_NET_TRANSPORT_H_
