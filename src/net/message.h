#ifndef GTHINKER_NET_MESSAGE_H_
#define GTHINKER_NET_MESSAGE_H_

#include <cstdint>

#include "net/payload.h"

namespace gthinker {

/// Simulated interconnect parameters. Zero values mean "instantaneous".
/// The defaults model nothing; benches pass GigE-like numbers when the
/// experiment depends on communication cost (e.g. fig2_cost_crossover).
struct NetConfig {
  /// One-way per-batch latency, microseconds (GigE RTT/2 ≈ 50–100 µs).
  int64_t latency_us = 0;
  /// Link bandwidth in megabits/s; 0 = infinite.
  double bandwidth_mbps = 0.0;
};

/// Kinds of batches moving between workers. Everything inter-worker — vertex
/// pulls, responses, control/progress traffic, stolen task batches, aggregator
/// sync — goes through this one framing, exactly like an MPI deployment.
///
/// Each entry documents its actual payload layout as produced by the
/// encoders in core/protocol.h (all integers little-endian fixed width;
/// "blob" = u64 length prefix + bytes).
enum class MsgType : uint8_t {
  kVertexRequest = 0,   // u64 count + VertexId[count] (EncodeVertexRequest)
  kVertexResponse = 1,  // u64 count + count Codec-encoded (id, Γ(id)) records
  kProgressReport = 2,  // ProgressReport::Encode: counters, checkpoint epoch,
                        // quiesced flag, drain and quiesce terms, TaskLedger
                        // (8 × i64), gauges, agg blob
  kStealOrder = 3,      // i32 dst_worker + i64 order_t_us (hub clock)
  kTaskBatch = 4,       // i64 steal_order_t_us + u64 count + count task blobs
  kAggregatorSync = 5,  // Codec<AggT>-encoded global aggregate (no framing)
  kTerminate = 6,       // empty payload
  kCheckpointRequest = 7,  // u64 epoch (CheckpointRequest::Encode)
  kDrainBarrier = 8,       // master -> all: empty payload (drain release)
  kReportRequest = 9,      // master -> worker: empty payload ("report now")
};

/// Number of distinct MsgType values (for per-type wire accounting).
inline constexpr int kNumMsgTypes = 10;

/// Human-readable message-kind name (metrics labels, trace output).
inline const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kVertexRequest:
      return "vertex_request";
    case MsgType::kVertexResponse:
      return "vertex_response";
    case MsgType::kProgressReport:
      return "progress_report";
    case MsgType::kStealOrder:
      return "steal_order";
    case MsgType::kTaskBatch:
      return "task_batch";
    case MsgType::kAggregatorSync:
      return "aggregator_sync";
    case MsgType::kTerminate:
      return "terminate";
    case MsgType::kCheckpointRequest:
      return "checkpoint_request";
    case MsgType::kDrainBarrier:
      return "drain_barrier";
    case MsgType::kReportRequest:
      return "report_request";
  }
  return "unknown";
}

/// One batch on the wire. The payload is one refcounted buffer
/// (net/payload.h): it is built once by the sender and crosses the hub by
/// handle, with zero intermediate byte copies.
struct MessageBatch {
  int src_worker = -1;
  int dst_worker = -1;
  MsgType type = MsgType::kVertexRequest;
  Payload payload;
  /// Simulated delivery timestamp (microseconds on the hub clock); the
  /// receiver must not process the batch before this instant.
  int64_t deliver_at_us = 0;
  /// Hub-clock instant the batch entered Send(); receive-side delivery
  /// latency (queueing + simulated wire time) is measured against it.
  int64_t sent_at_us = 0;
};

}  // namespace gthinker

#endif  // GTHINKER_NET_MESSAGE_H_
