#ifndef GTHINKER_CORE_PROTOCOL_H_
#define GTHINKER_CORE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.h"
#include "net/payload.h"
#include "util/serializer.h"
#include "util/status.h"

namespace gthinker {

/// Payload encodings for the message types in net/message.h. Kept dumb and
/// explicit: every field that crosses workers is spelled out here, so the
/// simulated wire carries exactly what a socket deployment would.
///
/// Encoders write into a pooled Serializer slab and hand the bytes off
/// zero-copy as a single-fragment Payload (TakePayload); decoders read the
/// incoming Payload through a flat view — zero-copy for the flat payloads
/// every encoder here produces. Every decoder is bounds-checked end to end:
/// truncated or corrupted payloads yield Status::Corruption, never a crash,
/// and so does a message followed by stray bytes (ExpectEnd).

/// Ok when `des` consumed the whole message `what`, Corruption otherwise.
inline Status ExpectEnd(const Deserializer& des, const char* what) {
  return des.AtEnd() ? Status::Ok()
                     : Status::Corruption(std::string(what) +
                                          ": trailing bytes");
}

/// Task-conservation ledger (one per worker, summed by the master). Every
/// counter is cumulative and monotonic; each task-lifecycle transition
/// increments exactly one of them, so at any quiescent point the invariant
///
///   spawned + restored + received == finished + donated + live
///
/// must hold, where `live` is the worker's current task population (in
/// queues, pending tables, in a comper's hands, or in spill files). The
/// master verifies the global sum at termination and aborts on any leak —
/// a violated ledger means a task was silently lost or double-counted.
struct TaskLedger {
  int64_t spawned = 0;       // AddTask or a closed root bundle
  int64_t restored = 0;      // re-queued from a checkpoint blob
  int64_t finished = 0;      // Compute returned false
  int64_t spilled = 0;       // serialized to a local spill file
  int64_t loaded = 0;        // deserialized back from a local spill file
  int64_t donated = 0;       // serialized into an outgoing kTaskBatch
  int64_t received = 0;      // decoded from an incoming kTaskBatch
  int64_t checkpointed = 0;  // serialized into a checkpoint snapshot
  int64_t disk_donated = 0;  // taken from L_file to fill a donation
  // L_file flow: spilled, received and restored tasks enter it; loaded and
  // disk_donated tasks leave it. So at a clean exit
  // spilled + received + restored == loaded + disk_donated.

  void Accumulate(const TaskLedger& other) {
    spawned += other.spawned;
    restored += other.restored;
    finished += other.finished;
    spilled += other.spilled;
    loaded += other.loaded;
    donated += other.donated;
    received += other.received;
    checkpointed += other.checkpointed;
    disk_donated += other.disk_donated;
  }

  /// Tasks this ledger says must still be alive somewhere.
  int64_t ExpectedLive() const {
    return spawned + restored + received - finished - donated;
  }

  void EncodeTo(Serializer* ser) const {
    ser->Write(spawned);
    ser->Write(restored);
    ser->Write(finished);
    ser->Write(spilled);
    ser->Write(loaded);
    ser->Write(donated);
    ser->Write(received);
    ser->Write(checkpointed);
    ser->Write(disk_donated);
  }

  Status DecodeFrom(Deserializer* des) {
    GT_RETURN_IF_ERROR(des->Read(&spawned));
    GT_RETURN_IF_ERROR(des->Read(&restored));
    GT_RETURN_IF_ERROR(des->Read(&finished));
    GT_RETURN_IF_ERROR(des->Read(&spilled));
    GT_RETURN_IF_ERROR(des->Read(&loaded));
    GT_RETURN_IF_ERROR(des->Read(&donated));
    GT_RETURN_IF_ERROR(des->Read(&received));
    GT_RETURN_IF_ERROR(des->Read(&checkpointed));
    return des->Read(&disk_donated);
  }
};

/// kProgressReport: worker -> master, every progress interval. Carries the
/// idle/remaining state driving stealing + termination, monotonic data-batch
/// counters for the message-balance check, the task-conservation ledger, a
/// stats snapshot, the worker's live gauges, and the committed aggregator
/// delta (opaque bytes; master deserializes by AggT). It is the one record
/// of per-worker state: the master's termination and steal planning, the
/// job's final counters, the sampled time-series and the live status
/// endpoints all read it.
struct ProgressReport {
  int32_t worker_id = 0;
  uint8_t final_report = 0;
  uint8_t idle = 0;
  int64_t remaining_estimate = 0;
  int64_t data_sent = 0;
  int64_t data_processed = 0;

  int64_t task_iterations = 0;
  int64_t spilled_batches = 0;
  int64_t stolen_batches = 0;
  int64_t vertex_requests = 0;
  int64_t cache_hits = 0;
  int64_t cache_evictions = 0;
  int64_t peak_mem_bytes = 0;
  int64_t comper_idle_rounds = 0;
  /// Total VertexCache lookups (hits + misses); hit rate = cache_hits / this.
  int64_t cache_requests = 0;
  /// Scheduling rounds across the worker's compers (idle + busy); comper
  /// utilization = 1 - comper_idle_rounds / this.
  int64_t comper_rounds = 0;

  /// Task-conservation accounting (see TaskLedger).
  TaskLedger ledger;
  /// Point-in-time task population: live in memory or in spill files.
  int64_t tasks_live = 0;
  /// Point-in-time exact record count across the worker's spill files.
  int64_t tasks_on_disk = 0;
  /// Messages handled after kTerminate was observed (the drain phase);
  /// these used to be silently dropped when the comm loop exited.
  int64_t drained_messages = 0;

  // Point-in-time gauges: tasks in the compers' Q_task queues, Γ-table
  // entries, batches waiting for the spill writer, batches in the worker's
  // own hub inbox.
  int64_t queue_depth = 0;
  int64_t cache_size = 0;
  int64_t spill_queue_depth = 0;
  int64_t inbox_depth = 0;

  std::string agg_delta;

  Payload Encode() const {
    Serializer ser;
    ser.Write(worker_id);
    ser.Write(final_report);
    ser.Write(idle);
    ser.Write(remaining_estimate);
    ser.Write(data_sent);
    ser.Write(data_processed);
    ser.Write(task_iterations);
    ser.Write(spilled_batches);
    ser.Write(stolen_batches);
    ser.Write(vertex_requests);
    ser.Write(cache_hits);
    ser.Write(cache_evictions);
    ser.Write(peak_mem_bytes);
    ser.Write(comper_idle_rounds);
    ser.Write(cache_requests);
    ser.Write(comper_rounds);
    ledger.EncodeTo(&ser);
    ser.Write(tasks_live);
    ser.Write(tasks_on_disk);
    ser.Write(drained_messages);
    ser.Write(queue_depth);
    ser.Write(cache_size);
    ser.Write(spill_queue_depth);
    ser.Write(inbox_depth);
    ser.WriteString(agg_delta);
    return TakePayload(ser);
  }

  Status Decode(const Payload& payload) {
    PayloadView view(payload);
    Deserializer des(view.data(), view.size());
    GT_RETURN_IF_ERROR(des.Read(&worker_id));
    GT_RETURN_IF_ERROR(des.Read(&final_report));
    GT_RETURN_IF_ERROR(des.Read(&idle));
    GT_RETURN_IF_ERROR(des.Read(&remaining_estimate));
    GT_RETURN_IF_ERROR(des.Read(&data_sent));
    GT_RETURN_IF_ERROR(des.Read(&data_processed));
    GT_RETURN_IF_ERROR(des.Read(&task_iterations));
    GT_RETURN_IF_ERROR(des.Read(&spilled_batches));
    GT_RETURN_IF_ERROR(des.Read(&stolen_batches));
    GT_RETURN_IF_ERROR(des.Read(&vertex_requests));
    GT_RETURN_IF_ERROR(des.Read(&cache_hits));
    GT_RETURN_IF_ERROR(des.Read(&cache_evictions));
    GT_RETURN_IF_ERROR(des.Read(&peak_mem_bytes));
    GT_RETURN_IF_ERROR(des.Read(&comper_idle_rounds));
    GT_RETURN_IF_ERROR(des.Read(&cache_requests));
    GT_RETURN_IF_ERROR(des.Read(&comper_rounds));
    GT_RETURN_IF_ERROR(ledger.DecodeFrom(&des));
    GT_RETURN_IF_ERROR(des.Read(&tasks_live));
    GT_RETURN_IF_ERROR(des.Read(&tasks_on_disk));
    GT_RETURN_IF_ERROR(des.Read(&drained_messages));
    GT_RETURN_IF_ERROR(des.Read(&queue_depth));
    GT_RETURN_IF_ERROR(des.Read(&cache_size));
    GT_RETURN_IF_ERROR(des.Read(&spill_queue_depth));
    GT_RETURN_IF_ERROR(des.Read(&inbox_depth));
    GT_RETURN_IF_ERROR(des.ReadString(&agg_delta));
    return ExpectEnd(des, "progress report");
  }
};

/// kVertexRequest payload: the IDs a worker wants from the destination's
/// local vertex table.
inline Payload EncodeVertexRequest(const std::vector<VertexId>& ids) {
  Serializer ser;
  ser.WriteVector(ids);
  return TakePayload(ser);
}

inline Status DecodeVertexRequest(const Payload& payload,
                                  std::vector<VertexId>* ids) {
  PayloadView view(payload);
  Deserializer des(view.data(), view.size());
  GT_RETURN_IF_ERROR(des.ReadVector(ids));
  return ExpectEnd(des, "vertex request");
}

/// kTaskBatch payload: the record batch plus the hub-clock instant of the
/// kStealOrder that caused it, so the recipient can measure the full steal
/// round-trip order->batch-arrival.
inline Payload EncodeTaskBatch(const std::vector<std::string>& records,
                               int64_t steal_order_t_us = 0) {
  Serializer ser;
  ser.Write(steal_order_t_us);
  ser.Write<uint64_t>(records.size());
  for (const std::string& r : records) ser.WriteString(r);
  return TakePayload(ser);
}

inline Status DecodeTaskBatch(const Payload& payload,
                              std::vector<std::string>* records,
                              int64_t* steal_order_t_us = nullptr) {
  PayloadView view(payload);
  Deserializer des(view.data(), view.size());
  int64_t t_us = 0;
  GT_RETURN_IF_ERROR(des.Read(&t_us));
  if (steal_order_t_us != nullptr) *steal_order_t_us = t_us;
  uint64_t n = 0;
  GT_RETURN_IF_ERROR(des.Read(&n));
  if (n > des.remaining()) {
    return Status::Corruption("task batch count implausible");
  }
  records->clear();
  records->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::string r;
    GT_RETURN_IF_ERROR(des.ReadString(&r));
    records->push_back(std::move(r));
  }
  return ExpectEnd(des, "task batch");
}

/// kStealOrder payload: the worker that should receive the donated batch,
/// plus the hub-clock instant the master issued the order (steal round-trip
/// measurement).
inline Payload EncodeStealOrder(int32_t dst_worker, int64_t order_t_us) {
  Serializer ser;
  ser.Write(dst_worker);
  ser.Write(order_t_us);
  return TakePayload(ser);
}

inline Status DecodeStealOrder(const Payload& payload, int32_t* dst_worker,
                               int64_t* order_t_us) {
  PayloadView view(payload);
  Deserializer des(view.data(), view.size());
  GT_RETURN_IF_ERROR(des.Read(dst_worker));
  GT_RETURN_IF_ERROR(des.Read(order_t_us));
  return ExpectEnd(des, "steal order");
}

/// kDrainBarrier payload (worker -> master direction): the quiesced worker.
/// The master -> worker direction carries an empty payload (the global
/// "everyone quiesced, drain the wire" release).
inline Payload EncodeDrainBarrier(int32_t worker_id) {
  Serializer ser;
  ser.Write(worker_id);
  return TakePayload(ser);
}

inline Status DecodeDrainBarrier(const Payload& payload, int32_t* worker_id) {
  PayloadView view(payload);
  Deserializer des(view.data(), view.size());
  GT_RETURN_IF_ERROR(des.Read(worker_id));
  return ExpectEnd(des, "drain barrier");
}

/// kCheckpointRequest payload: the checkpoint epoch.
struct CheckpointRequest {
  uint64_t epoch = 0;

  Payload Encode() const {
    Serializer ser;
    ser.Write(epoch);
    return TakePayload(ser);
  }
  Status Decode(const Payload& payload) {
    PayloadView view(payload);
    Deserializer des(view.data(), view.size());
    GT_RETURN_IF_ERROR(des.Read(&epoch));
    return ExpectEnd(des, "checkpoint request");
  }
};

/// kCheckpointAck payload (worker -> master).
struct CheckpointAck {
  int32_t worker_id = 0;
  uint64_t epoch = 0;
  std::string agg_delta;

  Payload Encode() const {
    Serializer ser;
    ser.Write(worker_id);
    ser.Write(epoch);
    ser.WriteString(agg_delta);
    return TakePayload(ser);
  }
  Status Decode(const Payload& payload) {
    PayloadView view(payload);
    Deserializer des(view.data(), view.size());
    GT_RETURN_IF_ERROR(des.Read(&worker_id));
    GT_RETURN_IF_ERROR(des.Read(&epoch));
    GT_RETURN_IF_ERROR(des.ReadString(&agg_delta));
    return ExpectEnd(des, "checkpoint ack");
  }
};

/// 64-bit task IDs (paper §V-B): 16-bit comper index | 48-bit sequence.
inline uint64_t MakeTaskId(int comper_index, uint64_t seq) {
  return (static_cast<uint64_t>(comper_index) << 48) |
         (seq & ((1ULL << 48) - 1));
}

inline int ComperOfTaskId(uint64_t task_id) {
  return static_cast<int>(task_id >> 48);
}

}  // namespace gthinker

#endif  // GTHINKER_CORE_PROTOCOL_H_
