#ifndef GTHINKER_OBS_SPAN_TRACE_H_
#define GTHINKER_OBS_SPAN_TRACE_H_

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "obs/json.h"
#include "util/status.h"

namespace gthinker::obs {

/// Every scheduler transition the job records (paper Fig. 7 state machine),
/// in one ring (obs/flight_recorder.h). Per-task kinds come first: a healthy
/// task reads spawn -> (pending -> ready)* -> execute* -> finish, and loaded
/// marks a task re-entering memory from a spill file under a fresh span id
/// (the disk round-trip breaks the span, as the task left the worker's live
/// state). They are recorded only under JobConfig::enable_span_tracing.
/// Batch kinds are one record per spawn batch, spill file, steal shipment,
/// progress report or drain phase, and are always recorded.
enum class EventKind : uint8_t {
  kSpawn = 0,    // parent = span of the task whose Compute added it (0 =
                 // spawned by TaskSpawn or a root bundle)
  kPending = 1,
  kReady = 2,
  kExecute = 3,  // dur_us = one compute() iteration; t_us = its start
  kFinish = 4,
  kLoaded = 5,
  kSpawnBatch = 6,    // a = tasks spawned in the batch
  kSpillWrite = 7,    // a = tasks written to one spill file
  kSpillLoad = 8,     // a = tasks loaded back from one spill file
  kStealDonate = 9,   // a = tasks donated, b = destination worker
  kStealReceive = 10,  // a = tasks received, b = source worker
  kLedger = 11,       // a = ExpectedLive(), b = live tasks (progress cadence)
  kDrain = 12,        // a = phase: worker comm loop 0 saw kTerminate,
                      // 1 quiesced report sent, 2 release received, 4
                      // final report (3 is unused); 5 master silence
                      // bound tripped, b = final reports missing
  kCheckpoint = 13,   // a = checkpoint epoch
  kTimeout = 14,      // master hit the time budget; a = elapsed seconds
  kTerminate = 15,    // worker saw kTerminate
  kDetect = 16,       // master's termination detection: a = 0 a quiet
                      // snapshot formed, 1 kTerminate decided (budget
                      // exits record kTimeout instead); b = the
                      // snapshot's summed data messages sent
  kGcPass = 17,       // one T_cache GC pass (EvictUpTo): a = entries
                      // evicted, b = the excess it targeted, t_us = scan
                      // start, dur_us = scan time
};

/// True for the per-task kinds that only span tracing records.
constexpr bool IsTaskKind(EventKind kind) { return kind <= EventKind::kLoaded; }

inline const char* EventKindName(EventKind kind) {
  static constexpr const char* kNames[] = {
      "spawn",       "pending",      "ready",         "execute",
      "finish",      "loaded",       "spawn_batch",   "spill_write",
      "spill_load",  "steal_donate", "steal_receive", "ledger",
      "drain",       "checkpoint",   "timeout",       "terminate",
      "detect",      "gc_pass"};
  const size_t i = static_cast<size_t>(kind);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

/// One recorded transition. Timestamps come from the hub clock, so events
/// from different workers share an epoch and interleave correctly.
struct SpanEvent {
  int64_t t_us = 0;
  int64_t dur_us = 0;  // only kExecute and kGcPass carry a duration
  /// Task span id (0 when tracing is off, and for batch kinds).
  uint64_t id = 0;
  /// On kSpawn: span id of the task whose Compute added this one (0 = none),
  /// so a trace viewer can stitch the decomposition tree.
  uint64_t parent = 0;
  int16_t worker = -1;  // -1 for the master
  int16_t comper = -1;  // -1 for worker-level events
  EventKind kind = EventKind::kSpawn;
  int64_t a = 0;
  int64_t b = 0;
};

/// Writes one event as a JSON object: {t_us, kind, worker, comper, a, b},
/// with comper only when >= 0 and id, parent and dur_us only when non-zero.
inline void WriteEventJson(JsonWriter* w, const SpanEvent& e) {
  w->BeginObject();
  w->Key("t_us");
  w->Int(e.t_us);
  w->Key("kind");
  w->String(EventKindName(e.kind));
  w->Key("worker");
  w->Int(e.worker);
  if (e.comper >= 0) {
    w->Key("comper");
    w->Int(e.comper);
  }
  w->Key("a");
  w->Int(e.a);
  w->Key("b");
  w->Int(e.b);
  if (e.id != 0) {
    w->Key("id");
    w->UInt(e.id);
  }
  if (e.parent != 0) {
    w->Key("parent");
    w->UInt(e.parent);
  }
  if (e.dur_us != 0) {
    w->Key("dur_us");
    w->Int(e.dur_us);
  }
  w->EndObject();
}

/// Renders events as Chrome trace-event JSON ("JSON object format"),
/// loadable in Perfetto / chrome://tracing: workers map to processes,
/// compers to threads; execute and gc_pass events are complete ("X") slices
/// with real durations, every other kind an instant ("i") mark on the same
/// timeline.
/// Args carry the span ids and a batch kind's a/b. Timestamps are already
/// microseconds, the unit the format expects.
inline std::string ChromeTraceJson(const std::vector<SpanEvent>& events,
                                   int num_workers = 0) {
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit");
  w.String("ms");
  w.Key("traceEvents");
  w.BeginArray();
  for (int worker = 0; worker < num_workers; ++worker) {
    w.BeginObject();
    w.Key("name");
    w.String("process_name");
    w.Key("ph");
    w.String("M");
    w.Key("pid");
    w.Int(worker);
    w.Key("tid");
    w.Int(0);
    w.Key("args");
    w.BeginObject();
    w.Key("name");
    w.String("worker" + std::to_string(worker));
    w.EndObject();
    w.EndObject();
  }
  for (const SpanEvent& e : events) {
    const bool slice =
        e.kind == EventKind::kExecute || e.kind == EventKind::kGcPass;
    w.BeginObject();
    w.Key("name");
    w.String(EventKindName(e.kind));
    w.Key("cat");
    w.String(IsTaskKind(e.kind) ? "task" : "batch");
    w.Key("ph");
    w.String(slice ? "X" : "i");
    if (!slice) {
      w.Key("s");  // instant-event scope: thread
      w.String("t");
    }
    w.Key("ts");
    w.Int(e.t_us);
    if (slice) {
      w.Key("dur");
      w.Int(e.dur_us);
    }
    w.Key("pid");
    w.Int(e.worker);
    w.Key("tid");
    // Comper -1 (worker-level events) displays as its own lane.
    w.Int(e.comper >= 0 ? e.comper : 999);
    w.Key("args");
    w.BeginObject();
    if (e.id != 0) {
      w.Key("id");
      w.UInt(e.id);
    }
    if (e.parent != 0) {
      w.Key("parent");
      w.UInt(e.parent);
    }
    if (!IsTaskKind(e.kind)) {
      w.Key("a");
      w.Int(e.a);
      w.Key("b");
      w.Int(e.b);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

inline Status WriteChromeTrace(const std::string& path,
                               const std::vector<SpanEvent>& events,
                               int num_workers = 0) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IoError("cannot open trace file " + path);
  }
  out << ChromeTraceJson(events, num_workers);
  out.close();
  if (!out.good()) return Status::IoError("short write to " + path);
  return Status::Ok();
}

}  // namespace gthinker::obs

#endif  // GTHINKER_OBS_SPAN_TRACE_H_
