#ifndef GTHINKER_OBS_FLIGHT_RECORDER_H_
#define GTHINKER_OBS_FLIGHT_RECORDER_H_

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/sharded_ring.h"
#include "util/logging.h"

namespace gthinker::obs {

/// Kinds of scheduler/state-machine transitions the flight recorder keeps.
/// Events are batch-granularity on purpose: one record per spawn batch,
/// spill file, steal shipment, split, progress report or drain phase keeps
/// the always-on overhead negligible while still reconstructing the last
/// seconds before a crash.
enum class FlightKind : uint8_t {
  kSpawnBatch = 0,    // a = tasks spawned in the batch
  kSplit = 1,         // a = children produced, b = child split depth
  kSpillWrite = 2,    // a = tasks written to one spill file
  kSpillLoad = 3,     // a = tasks loaded back from one spill file
  kStealDonate = 4,   // a = tasks donated, b = destination worker
  kStealReceive = 5,  // a = tasks received, b = source worker
  kLedger = 6,        // a = ExpectedLive(), b = live tasks (progress cadence)
  kDrain = 7,         // a = drain phase: 0-4 worker DrainAndReport; 5 master
                      // drain stalled, b = final reports missing
  kCheckpoint = 8,    // a = checkpoint epoch
  kTimeout = 9,       // master hit the time budget; a = elapsed seconds
  kTerminate = 10,    // worker saw kTerminate
};

inline const char* FlightKindName(FlightKind kind) {
  switch (kind) {
    case FlightKind::kSpawnBatch:
      return "spawn_batch";
    case FlightKind::kSplit:
      return "split";
    case FlightKind::kSpillWrite:
      return "spill_write";
    case FlightKind::kSpillLoad:
      return "spill_load";
    case FlightKind::kStealDonate:
      return "steal_donate";
    case FlightKind::kStealReceive:
      return "steal_receive";
    case FlightKind::kLedger:
      return "ledger";
    case FlightKind::kDrain:
      return "drain";
    case FlightKind::kCheckpoint:
      return "checkpoint";
    case FlightKind::kTimeout:
      return "timeout";
    case FlightKind::kTerminate:
      return "terminate";
  }
  return "unknown";
}

/// One recorded transition. Timestamps use the hub clock when the caller has
/// one (workers do), so flight events line up with span traces; otherwise a
/// process-steady fallback clock.
struct FlightEvent {
  int64_t t_us = 0;
  int32_t worker = -1;
  int32_t comper = -1;
  FlightKind kind = FlightKind::kSpawnBatch;
  int64_t a = 0;
  int64_t b = 0;
};

/// Fallback event clock: microseconds since the first call in this process.
inline int64_t FlightNowUs() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

/// Always-on bounded ring of recent scheduler transitions, one per job,
/// dumped to JSON when something goes fatally wrong (ledger violation,
/// timeout exit, SIGTERM/SIGINT). Construction registers the recorder in a
/// process-global registry so the crash paths — which cannot reach the job's
/// stack — can find every live job's recorder; destruction unregisters.
///
/// Recording cost is one relaxed fetch_add plus a sharded spinlock push
/// (see ShardedRing); events are batch-granularity, so a healthy run records
/// a few hundred events per second per worker at most.
class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity)
      : enabled_(capacity > 0), ring_(capacity == 0 ? 1 : capacity) {
    if (enabled_) Register(this);
  }

  ~FlightRecorder() {
    if (enabled_) Unregister(this);
  }

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const { return enabled_; }

  void Record(FlightKind kind, int worker, int comper, int64_t a = 0,
              int64_t b = 0, int64_t t_us = -1) {
    if (!enabled_) return;
    FlightEvent e;
    e.t_us = t_us >= 0 ? t_us : FlightNowUs();
    e.worker = worker;
    e.comper = comper;
    e.kind = kind;
    e.a = a;
    e.b = b;
    ring_.Record(e);
  }

  /// Total events ever recorded (including overwritten ones).
  int64_t total() const { return ring_.total(); }

  /// Retained events, oldest first.
  std::vector<FlightEvent> Snapshot() const { return ring_.Snapshot(); }

  /// Writes this recorder's state as one JSON object value.
  void WriteJson(JsonWriter* w) const {
    const std::vector<FlightEvent> events = ring_.Snapshot();
    w->BeginObject();
    w->Key("recorded_total");
    w->Int(ring_.total());
    w->Key("retained");
    w->Int(static_cast<int64_t>(events.size()));
    w->Key("events");
    w->BeginArray();
    for (const FlightEvent& e : events) {
      w->BeginObject();
      w->Key("t_us");
      w->Int(e.t_us);
      w->Key("kind");
      w->String(FlightKindName(e.kind));
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
      w->EndObject();
    }
    w->EndArray();
    w->EndObject();
  }

  std::string DumpJson() const {
    JsonWriter w;
    WriteJson(&w);
    return w.Take();
  }

  /// Overrides the dump directory (normally from JobConfig). Empty means
  /// "use the GT_FLIGHT_DUMP_DIR environment variable, else stderr".
  static void SetDumpDir(const std::string& dir) {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    DumpDir() = dir;
  }

  /// All live recorders as one JSON document.
  static std::string DumpAllJson(const char* reason) {
    JsonWriter w;
    w.BeginObject();
    w.Key("reason");
    w.String(reason == nullptr ? "" : reason);
    w.Key("pid");
    w.Int(static_cast<int64_t>(::getpid()));
    w.Key("recorders");
    w.BeginArray();
    {
      std::lock_guard<std::mutex> lock(RegistryMutex());
      for (const FlightRecorder* rec : Registry()) rec->WriteJson(&w);
    }
    w.EndArray();
    w.EndObject();
    return w.Take();
  }

  /// Dumps every live recorder: to `<dump dir>/gt_flight_<pid>_<n>.json`
  /// when a directory is configured (knob or GT_FLIGHT_DUMP_DIR), else to
  /// stderr. Returns true when a file was written. Deliberately avoids the
  /// logging layer — this runs inside the fatal path.
  static bool WriteCrashDump(const char* reason) {
    const std::string body = DumpAllJson(reason);
    std::string dir;
    {
      std::lock_guard<std::mutex> lock(RegistryMutex());
      dir = DumpDir();
    }
    if (dir.empty()) {
      const char* env = std::getenv("GT_FLIGHT_DUMP_DIR");
      if (env != nullptr) dir = env;
    }
    if (dir.empty()) {
      std::fprintf(stderr, "[flight-recorder] %s\n", body.c_str());
      std::fflush(stderr);
      return false;
    }
    static std::atomic<int> dump_seq{0};
    const std::string path =
        dir + "/gt_flight_" + std::to_string(::getpid()) + "_" +
        std::to_string(dump_seq.fetch_add(1, std::memory_order_relaxed)) +
        ".json";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      std::fprintf(stderr, "[flight-recorder] cannot open %s; dump follows\n%s\n",
                   path.c_str(), body.c_str());
      std::fflush(stderr);
      return false;
    }
    out << body;
    out.close();
    std::fprintf(stderr, "[flight-recorder] wrote crash dump %s (reason: %s)\n",
                 path.c_str(), reason == nullptr ? "" : reason);
    std::fflush(stderr);
    return true;
  }

  /// Installs the fatal-log hook (GT_CHECK / LOG_FATAL) and SIGTERM/SIGINT
  /// handlers that dump all live recorders before the process dies. The
  /// signal path re-raises with the default disposition after dumping, so
  /// exit codes are unchanged. Idempotent; called by the Cluster job driver
  /// (Run and RunDistributed) when the recorder is enabled. (The handlers allocate and lock — not strictly
  /// async-signal-safe, a documented best-effort trade for a dependency-free
  /// dump on the way out.)
  static void InstallCrashHandlers() {
    static std::once_flag once;
    std::call_once(once, [] {
      SetFatalHook([](const char* message) { WriteCrashDump(message); });
      std::signal(SIGTERM, &FlightRecorder::HandleSignal);
      std::signal(SIGINT, &FlightRecorder::HandleSignal);
    });
  }

  static void Register(FlightRecorder* rec) {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    Registry().push_back(rec);
  }

  static void Unregister(FlightRecorder* rec) {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    std::vector<FlightRecorder*>& regs = Registry();
    for (size_t i = 0; i < regs.size(); ++i) {
      if (regs[i] == rec) {
        regs.erase(regs.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
  }

 private:
  static void HandleSignal(int sig) {
    WriteCrashDump(sig == SIGTERM ? "SIGTERM" : "SIGINT");
    std::signal(sig, SIG_DFL);
    std::raise(sig);
  }

  static std::mutex& RegistryMutex() {
    static std::mutex mutex;
    return mutex;
  }

  static std::vector<FlightRecorder*>& Registry() {
    static std::vector<FlightRecorder*> registry;
    return registry;
  }

  static std::string& DumpDir() {
    static std::string dir;
    return dir;
  }

  const bool enabled_;
  ShardedRing<FlightEvent> ring_;
};

}  // namespace gthinker::obs

#endif  // GTHINKER_OBS_FLIGHT_RECORDER_H_
