#ifndef GTHINKER_OBS_FLIGHT_RECORDER_H_
#define GTHINKER_OBS_FLIGHT_RECORDER_H_

#include <unistd.h>

#include <atomic>
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
#include "obs/span_trace.h"
#include "util/logging.h"

namespace gthinker::obs {

/// Ring capacity: the batch-level history every job keeps, plus the
/// per-task spans of each local worker when span tracing is on.
inline constexpr size_t kFlightEvents = 4096;
inline constexpr size_t kTraceEventsPerWorker = size_t{1} << 16;

/// The job's one event ring: every scheduler transition its workers and
/// master record (obs/span_trace.h). Always on; JobStats::spans is a
/// snapshot of it when span tracing is on, and its newest kFlightEvents are
/// dumped to JSON when something goes fatally wrong (ledger violation,
/// timeout exit, SIGTERM/SIGINT). Construction registers the recorder in a
/// process-global registry so the crash paths — which cannot reach the job's
/// stack — can find every live job's recorder; destruction unregisters.
///
/// Recording cost is one relaxed fetch_add plus a sharded spinlock push
/// (see ShardedRing); without tracing, events are batch-granularity (spawn
/// batches, spill files, progress reports, GC passes), so a healthy run
/// records a few thousand events per second per worker at most.
class FlightRecorder {
 public:
  /// 64 shards: one ring takes the recording threads of every local worker,
  /// which per-worker rings of 16 shards each used to spread out.
  explicit FlightRecorder(size_t capacity) : ring_(capacity, /*shards=*/64) {
    Register(this);
  }

  ~FlightRecorder() { Unregister(this); }

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void Record(const SpanEvent& e) { ring_.Record(e); }

  /// Total events ever recorded (including overwritten ones).
  int64_t total() const { return ring_.total(); }

  /// Retained events, oldest first.
  std::vector<SpanEvent> Snapshot() const { return ring_.Snapshot(); }

  /// Writes the newest kFlightEvents events as one JSON object value.
  void WriteJson(JsonWriter* w) const {
    std::vector<SpanEvent> events = ring_.Snapshot();
    if (events.size() > kFlightEvents) {
      events.erase(events.begin(),
                   events.end() - static_cast<ptrdiff_t>(kFlightEvents));
    }
    w->BeginObject();
    w->Key("recorded_total");
    w->Int(ring_.total());
    w->Key("retained");
    w->Int(static_cast<int64_t>(events.size()));
    w->Key("events");
    w->BeginArray();
    for (const SpanEvent& e : events) WriteEventJson(w, e);
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
  /// (Run and RunDistributed). (The handlers allocate and lock — not strictly
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

  ShardedRing<SpanEvent> ring_;
};

}  // namespace gthinker::obs

#endif  // GTHINKER_OBS_FLIGHT_RECORDER_H_
