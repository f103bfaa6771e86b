#ifndef GTHINKER_CORE_CONFIG_H_
#define GTHINKER_CORE_CONFIG_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "net/message.h"
#include "obs/metrics.h"
#include "obs/phase_profile.h"
#include "obs/sampler.h"
#include "obs/span_trace.h"
#include "util/status.h"

namespace gthinker {

/// Communication knobs, grouped under JobConfig::comm (DESIGN.md "Transport
/// layer"): which Transport backend moves batches, batching/flush policy for
/// the pull path, and the backend-specific tuning.
struct CommConfig {
  enum class Transport {
    kInProc,  // CommHub's own in-memory inboxes; supports simulated latency
    kTcp,     // framed sockets, one process per rank; selected by
              // Cluster::RunDistributed (Cluster::Run is always in-process)
  };
  Transport transport = Transport::kInProc;

  /// transport=tcp: file with one "host:port" line per rank (rank = line
  /// number; '#' comments and blank lines ignored). Ignored when `hosts` is
  /// already populated.
  std::string hostfile;
  /// Parsed hostfile (or set programmatically); size must equal num_workers.
  std::vector<std::string> hosts;

  /// Simulated interconnect for transport=inproc (0/0 = instantaneous);
  /// rejected under tcp, where the wire is real.
  NetConfig net;

  /// Fills `hosts` from `hostfile` (no-op when hosts is already set).
  Status LoadHostfile() {
    if (!hosts.empty() || hostfile.empty()) return Status::Ok();
    std::ifstream in(hostfile);
    if (!in) return Status::IoError("cannot open hostfile: " + hostfile);
    std::string line;
    while (std::getline(in, line)) {
      while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
        line.pop_back();
      }
      if (line.empty() || line[0] == '#') continue;
      hosts.push_back(line);
    }
    if (hosts.empty()) {
      return Status::InvalidArgument("hostfile has no host entries: " +
                                     hostfile);
    }
    return Status::Ok();
  }
};

/// All framework knobs, with the paper's defaults (§V, §VI "System
/// Parameters"). Capacities are scaled-down consistent with the laptop-scale
/// datasets; the benches sweep them exactly like Tables V(a)/V(b).
struct JobConfig {
  // ---- cluster shape ----
  int num_workers = 1;
  int compers_per_worker = 2;

  // ---- remote-vertex cache (paper §V-A) ----
  /// c_cache: capacity of T_cache in vertex entries (paper default 2M; our
  /// graphs are ~1000x smaller, so default 100K keeps the same ratio).
  int64_t cache_capacity = 100'000;
  /// α: GC overflow tolerance; eviction starts when s_cache > (1+α)·c_cache.
  double cache_overflow_alpha = 0.2;
  /// k: number of hash buckets in T_cache (paper: 10,000).
  int cache_num_buckets = 1024;
  /// ABLATION ONLY (bench/ablation_ztable): disable the Z-table; GC then
  /// scans whole Γ-tables under the bucket lock to find evictable entries.
  bool cache_use_z_table = true;

  // ---- task management (paper §V-B) ----
  /// C: task-batch and root-bundle size; Q_task refills at <= C, to 2C.
  int task_batch_size = 150;
  /// Q_task capacity in batches (paper: 3 => 3C tasks, counted in roots).
  int task_queue_capacity_batches = 3;
  /// D: cap on |T_task| + |B_task| roots per comper (paper default 8·C).
  int inflight_task_cap = 8 * 150;

  // ---- graph layout & placement (DESIGN.md "Graph layout & placement") ----
  struct LayoutConfig {
    /// Hub-last (degree-ascending, ties by original ID ascending) vertex
    /// renumbering of an in-memory input, applied while Cluster::LoadInput
    /// installs the rows. Under the Γ_> orientation this is the classic
    /// degeneracy ordering: every task's candidate set is bounded by the
    /// core number instead of the max degree, and a hub's trimmed row keeps
    /// only its higher-degree peers, so the constantly-pulled rows are tiny
    /// and stay cache-resident. Hub rows land contiguous at the highest IDs.
    /// App results and Output records are mapped back to original IDs
    /// before they reach the caller; counts are bit-identical with the knob
    /// on or off. Off is the paper's ID-order ablation. DFS inputs ignore
    /// it: their part files carry their own IDs.
    bool reorder = true;
  };
  LayoutConfig layout;

  // ---- communication (grouped; see CommConfig above) ----
  CommConfig comm;

  // ---- scheduling / control ----
  /// Period of worker progress reports to the master (drives aggregator sync,
  /// stealing and termination detection; paper syncs aggregator at 1s).
  int64_t progress_interval_us = 2'000;
  bool enable_stealing = true;
  /// The master's silence bound, for the whole job: a worker that still owes
  /// its final report and sends nothing for this long (a dead or wedged
  /// rank) fails the job, naming it, instead of hanging or returning a
  /// partial answer. Progress reports are the heartbeat; a worker keeps
  /// sending them until the master's release, also while a comper finishes a
  /// long Compute() after kTerminate. A worker owing a checkpoint ack is
  /// exempt while its comm thread parks its compers.
  int64_t drain_timeout_us = 10'000'000;
  /// ABLATION ONLY (bench/ablation_refill): invert the refill priority to
  /// spawn-new-tasks-first instead of the paper's spilled-files-first rule,
  /// to measure how the rule bounds disk-resident tasks.
  bool refill_spawn_first = false;

  // ---- observability (docs/OBSERVABILITY.md) ----
  /// Record per-task lifecycle events (spawn/pending/ready/execute/finish/
  /// loaded with span ids) in the job's event ring, next to the always-on
  /// batch-level events; the ring then lands in JobStats::spans and exports
  /// as a Chrome trace (obs::WriteChromeTrace / trace_path).
  bool enable_span_tracing = false;
  /// When non-empty, the process hosting the master (the Cluster::Run
  /// process, or rank 0 of Cluster::RunDistributed) writes the JSON run
  /// report here; other ranks never write it.
  std::string report_path;
  /// When non-empty (and enable_span_tracing), the process hosting the
  /// master writes the Chrome trace of its local workers here.
  std::string trace_path;
  /// Live status server (obs/status_server.h): 0 = off, > 0 = bind that
  /// port on 127.0.0.1, -1 = ephemeral port (tests; discover via
  /// JobStats::status_port or obs::StatusServer::Current()). Serves
  /// /metrics (Prometheus), /status.json and /healthz for the duration of
  /// the job, from the process hosting the master (the Cluster::Run
  /// process, or rank 0 of RunDistributed). The status and the `job` metrics
  /// scope cover every worker, from their latest progress reports; the
  /// per-worker registries on /metrics are this process's own.
  int status_port = 0;
  /// Directory for flight-recorder crash dumps (the newest events of the
  /// job's event ring, obs/flight_recorder.h, written on fatal ledger
  /// violations, timeout exits and SIGTERM/SIGINT); empty = the
  /// GT_FLIGHT_DUMP_DIR environment variable, else stderr.
  std::string flight_dump_dir;

  // ---- durability ----
  /// Directory for task spill files; empty = fresh temp dir per job.
  std::string spill_root;
  /// Checkpoint period (0 = off); checkpoints go to Job::checkpoint_dfs.
  int64_t checkpoint_interval_us = 0;

  // ---- limits ----
  /// Wall-clock budget in seconds; 0 = unlimited. When exceeded the master
  /// aborts the job and JobStats::timed_out is set (the paper's ">24 hr").
  double time_budget_s = 0.0;

  /// Checks internal consistency; Cluster::Run and RunDistributed validate
  /// before starting.
  Status Validate() const {
    if (num_workers <= 0) {
      return Status::InvalidArgument("num_workers must be positive");
    }
    // Event records (obs::SpanEvent) carry worker and comper IDs as int16,
    // with -1 for master / worker-level events.
    constexpr int kMaxEventId = std::numeric_limits<int16_t>::max();
    if (num_workers > kMaxEventId) {
      return Status::InvalidArgument("num_workers exceeds 32767");
    }
    if (compers_per_worker <= 0 || compers_per_worker > kMaxEventId) {
      return Status::InvalidArgument("compers_per_worker out of [1, 32767]");
    }
    if (cache_capacity <= 0) {
      return Status::InvalidArgument("cache_capacity must be positive");
    }
    // NaN would compare false everywhere: the pop gate would never close.
    if (!std::isfinite(cache_overflow_alpha) || cache_overflow_alpha < 0.0) {
      return Status::InvalidArgument(
          "cache_overflow_alpha must be finite and >= 0");
    }
    if (cache_num_buckets <= 0) {
      return Status::InvalidArgument("cache_num_buckets must be positive");
    }
    if (task_batch_size <= 0) {
      return Status::InvalidArgument("task_batch_size must be positive");
    }
    if (task_queue_capacity_batches < 2) {
      // Spilling takes C tasks off the tail while keeping C in flight.
      return Status::InvalidArgument(
          "task_queue_capacity_batches must be >= 2");
    }
    if (inflight_task_cap < task_batch_size) {
      return Status::InvalidArgument(
          "inflight_task_cap must be >= task_batch_size");
    }
    if (comm.net.latency_us < 0 || !std::isfinite(comm.net.bandwidth_mbps) ||
        comm.net.bandwidth_mbps < 0.0) {
      return Status::InvalidArgument(
          "net parameters must be finite and non-negative");
    }
    if (comm.transport == CommConfig::Transport::kTcp) {
      if (comm.hosts.empty() && comm.hostfile.empty()) {
        return Status::InvalidArgument(
            "transport=tcp requires a hostfile (or comm.hosts)");
      }
      if (!comm.hosts.empty() &&
          static_cast<int>(comm.hosts.size()) != num_workers) {
        return Status::InvalidArgument(
            "comm.hosts size must equal num_workers");
      }
      if (comm.net.latency_us != 0 || comm.net.bandwidth_mbps != 0.0) {
        return Status::InvalidArgument(
            "simulated-latency knobs (net.*) are an in-process transport "
            "feature; the tcp wire is real");
      }
      if (checkpoint_interval_us != 0) {
        return Status::InvalidArgument(
            "checkpointing is not supported under transport=tcp (no rank "
            "can resume: RunDistributed refuses resume_epoch)");
      }
    }
    if (progress_interval_us <= 0) {
      return Status::InvalidArgument("progress_interval_us must be positive");
    }
    if (!std::isfinite(time_budget_s) || time_budget_s < 0.0 ||
        checkpoint_interval_us < 0) {
      return Status::InvalidArgument("budgets must be finite and non-negative");
    }
    if (drain_timeout_us <= progress_interval_us) {
      // Progress reports are the heartbeat the silence bound listens for.
      return Status::InvalidArgument(
          "drain_timeout_us must exceed progress_interval_us");
    }
    if (status_port < -1 || status_port > 65535) {
      return Status::InvalidArgument("status_port out of [-1, 65535]");
    }
    if (!trace_path.empty() && !enable_span_tracing) {
      return Status::InvalidArgument(
          "trace_path needs enable_span_tracing");
    }
    return Status::Ok();
  }
};

/// Outcome of one job run.
struct JobStats {
  double elapsed_s = 0.0;
  bool timed_out = false;

  // Peak tracked bytes per worker and the max over workers (the paper's
  // "peak VM memory, taking the maximum over all machines").
  std::vector<int64_t> peak_mem_bytes;
  int64_t max_peak_mem_bytes = 0;

  // Throughput counters summed over workers.
  int64_t tasks_spawned = 0;
  int64_t task_iterations = 0;
  int64_t tasks_finished = 0;
  int64_t spilled_batches = 0;
  int64_t stolen_batches = 0;
  int64_t vertex_requests = 0;
  int64_t cache_hits = 0;
  int64_t cache_evictions = 0;
  /// Comper rounds that processed no task (push and pop both empty/blocked):
  /// the direct measure of the CPU idle time the design minimizes.
  int64_t comper_idle_rounds = 0;
  /// Total comper scheduling rounds (idle + busy), for ComperUtilization().
  int64_t comper_rounds = 0;
  /// Total VertexCache lookups (hits + misses), for CacheHitRate().
  int64_t cache_requests = 0;
  /// kStealOrder batches the master issued, for StealEfficiency().
  int64_t steal_orders = 0;

  // Wire totals from the hub.
  int64_t batches_sent = 0;
  int64_t bytes_sent = 0;

  // Number of checkpoints committed.
  int64_t checkpoints = 0;

  // Task-conservation accounting, summed over workers (see TaskLedger).
  // The master verifies at termination that the ledger balances — i.e.
  //   ledger.ExpectedLive() == tasks_live_at_exit
  // and on a clean (non-timeout) run that tasks_live_at_exit == 0, so
  // spawned + restored == finished. tasks_lost records the discrepancy and
  // is always 0 when Cluster::Run returns (a leak aborts the job).
  TaskLedger ledger;
  int64_t tasks_live_at_exit = 0;
  int64_t tasks_lost = 0;
  // Messages workers serviced after kTerminate.
  int64_t drained_messages = 0;

  // Records emitted through Comper::Output.
  int64_t records_output = 0;

  // ---- observability payloads ----
  /// Per-scope metric snapshots: one per worker ("worker<i>") plus the hub
  /// ("hub"). Always populated (recording is lock-free counters).
  std::vector<obs::MetricsSnapshot> metrics;
  /// Per-worker gauge time-series (obs::kWorkerSampledGauges for every
  /// worker in the cluster), one point per progress report the master
  /// decoded, on the hub clock. Filled where the master runs only.
  std::vector<obs::TimeSeries> timeseries;
  /// This process's event ring, hub-clock-ordered: per-task spans plus the
  /// batch-level events (only when enable_span_tracing); span_events_total
  /// counts all recorded.
  std::vector<obs::SpanEvent> spans;
  int64_t span_events_total = 0;
  /// Post-run phase-attribution profile of this process's workers:
  /// per-worker / per-comper compute vs. wait decomposition plus straggler
  /// table; also serialized as the report's "phases" section.
  obs::PhaseProfile phases;
  /// Bound status-server port for this run (0 when the server was off or
  /// failed to bind); resolves the -1 ephemeral knob to the real port.
  int status_port = 0;

  // ---- derived health indicators ----
  /// Fraction of VertexCache lookups served from Γ-table, [0,1]; -1 when no
  /// lookups happened.
  double CacheHitRate() const {
    return cache_requests > 0
               ? static_cast<double>(cache_hits) / cache_requests
               : -1.0;
  }

  /// Donated task batches actually received per steal order the master
  /// issued; -1 when stealing never triggered. Below 1.0 means orders went
  /// out to workers that had nothing left to give.
  double StealEfficiency() const {
    return steal_orders > 0
               ? static_cast<double>(stolen_batches) / steal_orders
               : -1.0;
  }

  /// 1 − idle_rounds / rounds over all compers, [0,1]; -1 when no rounds
  /// were counted.
  double ComperUtilization() const {
    return comper_rounds > 0
               ? 1.0 - static_cast<double>(comper_idle_rounds) / comper_rounds
               : -1.0;
  }

  /// Human-readable one-screen digest (examples print this after a run).
  std::string Summary() const;
};

inline std::string JobStats::Summary() const {
  auto pct = [](double v) {
    if (v < 0.0) return std::string("n/a");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f%%", v * 100.0);
    return std::string(buf);
  };
  auto ratio = [](double v) {
    if (v < 0.0) return std::string("n/a");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return std::string(buf);
  };
  std::string s;
  char line[160];
  std::snprintf(line, sizeof(line), "elapsed: %.3f s%s\n", elapsed_s,
                timed_out ? " (TIMED OUT)" : "");
  s += line;
  std::snprintf(line, sizeof(line),
                "tasks: %lld spawned, %lld finished, %lld iterations\n",
                static_cast<long long>(tasks_spawned),
                static_cast<long long>(tasks_finished),
                static_cast<long long>(task_iterations));
  s += line;
  std::snprintf(line, sizeof(line),
                "cache: hit rate %s (%lld hits / %lld requests), "
                "%lld evictions\n",
                pct(CacheHitRate()).c_str(),
                static_cast<long long>(cache_hits),
                static_cast<long long>(cache_requests),
                static_cast<long long>(cache_evictions));
  s += line;
  std::snprintf(line, sizeof(line),
                "compers: utilization %s (%lld idle / %lld rounds)\n",
                pct(ComperUtilization()).c_str(),
                static_cast<long long>(comper_idle_rounds),
                static_cast<long long>(comper_rounds));
  s += line;
  std::snprintf(line, sizeof(line),
                "stealing: efficiency %s (%lld batches / %lld orders)\n",
                ratio(StealEfficiency()).c_str(),
                static_cast<long long>(stolen_batches),
                static_cast<long long>(steal_orders));
  s += line;
  std::snprintf(line, sizeof(line),
                "wire: %lld batches, %lld bytes; spills: %lld batches\n",
                static_cast<long long>(batches_sent),
                static_cast<long long>(bytes_sent),
                static_cast<long long>(spilled_batches));
  s += line;
  std::snprintf(line, sizeof(line),
                "memory: peak %lld bytes (max over workers); output: %lld "
                "records\n",
                static_cast<long long>(max_peak_mem_bytes),
                static_cast<long long>(records_output));
  s += line;
  std::snprintf(line, sizeof(line), "live at exit: %lld\n",
                static_cast<long long>(tasks_live_at_exit));
  s += line;
  if (!phases.empty()) s += phases.HumanTable();
  return s;
}

}  // namespace gthinker

#endif  // GTHINKER_CORE_CONFIG_H_
