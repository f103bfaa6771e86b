#ifndef GTHINKER_CORE_JOB_REPORT_H_
#define GTHINKER_CORE_JOB_REPORT_H_

#include <string>

#include "core/config.h"
#include "obs/report.h"
#include "obs/span_trace.h"
#include "util/status.h"

namespace gthinker {

/// Builds the framework-agnostic obs::JobReport from one run's config and
/// stats: scalar throughput/wire/config numbers at the top level, the derived
/// health ratios (cluster-wide and per worker), every per-scope metrics
/// snapshot, and the sampled time-series.
inline obs::JobReport MakeJobReport(const std::string& job_name,
                                    const JobConfig& config,
                                    const JobStats& stats) {
  obs::JobReport report;
  report.job = job_name;

  // -- config shape (the knobs that change what the numbers mean) --
  report.ints["num_workers"] = config.num_workers;
  report.ints["compers_per_worker"] = config.compers_per_worker;
  report.ints["cache_capacity"] = config.cache_capacity;
  report.ints["task_batch_size"] = config.task_batch_size;
  report.ints["net_latency_us"] = config.comm.net.latency_us;
  report.doubles["net_bandwidth_mbps"] = config.comm.net.bandwidth_mbps;

  // -- run outcome --
  report.doubles["elapsed_s"] = stats.elapsed_s;
  report.ints["timed_out"] = stats.timed_out ? 1 : 0;
  report.ints["tasks_spawned"] = stats.tasks_spawned;
  report.ints["tasks_finished"] = stats.tasks_finished;
  report.ints["task_iterations"] = stats.task_iterations;
  report.ints["spilled_batches"] = stats.spilled_batches;
  report.ints["stolen_batches"] = stats.stolen_batches;
  report.ints["steal_orders"] = stats.steal_orders;
  report.ints["vertex_requests"] = stats.vertex_requests;
  report.ints["cache_hits"] = stats.cache_hits;
  report.ints["cache_requests"] = stats.cache_requests;
  report.ints["cache_evictions"] = stats.cache_evictions;
  report.ints["comper_idle_rounds"] = stats.comper_idle_rounds;
  report.ints["comper_rounds"] = stats.comper_rounds;
  report.ints["batches_sent"] = stats.batches_sent;
  report.ints["bytes_sent"] = stats.bytes_sent;
  report.ints["checkpoints"] = stats.checkpoints;
  report.ints["records_output"] = stats.records_output;
  report.ints["max_peak_mem_bytes"] = stats.max_peak_mem_bytes;
  report.ints["drained_messages"] = stats.drained_messages;
  report.ints["span_events_total"] = stats.span_events_total;
  report.ints["splits"] = stats.splits;
  report.ints["split_children"] = stats.split_children;
  report.ints["split_depth_max"] = stats.split_depth_max;
  report.ints["tasks_live_at_exit"] = stats.tasks_live_at_exit;
  report.ints["status_port"] = stats.status_port;
  // Data batches a socket transport had to drop at teardown (sent but never
  // written to the wire before Stop()'s flush bound expired). Always 0 on a
  // clean drain; nonzero flags a run whose wire totals are untrustworthy.
  {
    int64_t abandoned = 0;
    bool present = false;
    for (const obs::MetricsSnapshot& snap : stats.metrics) {
      const int64_t v = snap.CounterValue("transport.batches_abandoned");
      if (v >= 0) {
        abandoned += v;
        present = true;
      }
    }
    if (present) report.ints["batches_abandoned"] = abandoned;
  }

  // -- derived health ratios --
  std::map<std::string, double> cluster;
  cluster["cache_hit_rate"] = stats.CacheHitRate();
  cluster["steal_efficiency"] = stats.StealEfficiency();
  cluster["comper_utilization"] = stats.ComperUtilization();
  if (stats.splits > 0) {
    // Average fan-out of a split: children produced per split decision.
    cluster["split_fanout"] = static_cast<double>(stats.split_children) /
                              static_cast<double>(stats.splits);
  }
  report.derived.emplace_back("cluster", std::move(cluster));
  // Per-worker health ratios from each worker's own registry snapshot:
  // cache hit rate, plus bucket-lock contention per cache op (how often the
  // try_lock fast path found the bucket already held).
  for (const obs::MetricsSnapshot& snap : stats.metrics) {
    const int64_t hits = snap.CounterValue("cache.hits");
    const int64_t requests = snap.CounterValue("cache.requests");
    if (hits < 0 || requests <= 0) continue;
    std::map<std::string, double> per_worker;
    per_worker["cache_hit_rate"] =
        static_cast<double>(hits) / static_cast<double>(requests);
    const int64_t contention = snap.CounterValue("cache.lock_contention");
    if (contention >= 0) {
      per_worker["cache_lock_contention_rate"] =
          static_cast<double>(contention) / static_cast<double>(requests);
    }
    report.derived.emplace_back(snap.scope, std::move(per_worker));
  }

  report.metrics = stats.metrics;
  report.series = stats.timeseries;
  report.phases = stats.phases;
  return report;
}

/// Writes the run's observability artifacts per config: the JSON report to
/// config.report_path and the Chrome trace to config.trace_path (each only
/// when the path is set and the corresponding data exists). Failures are
/// returned, not fatal — a full job result should survive a bad path.
inline Status WriteObservabilityArtifacts(const std::string& job_name,
                                          const JobConfig& config,
                                          const JobStats& stats) {
  if (!config.report_path.empty()) {
    GT_RETURN_IF_ERROR(MakeJobReport(job_name, config, stats)
                           .WriteJson(config.report_path));
  }
  if (!config.trace_path.empty() && config.enable_span_tracing) {
    GT_RETURN_IF_ERROR(obs::WriteChromeTrace(config.trace_path, stats.spans,
                                             config.num_workers));
  }
  return Status::Ok();
}

}  // namespace gthinker

#endif  // GTHINKER_CORE_JOB_REPORT_H_
