#ifndef GTHINKER_CORE_JOB_REPORT_H_
#define GTHINKER_CORE_JOB_REPORT_H_

#include <array>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/protocol.h"
#include "obs/json.h"
#include "obs/report.h"
#include "obs/sampler.h"
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

/// One report's values of obs::kWorkerSampledGauges, in that order.
inline std::array<int64_t, obs::kNumWorkerSampledGauges> SampledGauges(
    const ProgressReport& r) {
  return {r.cache_size,    r.tasks_live,  r.queue_depth,
          r.tasks_on_disk, r.inbox_depth, r.spill_queue_depth};
}

/// The `job` scope of the live /metrics endpoint: uptime plus each worker's
/// queue, cache and task depth from its latest progress report (`reports`
/// is indexed by worker ID).
inline obs::MetricsSnapshot JobScopeMetrics(
    const std::vector<ProgressReport>& reports, int64_t uptime_us) {
  obs::MetricsSnapshot job;
  job.scope = "job";
  job.gauges.emplace_back("uptime_us", uptime_us);
  for (size_t w = 0; w < reports.size(); ++w) {
    const ProgressReport& r = reports[w];
    const std::string l = "{worker=" + std::to_string(w) + "}";
    job.gauges.emplace_back("tasks_live" + l, r.tasks_live);
    job.gauges.emplace_back("queue_depth" + l, r.queue_depth);
    job.gauges.emplace_back("disk_tasks" + l, r.tasks_on_disk);
    job.gauges.emplace_back("cache_size" + l, r.cache_size);
    job.gauges.emplace_back("inbox_depth" + l, r.inbox_depth);
  }
  return job;
}

/// The live /status.json document, rendered from every worker's latest
/// progress report (`reports` is indexed by worker ID; a worker that has
/// not reported yet reads as zeros).
inline std::string StatusJson(const std::vector<ProgressReport>& reports,
                              double uptime_s, const std::string& transport,
                              int64_t steal_orders) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("job");
  w.String("gthinker");
  w.Key("uptime_s");
  w.Double(uptime_s);
  w.Key("num_workers");
  w.Int(static_cast<int64_t>(reports.size()));
  w.Key("transport");
  w.String(transport);
  ProgressReport sum;  // the cluster-wide totals
  w.Key("workers");
  w.BeginArray();
  for (size_t i = 0; i < reports.size(); ++i) {
    const ProgressReport& r = reports[i];
    sum.tasks_live += r.tasks_live;
    sum.queue_depth += r.queue_depth;
    sum.tasks_on_disk += r.tasks_on_disk;
    sum.cache_size += r.cache_size;
    sum.cache_hits += r.cache_hits;
    sum.cache_requests += r.cache_requests;
    sum.ledger.spawned += r.ledger.spawned;
    sum.ledger.finished += r.ledger.finished;
    sum.spilled_batches += r.spilled_batches;
    sum.stolen_batches += r.stolen_batches;
    w.BeginObject();
    w.Key("worker");
    w.Int(static_cast<int64_t>(i));
    w.Key("tasks_live");
    w.Int(r.tasks_live);
    w.Key("queue_depth");
    w.Int(r.queue_depth);
    w.Key("disk_tasks");
    w.Int(r.tasks_on_disk);
    w.Key("spill_queue_depth");
    w.Int(r.spill_queue_depth);
    w.Key("cache_size");
    w.Int(r.cache_size);
    w.Key("inbox_depth");
    w.Int(r.inbox_depth);
    w.Key("peak_mem_bytes");
    w.Int(r.peak_mem_bytes);
    w.Key("comper_utilization");
    w.Double(r.comper_rounds > 0
                 ? 1.0 - static_cast<double>(r.comper_idle_rounds) /
                             static_cast<double>(r.comper_rounds)
                 : 0.0);
    w.EndObject();
  }
  w.EndArray();
  w.Key("tasks");
  w.BeginObject();
  w.Key("live");
  w.Int(sum.tasks_live);
  w.Key("pending");
  w.Int(sum.queue_depth);
  w.Key("spilled");
  w.Int(sum.tasks_on_disk);
  w.EndObject();
  w.Key("cache");
  w.BeginObject();
  w.Key("entries");
  w.Int(sum.cache_size);
  w.Key("hit_rate");
  w.Double(sum.cache_requests > 0
               ? static_cast<double>(sum.cache_hits) /
                     static_cast<double>(sum.cache_requests)
               : 0.0);
  w.EndObject();
  w.Key("activity");
  w.BeginObject();
  w.Key("tasks_spawned");
  w.Int(sum.ledger.spawned);
  w.Key("tasks_finished");
  w.Int(sum.ledger.finished);
  w.Key("spilled_batches");
  w.Int(sum.spilled_batches);
  w.Key("stolen_batches");
  w.Int(sum.stolen_batches);
  w.Key("steal_orders");
  w.Int(steal_orders);
  w.EndObject();
  w.EndObject();
  return w.Take();
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
