#ifndef GTHINKER_CORE_CLUSTER_H_
#define GTHINKER_CORE_CLUSTER_H_

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/job_report.h"
#include "core/master.h"
#include "core/protocol.h"
#include "core/worker.h"
#include "graph/graph.h"
#include "graph/layout.h"
#include "graph/loader.h"
#include "net/comm_hub.h"
#include "net/transport_tcp.h"
#include "obs/flight_recorder.h"
#include "obs/phase_profile.h"
#include "obs/status_server.h"
#include "storage/mini_dfs.h"
#include "util/logging.h"
#include "util/timer.h"

namespace gthinker {

/// The list VertexLayout::ScatterRows fills with a vertex's sorted
/// neighbors, in the IDs the job speaks. Overloads cover the shipped value
/// types; an app with a custom value adds this and FinishVertexValue.
inline AdjList* ScatterTarget(AdjList* value) { return value; }
inline std::vector<LabeledNbr>* ScatterTarget(LabeledAdj* value) {
  return &value->adj;
}

/// Completes vertex `v`'s value once its row is scattered: `labels` is
/// indexed by the caller's IDs, reached through `layout`.
inline void FinishVertexValue(VertexId, const std::vector<Label>*,
                              const VertexLayout&, AdjList*) {}
inline void FinishVertexValue(VertexId v, const std::vector<Label>* labels,
                              const VertexLayout& layout, LabeledAdj* out) {
  GT_CHECK(labels != nullptr) << "LabeledAdj vertices need Job::labels";
  out->label = (*labels)[layout.ToOld(v)];
  for (LabeledNbr& u : out->adj) u.label = (*labels)[layout.ToOld(u.id)];
}

/// A job description: configuration, the app (comper factory + optional
/// trimmer), and the input graph — either in memory or as adjacency-format
/// part files on a MiniDfs.
template <typename ComperT>
struct Job {
  using WorkerT = Worker<ComperT>;

  JobConfig config;
  typename WorkerT::ComperFactory comper_factory;
  typename WorkerT::TrimmerFn trimmer;  // optional

  // -- input: exactly one of --
  const Graph* graph = nullptr;
  const std::vector<Label>* labels = nullptr;  // with graph, for LabeledAdj
  MiniDfs* dfs = nullptr;          // with dfs_graph_dir
  std::string dfs_graph_dir;

  // -- fault tolerance --
  MiniDfs* checkpoint_dfs = nullptr;  // required when checkpointing/resuming
  int64_t resume_epoch = -1;          // >=0: restore this checkpoint first

  // -- output --
  /// Enables Comper::Output; every worker writes record-batch files here.
  /// Read them back with ReadOutputRecords().
  std::string output_dir;
};

/// Loads every record batch a job wrote under `dir` (any worker, any order).
inline Status ReadOutputRecords(const std::string& dir,
                                std::vector<std::string>* records) {
  records->clear();
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return Status::Ok();
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    std::vector<std::string> batch;
    GT_RETURN_IF_ERROR(SpillFile::ReadBatch(entry.path().string(), &batch));
    for (std::string& r : batch) records->push_back(std::move(r));
  }
  if (ec) return Status::IoError("list " + dir + ": " + ec.message());
  return Status::Ok();
}

/// Result of a run: stats plus the final global aggregate.
template <typename ComperT>
struct RunResult {
  JobStats stats;
  typename ComperT::AggT result;
};

/// Maps an app aggregate back to original vertex IDs after a hub-last
/// layout renumbering (JobConfig::layout.reorder). The generic overload is
/// a no-op: counts (triangles, k-cliques, maximal cliques, matches) are
/// invariant under any vertex relabeling. Vertex-set aggregates — the
/// maximum-clique and quasi-clique member lists — get each ID translated
/// through the old<->new map and are re-sorted, so callers always see
/// original input IDs regardless of the knob.
template <typename T>
inline void MapResultToOriginalIds(T* /*result*/, const VertexLayout&) {}
inline void MapResultToOriginalIds(std::vector<VertexId>* result,
                                   const VertexLayout& layout) {
  for (VertexId& v : *result) v = layout.ToOld(v);
  std::sort(result->begin(), result->end());
}

/// The job driver. Owns the hub and the local workers and takes a job
/// through its phases: set-up, load, start, mining (in the master's
/// process, Master::Run on this thread; core/master.h), join, roll-up and
/// teardown. Run and RunDistributed share one driver; they differ only in
/// the transport under the hub and in which workers live in this process.
template <typename ComperT>
class Cluster {
 public:
  using WorkerT = Worker<ComperT>;
  using TaskT = typename ComperT::TaskT;
  using AggT = typename ComperT::AggT;
  using VertexT = typename TaskT::VertexT;

  /// In-process execution: every worker and the master run as threads of
  /// this process over the in-process transport. A transport=tcp job is
  /// fatal here: it runs one rank per process through RunDistributed.
  static RunResult<ComperT> Run(const Job<ComperT>& job) {
    GT_CHECK(job.config.comm.transport == CommConfig::Transport::kInProc)
        << "Cluster::Run is in-process only; a transport=tcp job runs "
           "through Cluster::RunDistributed, one process per rank";
    return Drive(job, /*rank=*/-1);
  }

  /// One-rank-per-process execution over the TCP transport (paper §V-A run
  /// on real processes instead of threads). Every process calls this with
  /// the same Job — graph included; each rank keeps only its hash-owned
  /// slice — and its own `rank` in [0, num_workers). Rank 0 additionally
  /// hosts the master. The aggregate and the cluster-wide counters are
  /// authoritative on rank 0 only (final drained deltas only ever reach the
  /// master); other ranks return ComperT::AggZero() plus their own worker's
  /// metrics, spans and phase profile, and no time-series.
  static RunResult<ComperT> RunDistributed(Job<ComperT> job, int rank) {
    job.config.comm.transport = CommConfig::Transport::kTcp;
    GT_CHECK_OK(job.config.comm.LoadHostfile());
    GT_CHECK(rank >= 0 && rank < job.config.num_workers)
        << "rank " << rank << " outside [0, " << job.config.num_workers << ")";
    GT_CHECK(job.resume_epoch < 0)
        << "checkpoint restore is in-process only (see JobConfig::Validate)";
    return Drive(std::move(job), rank);
  }

 private:
  /// The driver behind Run (`rank` < 0: all workers plus the master here,
  /// in-process transport) and RunDistributed (this process is TCP rank
  /// `rank`: worker `rank`, plus the master on rank 0).
  static RunResult<ComperT> Drive(Job<ComperT> job, int rank) {
    GT_CHECK_OK(job.config.Validate());
    GT_CHECK(job.comper_factory != nullptr);
    GT_CHECK(job.graph != nullptr || job.dfs != nullptr)
        << "job needs an input graph";
    if (job.config.checkpoint_interval_us > 0 || job.resume_epoch >= 0) {
      GT_CHECK(job.checkpoint_dfs != nullptr);
    }

    // Load-time layout (JobConfig::layout): LoadInput installs an in-memory
    // input through this map, hub-last when layout.reorder is on and the
    // identity (the paper's ID order) when it is off; no second graph is
    // built. Everything downstream — OwnerOf placement, T_cache routing, the
    // wire — speaks the new IDs; the map translates Output records
    // (Comper::OriginalId) and the final aggregate back. HubLast is
    // graph-determined, so every TCP rank derives the same map from the
    // shared input. DFS inputs keep the IDs in their part files.
    const bool hub_last = HubLastIds(job);
    VertexLayout layout;
    if (job.graph != nullptr) {
      layout = hub_last ? VertexLayout::HubLast(*job.graph)
                        : VertexLayout::Identity(job.graph->NumVertices());
    }
    const JobConfig& config = job.config;

    // A worker's spill directory is created by the first batch its L_file
    // writes to disk (SpillList), so a job that never spills makes none.
    std::string spill_root = config.spill_root;
    const bool own_spill_root = spill_root.empty();
    if (own_spill_root) spill_root = TempDirPath("spill");

    const int num_workers = config.num_workers;
    // This process hosts workers [first_local, first_local + num_local).
    const int first_local = rank < 0 ? 0 : rank;
    const int num_local = rank < 0 ? num_workers : 1;
    const bool hosts_master = rank <= 0;

    std::unique_ptr<CommHub> hub_owner;
    if (rank < 0) {
      hub_owner = std::make_unique<CommHub>(num_workers + 1, config.comm.net);
    } else {
      net::TcpTransportOptions topts;
      topts.rank = rank;
      topts.num_workers = num_workers;
      topts.hosts = config.comm.hosts;
      hub_owner = std::make_unique<CommHub>(
          num_workers + 1,
          std::make_unique<net::TcpTransport>(std::move(topts)));
    }
    CommHub& hub = *hub_owner;
    GT_CHECK_OK(hub.Start());

    // The job's one event ring: declared before the workers so it outlives
    // every thread recording into it; its tail is dumped on a fatal check,
    // SIGTERM/SIGINT, or a time-budget exit. Span tracing adds room for
    // every local worker's per-task events.
    obs::FlightRecorder::SetDumpDir(config.flight_dump_dir);
    obs::FlightRecorder::InstallCrashHandlers();
    obs::FlightRecorder recorder(
        obs::kFlightEvents +
        (config.enable_span_tracing
             ? obs::kTraceEventsPerWorker * static_cast<size_t>(num_local)
             : 0));

    if (!job.output_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(job.output_dir, ec);
      GT_CHECK(!ec);
    }
    std::vector<std::unique_ptr<WorkerT>> workers;
    workers.reserve(num_local);
    for (int w = first_local; w < first_local + num_local; ++w) {
      const std::string spill_dir = spill_root + "/w" + std::to_string(w);
      workers.push_back(std::make_unique<WorkerT>(
          w, config, &hub, job.comper_factory, job.trimmer, spill_dir));
      workers.back()->SetRecorder(&recorder);
      workers.back()->SetCheckpointDfs(job.checkpoint_dfs);  // may be null
      workers.back()->SetOutputDir(job.output_dir);  // empty = no output
      if (hub_last) workers.back()->SetLayout(&layout);
    }

    LoadInput(job, layout, first_local, &workers);

    AggT global = ComperT::AggZero();
    uint64_t next_ckpt_epoch = 1;
    if (job.resume_epoch >= 0) {
      global = Restore(job, &workers);
      next_ckpt_epoch = static_cast<uint64_t>(job.resume_epoch) + 1;
    }

    for (auto& worker : workers) worker->Start();

    RunResult<ComperT> out;
    JobStats& stats = out.stats;
    Timer wall;

    // The master runs on this thread in the process that hosts it; its
    // budget and silence clocks start with `wall`.
    std::optional<Master<ComperT>> master;
    if (hosts_master) {
      master.emplace(config, &hub, &recorder, job.checkpoint_dfs, hub_last,
                     std::move(global), next_ckpt_epoch);
    }

    // Live status endpoint (knob `status_port`; 0 = off, -1 = ephemeral),
    // served by the master's process: the status document and the `job`
    // metrics scope cover every worker from its latest reports, the
    // registries are this process's. Stopped before the workers are freed.
    obs::StatusServer status_server(
        [&] {
          std::vector<obs::MetricsSnapshot> snaps;
          snaps.reserve(workers.size() + 2);
          for (auto& worker : workers) {
            snaps.push_back(worker->MetricsSnapshot());
          }
          snaps.push_back(hub.MetricsSnapshot());
          snaps.push_back(
              JobScopeMetrics(master->LatestCopy(), wall.ElapsedMicros()));
          return snaps;
        },
        [&] {
          return StatusJson(master->LatestCopy(), wall.ElapsedSeconds(),
                            hub.TransportName(),
                            hub.SentCount(MsgType::kStealOrder));
        });
    if (hosts_master && config.status_port != 0) {
      const Status bound = status_server.Start(config.status_port);
      if (bound.ok()) {
        stats.status_port = status_server.port();
        LOG_INFO << "status server listening on 127.0.0.1:"
                 << stats.status_port;
      } else {
        // A busy port must not kill the job; it just runs unobserved.
        LOG_ERROR << "status server: " << bound.ToString();
      }
    }

    if (master) master->Run();
    // Off the master, the workers follow the master's broadcasts; their
    // comm threads exit once the master's release proved the wire empty.
    for (auto& worker : workers) worker->Join();

    stats.elapsed_s = wall.ElapsedSeconds();
    if (master) {
      stats.timed_out = master->timed_out();
      stats.checkpoints = master->checkpoints();
      for (obs::BoundedSeries& s : master->series()) {
        stats.timeseries.push_back(s.Take());
      }
      global = master->TakeGlobal();
      int64_t data_sent = 0, data_processed = 0;
      for (const ProgressReport& r : master->LatestCopy()) {
        stats.tasks_spawned += r.ledger.spawned;
        stats.task_iterations += r.task_iterations;
        stats.tasks_finished += r.ledger.finished;
        stats.spilled_batches += r.spilled_batches;
        stats.stolen_batches += r.stolen_batches;
        stats.vertex_requests += r.vertex_requests;
        stats.cache_hits += r.cache_hits;
        stats.cache_requests += r.cache_requests;
        stats.cache_evictions += r.cache_evictions;
        stats.comper_idle_rounds += r.comper_idle_rounds;
        stats.comper_rounds += r.comper_rounds;
        stats.ledger.Accumulate(r.ledger);
        stats.tasks_live_at_exit += r.tasks_live;
        stats.drained_messages += r.drained_messages;
        data_sent += r.data_sent;
        data_processed += r.data_processed;
        // The final report is a worker's last act, after its last
        // allocation, so its peak is the worker's whole-job peak.
        stats.peak_mem_bytes.push_back(r.peak_mem_bytes);
        stats.max_peak_mem_bytes =
            std::max(stats.max_peak_mem_bytes, r.peak_mem_bytes);
      }
      // Every run, timed out or not, ends with an empty wire: the release
      // went out only once no data batch was on any link, so the final
      // reports account for every one sent.
      GT_CHECK_EQ(data_sent, data_processed)
          << "the drain left data batches on the wire";

      // Task-conservation verdict. The final reports follow every worker's
      // quiesce and drain, so the summed ledger must account for every task
      // ever created (under tcp: no batch lost or duplicated on a socket).
      // Any residue aborts the job rather than return a partial answer.
      stats.tasks_lost = stats.ledger.ExpectedLive() - stats.tasks_live_at_exit;
      GT_CHECK_EQ(stats.tasks_lost, 0)
          << "task-conservation violation: spawned=" << stats.ledger.spawned
          << " restored=" << stats.ledger.restored
          << " received=" << stats.ledger.received
          << " finished=" << stats.ledger.finished
          << " donated=" << stats.ledger.donated
          << " live_at_exit=" << stats.tasks_live_at_exit;
    }

    // Clean completion also means no live task is left behind (counted on
    // the master).
    if (!stats.timed_out) {
      GT_CHECK_EQ(stats.tasks_live_at_exit, 0)
          << "clean termination left live tasks behind";
    }
    stats.batches_sent = hub.TotalBatchesSent();
    stats.bytes_sent = hub.TotalBytesSent();
    stats.steal_orders = hub.SentCount(MsgType::kStealOrder);

    // Per-scope metric snapshots: every local worker's registry (with the
    // cache / spill roll-ups folded in) plus the hub's wire view. The
    // transport stops first, so the check below sees its teardown
    // accounting (transport.batches_abandoned).
    for (auto& worker : workers) worker->FinalizeObs();
    // Under tcp, Shutdown is the one wait for this rank's final report.
    hub.Shutdown();
    const obs::MetricsSnapshot wire = hub.MetricsSnapshot();
    // On every rank: nothing arrived after the release, and no batch was
    // dropped at Stop (-1: the in-process transport abandons nothing and
    // has no counter).
    for (int e = 0; e <= num_workers; ++e) {
      GT_CHECK_EQ(hub.InboxDepth(e), 0)
          << "endpoint " << e << " holds a batch after the drain";
    }
    GT_CHECK_LE(wire.CounterValue("transport.batches_abandoned"), 0)
        << "teardown abandoned batches the drain should have delivered";
    for (auto& worker : workers) {
      stats.metrics.push_back(worker->MetricsSnapshot());
      // A rank without the master has only its own workers' peaks.
      if (!master) {
        stats.peak_mem_bytes.push_back(worker->PeakMemBytes());
        stats.max_peak_mem_bytes =
            std::max(stats.max_peak_mem_bytes, worker->PeakMemBytes());
      }
      stats.records_output += worker->RecordsOutput();
    }
    stats.metrics.push_back(wire);

    if (config.enable_span_tracing) {
      stats.span_events_total = recorder.total();
      stats.spans = recorder.Snapshot();
      // Hub-clock timestamps share one epoch across the process's workers,
      // so a sort by time gives true ordering (execute slices are stamped
      // at their start, after events recorded later).
      std::sort(stats.spans.begin(), stats.spans.end(),
                [](const obs::SpanEvent& a, const obs::SpanEvent& b) {
                  return a.t_us < b.t_us;
                });
    }

    // Phase-attribution profile: where every comper's wall time went, from
    // the disjoint loop timers, plus the straggler table mined from execute
    // spans (empty unless span tracing was on).
    stats.phases = obs::BuildPhaseProfile(stats.metrics, stats.spans);

    status_server.Stop();
    workers.clear();
    if (own_spill_root) RemoveTree(spill_root);

    // Only the process hosting the master writes the artifacts, so two tcp
    // ranks never write the same file.
    if (hosts_master) {
      const Status artifacts =
          WriteObservabilityArtifacts("gthinker", config, stats);
      if (!artifacts.ok()) {
        LOG_ERROR << "observability artifacts: " << artifacts.ToString();
      }
    }

    if (hub_last) MapResultToOriginalIds(&global, layout);
    out.result = std::move(global);
    return out;
  }

  /// True when the workers speak hub-last IDs: layout.reorder applies to
  /// in-memory inputs only (DFS part files carry whatever IDs they were
  /// written with; see the layout overload of WritePartitionedAdjacency).
  static bool HubLastIds(const Job<ComperT>& job) {
    return job.config.layout.reorder && job.graph != nullptr;
  }

  /// Installs every vertex whose hash owner is a local worker; `workers`
  /// holds worker IDs [first_local, first_local + workers->size()). A TCP
  /// rank walks the same shared input but materializes only its own slice,
  /// so per-rank memory stays O(|V|/p) for the vertex table (the read-only
  /// input graph itself is shared copy-on-write when the launcher forks).
  /// An in-memory input is relabeled through `layout` on the way in.
  static void LoadInput(const Job<ComperT>& job, const VertexLayout& layout,
                        int first_local,
                        std::vector<std::unique_ptr<WorkerT>>* workers) {
    const int num_workers = job.config.num_workers;
    const int num_local = static_cast<int>(workers->size());
    auto local_owner = [&](VertexId v) -> WorkerT* {
      const int i = OwnerOf(v, num_workers) - first_local;
      return i >= 0 && i < num_local ? (*workers)[i].get() : nullptr;
    };
    if (job.graph != nullptr) {
      // One scatter pass fills the sorted row of every local vertex (new
      // IDs) in its slot.
      const Graph& g = *job.graph;
      const VertexId n = g.NumVertices();
      for (auto& worker : *workers) worker->SizeLocalTable(n);
      layout.ScatterRows(g, [&](VertexId x) {
        WorkerT* owner = local_owner(x);
        return owner != nullptr ? ScatterTarget(&owner->LocalVertex(x).value)
                                : nullptr;
      });
      for (VertexId x = 0; x < n; ++x) {
        if (WorkerT* owner = local_owner(x)) {
          FinishVertexValue(x, job.labels, layout,
                            &owner->LocalVertex(x).value);
        }
      }
    } else if constexpr (std::is_same_v<decltype(VertexT::value), AdjList>) {
      // Adjacency-format part files on the DFS; the driver keeps the lines
      // its local workers own (the shuffle a real HDFS load performs).
      std::vector<std::string> keys;
      GT_CHECK_OK(job.dfs->List(job.dfs_graph_dir, &keys));
      GT_CHECK(!keys.empty()) << "no part files under " << job.dfs_graph_dir;
      std::vector<VertexT> local_rows;
      std::vector<VertexId> ids;  // every line's, local or not
      VertexId max_named = 0;     // the largest ID any line names
      for (const std::string& key : keys) {
        std::string blob;
        GT_CHECK_OK(job.dfs->Get(key, &blob));
        std::istringstream in(blob);
        std::string line;
        while (std::getline(in, line)) {
          if (line.empty()) continue;
          VertexT vertex;
          GT_CHECK_OK(
              GraphIo::ParseAdjacencyLine(line, &vertex.id, &vertex.value));
          ids.push_back(vertex.id);
          max_named = std::max(max_named, vertex.id);
          for (VertexId u : vertex.value) max_named = std::max(max_named, u);
          if (local_owner(vertex.id)) local_rows.push_back(std::move(vertex));
        }
      }
      // A comper pulls a neighbor by its slot, so the tables are sized only
      // once the lines pass the adjacency-input rule.
      const Status ids_ok = GraphIo::CheckVertexIds(ids, max_named);
      GT_CHECK(ids_ok.ok()) << job.dfs_graph_dir << ": " << ids_ok.ToString();
      for (auto& worker : *workers) worker->SizeLocalTable(ids.size());
      for (VertexT& v : local_rows) {
        local_owner(v.id)->LocalVertex(v.id).value = std::move(v.value);
      }
    } else {
      LOG_FATAL << "DFS loading supports AdjList vertex values only";
    }
    for (auto& worker : *workers) worker->FinalizeLoad();
  }

  static AggT Restore(const Job<ComperT>& job,
                      std::vector<std::unique_ptr<WorkerT>>* workers) {
    const std::string prefix = "ckpt/" + std::to_string(job.resume_epoch);
    std::string meta_blob;
    GT_CHECK_OK(job.checkpoint_dfs->Get(prefix + "/meta", &meta_blob));
    CheckpointMeta<AggT> meta;
    const Status decoded = meta.Decode(meta_blob);
    GT_CHECK(decoded.ok()) << prefix << "/meta: " << decoded.ToString();
    GT_CHECK_EQ(meta.num_workers, job.config.num_workers)
        << "checkpoint taken with a different worker count";
    const auto ids = [](bool h) {
      return h ? "hub-last IDs (layout.reorder on, in-memory input)"
               : "input IDs (layout.reorder off, or a DFS input)";
    };
    GT_CHECK(meta.hub_last == HubLastIds(job))
        << "checkpoint " << prefix << " was taken in " << ids(meta.hub_last)
        << " but this job runs in " << ids(HubLastIds(job));
    AggT global = std::move(meta.global);
    for (int w = 0; w < job.config.num_workers; ++w) {
      std::string blob;
      GT_CHECK_OK(
          job.checkpoint_dfs->Get(prefix + "/worker_" + std::to_string(w),
                                  &blob));
      GT_CHECK_OK((*workers)[w]->RestoreFromCheckpoint(blob));
    }
    return global;
  }

};

}  // namespace gthinker

#endif  // GTHINKER_CORE_CLUSTER_H_
