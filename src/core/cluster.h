#ifndef GTHINKER_CORE_CLUSTER_H_
#define GTHINKER_CORE_CLUSTER_H_

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/codec.h"
#include "core/config.h"
#include "core/job_report.h"
#include "core/protocol.h"
#include "core/worker.h"
#include "graph/graph.h"
#include "graph/layout.h"
#include "graph/loader.h"
#include "net/comm_hub.h"
#include "net/transport_tcp.h"
#include "obs/flight_recorder.h"
#include "obs/phase_profile.h"
#include "obs/sampler.h"
#include "obs/status_server.h"
#include "storage/mini_dfs.h"
#include "util/logging.h"
#include "util/timer.h"

namespace gthinker {

/// Builds a Worker's vertex value for vertex `v` from its input row: `row`
/// holds v's neighbors, sorted, in the IDs the job speaks; `labels` is
/// indexed by the caller's IDs, reached through `layout`. Overloads cover the
/// shipped value types; apps with custom values add their own.
inline void BuildVertexValue(VertexId /*v*/, AdjList row,
                             const std::vector<Label>* /*labels*/,
                             const VertexLayout& /*layout*/, AdjList* out) {
  *out = std::move(row);
}
inline void BuildVertexValue(VertexId v, AdjList row,
                             const std::vector<Label>* labels,
                             const VertexLayout& layout, LabeledAdj* out) {
  GT_CHECK(labels != nullptr) << "LabeledAdj vertices need Job::labels";
  out->label = (*labels)[layout.ToOld(v)];
  out->adj.clear();
  out->adj.reserve(row.size());
  for (VertexId u : row) {
    out->adj.push_back(LabeledNbr{u, (*labels)[layout.ToOld(u)]});
  }
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

/// The master's record of one committed checkpoint (ckpt/<epoch>/meta): the
/// global aggregate, plus what a resume must match. Task contexts and pulls
/// in a checkpoint are vertex IDs, valid only in the ID space they were
/// taken in, so the meta records whether the workers spoke hub-last IDs.
template <typename AggT>
struct CheckpointMeta {
  uint64_t epoch = 0;
  int32_t num_workers = 0;
  AggT global{};
  bool hub_last = false;

  std::string Encode() const {
    Serializer ser;
    ser.Write(epoch);
    ser.Write(num_workers);
    Codec<AggT>::Encode(ser, global);
    ser.Write<uint8_t>(hub_last ? 1 : 0);
    return ser.Release();
  }

  /// Total: the flag comes last, so a meta written before it existed (or a
  /// truncated one) fails with Corruption rather than decoding shifted bytes.
  Status Decode(const std::string& blob) {
    Deserializer des(blob);
    GT_RETURN_IF_ERROR(des.Read(&epoch));
    GT_RETURN_IF_ERROR(des.Read(&num_workers));
    GT_RETURN_IF_ERROR(Codec<AggT>::Decode(des, &global));
    uint8_t flag = 0;
    GT_RETURN_IF_ERROR(des.Read(&flag));
    if (flag > 1 || !des.AtEnd()) {
      return Status::Corruption("checkpoint meta: bad layout flag or trailer");
    }
    hub_last = flag == 1;
    return Status::Ok();
  }
};

/// The job driver. Owns the hub and the local workers, and plays the master
/// role (paper §V-B): receives progress reports, synchronizes the
/// aggregator, plans work stealing, coordinates checkpoints, and detects
/// termination (all workers idle and the data-message flow balanced, stable
/// across two consecutive global snapshots). Run and RunDistributed share
/// one driver; they differ only in the transport under the hub and in which
/// workers live in this process.
template <typename ComperT>
class Cluster {
 public:
  using WorkerT = Worker<ComperT>;
  using TaskT = typename ComperT::TaskT;
  using AggT = typename ComperT::AggT;
  using VertexT = typename TaskT::VertexT;

  /// In-process execution: every worker and the master run as threads of
  /// this process over the in-process transport.
  static RunResult<ComperT> Run(const Job<ComperT>& job) {
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

    std::string spill_root = config.spill_root;
    const bool own_spill_root = spill_root.empty();
    if (own_spill_root) spill_root = MakeTempDir("spill");

    const int num_workers = config.num_workers;
    const int master_id = num_workers;
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
      std::error_code ec;
      std::filesystem::create_directories(spill_dir, ec);
      GT_CHECK(!ec);
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

    // The latest progress report from every worker (agg_delta cleared): the
    // one record of per-worker state. Only the master thread writes it,
    // under latest_mu, and reads it unlocked; status-server scrapes copy it
    // out under the lock.
    std::vector<ProgressReport> latest(num_workers);
    std::mutex latest_mu;
    auto latest_copy = [&] {
      std::lock_guard<std::mutex> lock(latest_mu);
      return latest;
    };
    // Each report's gauges (obs::kWorkerSampledGauges), one series per
    // worker and gauge, stamped with the hub clock as the master decodes it.
    constexpr size_t kNumSeries = obs::kNumWorkerSampledGauges;
    std::vector<obs::BoundedSeries> series;
    if (hosts_master) {
      for (int w = 0; w < num_workers; ++w) {
        for (const char* gauge : obs::kWorkerSampledGauges) {
          series.emplace_back(gauge, w);
        }
      }
    }

    // Live status endpoint (knob `status_port`; 0 = off, -1 = ephemeral),
    // served by the master's process: the status document and the `job`
    // metrics scope cover every worker from `latest`, the registries are
    // this process's. Stopped before the workers are destroyed.
    obs::StatusServer status_server(
        [&] {
          std::vector<obs::MetricsSnapshot> snaps;
          snaps.reserve(workers.size() + 2);
          for (auto& worker : workers) {
            snaps.push_back(worker->MetricsSnapshot());
          }
          snaps.push_back(hub.MetricsSnapshot());
          snaps.push_back(
              JobScopeMetrics(latest_copy(), wall.ElapsedMicros()));
          return snaps;
        },
        [&] {
          return StatusJson(latest_copy(), wall.ElapsedSeconds(),
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

    // The master: snapshots, termination, steals, checkpoints, drain.
    if (hosts_master) {
      Timer ckpt_timer;
      std::vector<bool> fresh(num_workers, false);

      // A snapshot is quiet when every worker is idle, the data-message
      // flow balances and the global task ledger is conserved.
      struct Snapshot {
        bool quiet = false;
        std::vector<int64_t> sent, processed;
      };
      Snapshot prev;

      int pending_ckpt_acks = 0;
      uint64_t active_ckpt_epoch = 0;
      // Checkpoint quiesce (paper §V-B fault tolerance, hardened): while
      // true, the master stops issuing steal orders and holds the
      // kCheckpointRequest broadcast until the wire carries no kStealOrder /
      // kTaskBatch traffic, so no donated batch can fall between the donor's
      // and the recipient's snapshots (outside both).
      bool ckpt_quiescing = false;
      // Checkpoint-consistent aggregate: per-link FIFO delivers everything a
      // worker committed before its snapshot ahead of its ack, so deltas
      // merge here until that worker's ack and never after it.
      AggT ckpt_global = ComperT::AggZero();
      std::vector<bool> ckpt_acked(num_workers, false);
      bool terminate = false;

      // Broadcasting a Payload is cheap by design: each copy bumps fragment
      // refcounts, so all N workers share the sender's one encoded buffer.
      auto broadcast = [&](MsgType type, const Payload& payload) {
        for (int w = 0; w < num_workers; ++w) {
          MessageBatch mb;
          mb.src_worker = master_id;
          mb.dst_worker = w;
          mb.type = type;
          mb.payload = payload;
          hub.Send(std::move(mb));
        }
      };
      // Reports, acks and barriers name their worker in the payload, and the
      // master indexes per-worker state by that name. The transport ties
      // mb.src_worker to the link a batch arrived on, so a payload naming
      // any other worker is a protocol violation, never an index.
      auto check_sender = [&](int32_t worker_id, const MessageBatch& mb) {
        GT_CHECK(worker_id >= 0 && worker_id < num_workers &&
                 worker_id == mb.src_worker)
            << "master: " << MsgTypeName(mb.type) << " from endpoint "
            << mb.src_worker << " names worker " << worker_id
            << "; expected the sender itself, in [0, " << num_workers << ")";
      };
      // Every report: merge its aggregate delta, append its gauges to its
      // worker's series and publish it in `latest`. Returns the worker.
      auto take_report = [&](const MessageBatch& mb) {
        ProgressReport report;
        GT_CHECK_OK(report.Decode(mb.payload));
        const int32_t w = report.worker_id;
        check_sender(w, mb);
        MergeInto(&global, report.agg_delta);
        if (pending_ckpt_acks > 0 && !ckpt_acked[w]) {
          MergeInto(&ckpt_global, report.agg_delta);
        }
        report.agg_delta.clear();
        const int64_t t = hub.NowUs();
        const auto gauges = SampledGauges(report);
        for (size_t g = 0; g < kNumSeries; ++g) {
          series[w * kNumSeries + g].Append(t, gauges[g]);
        }
        std::lock_guard<std::mutex> lock(latest_mu);
        latest[w] = std::move(report);
        return w;
      };

      // One loop runs the job and its drain. Until kTerminate it forms
      // snapshots, plans steals, coordinates checkpoints and checks the
      // budget. Then comes the two-phase drain (lossless shutdown): each
      // worker, on kTerminate, stops its compers, flushes its request
      // buffers and sends a kDrainBarrier; once all N arrive nobody can
      // originate new traffic, so the master echoes an (empty) kDrainBarrier
      // releasing the workers to pump the wire dry. They send their final
      // report only after CommHub::InFlightCount() proves nothing is queued,
      // in transit, or in a handler that could still send.
      //
      // One silence bound covers the whole job: workers heartbeat with
      // progress reports until their drain begins (also while a comper
      // finishes an uninterruptible Compute() after kTerminate), so one that
      // owes its final report and stays silent for drain_timeout_us (a dead
      // or wedged rank) fails the job: returning without it would be a
      // partial answer.
      int barriers = 0;
      int finals = 0;
      std::vector<bool> barrier_seen(num_workers, false);
      std::vector<int64_t> last_heard_us(num_workers, wall.ElapsedMicros());
      while (finals < num_workers) {
        const int64_t now_us = wall.ElapsedMicros();
        for (int w = 0; w < num_workers; ++w) {
          // A pending checkpoint ack means the worker's comm thread is busy
          // parking its compers, which may sit in a long Compute().
          if (latest[w].final_report != 0 ||
              (pending_ckpt_acks > 0 && !ckpt_acked[w]) ||
              now_us - last_heard_us[w] <= config.drain_timeout_us) {
            continue;
          }
          std::string missing;
          if (terminate) {
            std::string no_barrier, no_final;
            for (int v = 0; v < num_workers; ++v) {
              if (!barrier_seen[v]) no_barrier += " " + std::to_string(v);
              if (latest[v].final_report == 0) {
                no_final += " " + std::to_string(v);
              }
            }
            missing = "; no drain barrier from worker(s)" + no_barrier +
                      "; no final report from worker(s)" + no_final;
          }
          // The fatal hook writes the crash dump, this event included.
          recorder.Record({.t_us = hub.NowUs(),
                           .kind = obs::EventKind::kDrain,
                           .a = 5,  // phase: master silence bound tripped
                           .b = num_workers - finals});
          LOG_FATAL << "master: worker " << w << " silent for "
                    << config.drain_timeout_us << " us "
                    << (terminate ? "after" : "before") << " kTerminate"
                    << missing;
        }

        MessageBatch mb;
        if (hub.Receive(master_id, config.progress_interval_us, &mb)) {
          if (mb.src_worker >= 0 && mb.src_worker < num_workers) {
            last_heard_us[mb.src_worker] = wall.ElapsedMicros();
          }
          switch (mb.type) {
            case MsgType::kProgressReport: {
              // A worker's final report is the last one it sends.
              const int w = take_report(mb);
              if (latest[w].final_report != 0) {
                ++finals;
              } else {
                fresh[w] = true;
              }
              break;
            }
            case MsgType::kCheckpointAck: {
              CheckpointAck ack;
              GT_CHECK_OK(ack.Decode(mb.payload));
              check_sender(ack.worker_id, mb);
              MergeInto(&global, ack.agg_delta);
              if (ack.epoch == active_ckpt_epoch && pending_ckpt_acks > 0 &&
                  !ckpt_acked[ack.worker_id]) {
                MergeInto(&ckpt_global, ack.agg_delta);
                ckpt_acked[ack.worker_id] = true;
                // A checkpoint still pending at kTerminate never commits.
                if (--pending_ckpt_acks == 0 && !terminate) {
                  CommitCheckpointMeta(job, {active_ckpt_epoch, num_workers,
                                             ckpt_global, hub_last});
                  ++stats.checkpoints;
                }
              }
              break;
            }
            case MsgType::kDrainBarrier: {
              int32_t worker_id = -1;
              GT_CHECK_OK(DecodeDrainBarrier(mb.payload, &worker_id));
              check_sender(worker_id, mb);
              GT_CHECK(terminate) << "master: drain barrier from worker "
                                  << worker_id << " before kTerminate";
              if (!barrier_seen[worker_id]) {
                barrier_seen[worker_id] = true;
                if (++barriers == num_workers) {
                  broadcast(MsgType::kDrainBarrier, "");
                  // The master originates nothing further; on tcp this lets
                  // the transport start its cluster-wide FLUSH marker rounds.
                  hub.BeginDrain(master_id);
                }
              }
              break;
            }
            default:
              LOG_FATAL << "master: unexpected message type "
                        << static_cast<int>(mb.type);
          }
          hub.MarkProcessed(mb.type);
        }
        if (terminate) continue;

        // A global snapshot forms once every worker reported since the last.
        if (std::all_of(fresh.begin(), fresh.end(), [](bool b) { return b; })) {
          Snapshot snap;
          bool all_idle = true;
          int64_t sent = 0, processed = 0, live = 0;
          TaskLedger sum;
          for (int w = 0; w < num_workers; ++w) {
            all_idle = all_idle && latest[w].idle != 0;
            sent += latest[w].data_sent;
            processed += latest[w].data_processed;
            snap.sent.push_back(latest[w].data_sent);
            snap.processed.push_back(latest[w].data_processed);
            sum.Accumulate(latest[w].ledger);
            live += latest[w].tasks_live;
          }
          // Task conservation: the summed ledger must account for exactly
          // the tasks the workers report alive. In-flight kTaskBatch records
          // are neutral (donor already counted `donated`, recipient not yet
          // `received`), so a correct system balances at every snapshot; the
          // counters are read without a global freeze, though, so a
          // transient skew only delays termination by one snapshot rather
          // than failing.
          snap.quiet =
              all_idle && sent == processed && sum.ExpectedLive() == live;

          Serializer agg;
          Codec<AggT>::Encode(agg, global);
          broadcast(MsgType::kAggregatorSync, TakePayload(agg));

          if (snap.quiet && prev.quiet && prev.sent == snap.sent &&
              prev.processed == snap.processed && pending_ckpt_acks == 0 &&
              !ckpt_quiescing) {
            terminate = true;
          } else if (config.enable_stealing && !all_idle && !ckpt_quiescing &&
                     pending_ckpt_acks == 0) {
            PlanSteals(latest, config, master_id, &hub);
          }
          prev = std::move(snap);
          std::fill(fresh.begin(), fresh.end(), false);
        }

        if (!terminate && config.time_budget_s > 0.0 &&
            wall.ElapsedSeconds() > config.time_budget_s) {
          stats.timed_out = true;
          terminate = true;
          // A budget exit is a diagnosis moment: dump the recent event
          // history so the state that failed to converge is inspectable
          // post-mortem.
          recorder.Record(
              {.t_us = hub.NowUs(),
               .kind = obs::EventKind::kTimeout,
               .a = static_cast<int64_t>(wall.ElapsedSeconds())});
          obs::FlightRecorder::WriteCrashDump("timeout");
        }

        // Checkpointing is in-process only (Validate rejects it under tcp),
        // so on a TCP rank neither checkpoint branch ever fires.
        if (!terminate && config.checkpoint_interval_us > 0 &&
            pending_ckpt_acks == 0 && !ckpt_quiescing &&
            ckpt_timer.ElapsedMicros() >= config.checkpoint_interval_us) {
          // Phase 1: stop feeding the wire with steal orders (PlanSteals is
          // gated on !ckpt_quiescing) and wait for in-flight stealing
          // traffic to settle before asking anyone to snapshot.
          ckpt_quiescing = true;
        }

        if (!terminate && ckpt_quiescing &&
            // Order matters: a donor sends its kTaskBatch *before* marking
            // the kStealOrder processed, so once no steal order is
            // unprocessed, every batch it will ever produce is already
            // visible to the kTaskBatch count checked second.
            hub.InFlightCount(MsgType::kStealOrder) == 0 &&
            hub.InFlightCount(MsgType::kTaskBatch) == 0) {
          ckpt_quiescing = false;
          active_ckpt_epoch = next_ckpt_epoch++;
          pending_ckpt_acks = num_workers;
          ckpt_global = global;  // everything committed so far is pre-snapshot
          std::fill(ckpt_acked.begin(), ckpt_acked.end(), false);
          CheckpointRequest req;
          req.epoch = active_ckpt_epoch;
          broadcast(MsgType::kCheckpointRequest, req.Encode());
          ckpt_timer.Restart();
        }

        if (terminate) broadcast(MsgType::kTerminate, "");
      }
    }
    // Off the master, the workers follow the master's broadcasts; their
    // comm threads exit once the drain proved the wire empty.
    for (auto& worker : workers) worker->Join();

    stats.elapsed_s = wall.ElapsedSeconds();
    if (hosts_master) {
      for (obs::BoundedSeries& s : series) {
        stats.timeseries.push_back(s.Take());
      }
      // Every entry of `latest` is now its worker's final report.
      for (const ProgressReport& r : latest) {
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
      }

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
    // the master). Every run, timed out or not, ends with a provably empty
    // wire, which under tcp each process certifies for its own transport
    // after the FLUSH rounds.
    if (!stats.timed_out) {
      GT_CHECK_EQ(stats.tasks_live_at_exit, 0)
          << "clean termination left live tasks behind";
    }
    Timer drain_wait;
    while (hub.InFlightCount() != 0 &&
           drain_wait.ElapsedMicros() < config.drain_timeout_us) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    GT_CHECK_EQ(hub.InFlightCount(), 0)
        << "the drain left undrained messages on the wire";
    stats.batches_sent = hub.TotalBatchesSent();
    stats.bytes_sent = hub.TotalBytesSent();
    stats.steal_orders = hub.SentCount(MsgType::kStealOrder);

    // Per-scope metric snapshots: every local worker's registry (with the
    // cache / task roll-ups folded in) plus the hub's wire view. The
    // transport stops first so teardown accounting (any
    // transport.batches_abandoned frames) reaches the job report.
    for (auto& worker : workers) worker->FinalizeObs();
    hub.Shutdown();
    for (auto& worker : workers) {
      stats.metrics.push_back(worker->MetricsSnapshot());
      stats.peak_mem_bytes.push_back(worker->PeakMemBytes());
      stats.max_peak_mem_bytes =
          std::max(stats.max_peak_mem_bytes, worker->PeakMemBytes());
      stats.records_output += worker->RecordsOutput();
    }
    stats.metrics.push_back(hub.MetricsSnapshot());

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

  static void MergeInto(AggT* target, const std::string& blob) {
    AggT delta{};
    Deserializer des(blob);
    GT_CHECK_OK(Codec<AggT>::Decode(des, &delta));
    *target = ComperT::AggMerge(*target, delta);
  }

  /// True when the workers speak hub-last IDs: layout.reorder applies to
  /// in-memory inputs only (DFS part files carry whatever IDs they were
  /// written with; see GraphIo::LoadAdjacencyHubLast and the layout overload
  /// of WritePartitionedAdjacency).
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
      const int i = WorkerT::OwnerOf(v, num_workers) - first_local;
      return i >= 0 && i < num_local ? (*workers)[i].get() : nullptr;
    };
    if (job.graph != nullptr) {
      // One scatter pass fills a sorted row for every local vertex (new
      // IDs), then each row moves into its owner's table.
      const Graph& g = *job.graph;
      const VertexId n = g.NumVertices();
      constexpr VertexId kNotLocal = std::numeric_limits<VertexId>::max();
      std::vector<VertexId> slot(n, kNotLocal);
      VertexId num_rows = 0;
      for (VertexId x = 0; x < n; ++x) {
        if (local_owner(x) != nullptr) slot[x] = num_rows++;
      }
      std::vector<AdjList> rows(num_rows);
      layout.ScatterRows(g, [&slot, &rows](VertexId x) -> AdjList* {
        return slot[x] != kNotLocal ? &rows[slot[x]] : nullptr;
      });
      for (VertexId x = 0; x < n; ++x) {
        if (slot[x] == kNotLocal) continue;
        VertexT vertex;
        vertex.id = x;
        BuildVertexValue(x, std::move(rows[slot[x]]), job.labels, layout,
                         &vertex.value);
        local_owner(x)->AddLocalVertex(std::move(vertex));
      }
    } else {
      // Adjacency-format part files on the DFS; the driver parses lines and
      // routes each vertex to its hash owner (the shuffle a real HDFS load
      // performs). Only AdjList-valued vertices are supported on this path.
      std::vector<std::string> keys;
      GT_CHECK_OK(job.dfs->List(job.dfs_graph_dir, &keys));
      GT_CHECK(!keys.empty()) << "no part files under " << job.dfs_graph_dir;
      for (const std::string& key : keys) {
        std::string blob;
        GT_CHECK_OK(job.dfs->Get(key, &blob));
        size_t pos = 0;
        while (pos < blob.size()) {
          size_t nl = blob.find('\n', pos);
          if (nl == std::string::npos) nl = blob.size();
          const std::string line = blob.substr(pos, nl - pos);
          pos = nl + 1;
          if (line.empty()) continue;
          VertexT vertex;
          GT_CHECK_OK(ParseDfsLine(line, &vertex));
          if (WorkerT* owner = local_owner(vertex.id)) {
            owner->AddLocalVertex(std::move(vertex));
          }
        }
      }
    }
    for (auto& worker : *workers) worker->FinalizeLoad();
  }

  static Status ParseDfsLine(const std::string& line,
                             Vertex<AdjList>* vertex) {
    return GraphIo::ParseAdjacencyLine(line, &vertex->id, &vertex->value);
  }
  template <typename V>
  static Status ParseDfsLine(const std::string&, V*) {
    return Status::InvalidArgument(
        "DFS loading supports AdjList vertex values only");
  }

  static void CommitCheckpointMeta(const Job<ComperT>& job,
                                   const CheckpointMeta<AggT>& meta) {
    GT_CHECK_OK(job.checkpoint_dfs->Put(
        "ckpt/" + std::to_string(meta.epoch) + "/meta", meta.Encode()));
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

  /// Sends one steal order per starving worker, from the most loaded one
  /// (paper §V-B "Task Stealing": idle machines prefetch task batches from
  /// busy machines via master-made plans).
  static void PlanSteals(const std::vector<ProgressReport>& latest,
                         const JobConfig& config, int master_id,
                         CommHub* hub) {
    const int64_t batch = config.task_batch_size;
    for (size_t i = 0; i < latest.size(); ++i) {
      if (latest[i].idle == 0 || latest[i].remaining_estimate > 0) continue;
      // worker i is starving; find the most loaded donor
      int donor = -1;
      int64_t best = 2 * batch;  // only steal from meaningfully-loaded donors
      for (size_t j = 0; j < latest.size(); ++j) {
        if (j == i) continue;
        if (latest[j].remaining_estimate > best) {
          best = latest[j].remaining_estimate;
          donor = static_cast<int>(j);
        }
      }
      if (donor < 0) continue;
      MessageBatch mb;
      mb.src_worker = master_id;
      mb.dst_worker = donor;
      mb.type = MsgType::kStealOrder;
      // Stamp the order with the hub clock; the recipient of the resulting
      // kTaskBatch closes the round-trip measurement (steal.rtt_us).
      mb.payload = EncodeStealOrder(static_cast<int32_t>(i), hub->NowUs());
      hub->Send(std::move(mb));
    }
  }
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_CLUSTER_H_
