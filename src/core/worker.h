#ifndef GTHINKER_CORE_WORKER_H_
#define GTHINKER_CORE_WORKER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/codec.h"
#include "core/comper_engine.h"
#include "core/config.h"
#include "core/protocol.h"
#include "graph/layout.h"
#include "net/comm_hub.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span_trace.h"
#include "storage/mini_dfs.h"
#include "util/logging.h"
#include "util/timer.h"

namespace gthinker {

/// One simulated machine (paper Fig. 3 / Fig. 7): a local vertex table
/// T_local, a remote-vertex cache T_cache, a list of spilled task files
/// L_file, n comper threads (ComperEngine, each with a TaskDeque holding its
/// Q_task and its parked tasks, T_task and B_task) and one communication
/// thread, which also evicts from T_cache when a comper finds it overflowed
/// (paper §V-A's GC). What more than one thread touches is WorkerShared
/// (core/comper_engine.h); this class owns loading, the lifecycle and the
/// comm thread. Master (core/master.h) plays the paper's "main thread of the
/// master": it receives progress reports and issues steal/terminate/
/// checkpoint control messages.
///
/// ComperT must derive from Comper<TaskT, AggT> (core/comper.h).
template <typename ComperT>
class Worker {
 public:
  using TaskT = typename ComperT::TaskT;
  using AggT = typename ComperT::AggT;
  using VertexT = typename TaskT::VertexT;
  using ComperFactory = std::function<std::unique_ptr<ComperT>()>;
  using TrimmerFn = std::function<void(VertexT&)>;

  Worker(int worker_id, const JobConfig& config, CommHub* hub,
         ComperFactory factory, TrimmerFn trimmer, std::string spill_dir)
      : shared_(worker_id, config, hub, std::move(spill_dir)),
        trimmer_(std::move(trimmer)) {
    for (int i = 0; i < config.compers_per_worker; ++i) {
      engines_.push_back(std::make_unique<Engine>(&shared_, i, factory()));
    }
    steal_comper_ = factory();
    steal_comper_->BindRuntime(&steal_runtime_);
  }

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  ~Worker() { Join(); }

  // ---------------------------------------------------------------------
  // Loading (before Start).
  // ---------------------------------------------------------------------

  /// Sizes T_local for an input whose IDs are exactly 0..n-1: one slot per
  /// ID this worker owns (SlotOf), stamped with that ID, for the loader to
  /// fill through LocalVertex. Call once, first.
  void SizeLocalTable(VertexId n) {
    const size_t w = shared_.config.num_workers;
    std::vector<VertexT>& local = shared_.local;
    local.resize((n + w - 1 - shared_.id) / w);
    for (size_t s = 0; s < local.size(); ++s) local[s].id = s * w + shared_.id;
  }

  /// T_local's row of vertex v: an index read, for a v this worker owns.
  VertexT& LocalVertex(VertexId v) { return shared_.LocalVertex(v); }

  /// Call once every row is filled. The Trimmer UDF (if any) runs here, so
  /// pulled responses already carry trimmed lists (§IV).
  void FinalizeLoad() {
    int64_t bytes = 0;
    for (VertexT& v : shared_.local) {
      if (trimmer_) trimmer_(v);
      bytes += Codec<VertexT>::Bytes(v);
    }
    shared_.mem.Consume(bytes);
  }

  /// Pre-seeds state from a checkpoint blob (see EncodeCheckpoint). Restored
  /// tasks enter L_file as spill batches and re-pull into the cold cache,
  /// exactly as §V-B "Fault Tolerance" prescribes. Restored tasks enter the
  /// ledger as `restored` (and the live count), so the conservation
  /// invariant holds across a resume. The blob is decoded whole first, so a
  /// corrupt one is rejected before any task is banked.
  Status RestoreFromCheckpoint(const std::string& blob) {
    WorkerCheckpoint ckpt;
    GT_RETURN_IF_ERROR(ckpt.Decode(blob));
    if (ckpt.spawn_next > shared_.local.size()) {
      return Status::Corruption("worker checkpoint: spawn cursor past the " +
                                std::to_string(shared_.local.size()) +
                                " local vertices");
    }
    const size_t batch = static_cast<size_t>(shared_.config.task_batch_size);
    for (size_t begin = 0; begin < ckpt.records.size(); begin += batch) {
      const size_t end = std::min(begin + batch, ckpt.records.size());
      std::vector<std::string> records(
          std::make_move_iterator(ckpt.records.begin() + begin),
          std::make_move_iterator(ckpt.records.begin() + end));
      const auto count = static_cast<int64_t>(records.size());
      shared_.live_tasks.fetch_add(count);
      shared_.tasks_restored.fetch_add(count, std::memory_order_relaxed);
      shared_.l_file.PushBack(std::move(records));
    }
    shared_.next_spawn.store(ckpt.spawn_next, std::memory_order_relaxed);
    return Status::Ok();
  }

  /// Wires the DFS used for checkpoints (set by the cluster before Start).
  void SetCheckpointDfs(MiniDfs* dfs) { checkpoint_dfs_ = dfs; }

  /// Wires the job's event ring (set by the cluster before Start; the
  /// recorder must outlive the worker's threads).
  void SetRecorder(obs::FlightRecorder* ring) { shared_.recorder = ring; }

  /// Enables Comper::Output, writing record batches under `dir`.
  void SetOutputDir(std::string dir) { shared_.output_dir = std::move(dir); }

  /// Wires the job's load-time layout (set by the cluster before Start; null
  /// when vertex IDs are the caller's own), so compers can report original
  /// IDs through Comper::OriginalId.
  void SetLayout(const VertexLayout* layout) { shared_.layout = layout; }

  // ---------------------------------------------------------------------
  // Lifecycle.
  // ---------------------------------------------------------------------

  void Start() {
    GT_CHECK(!started_);
    started_ = true;
    shared_.compers_running.store(static_cast<int>(engines_.size()),
                                  std::memory_order_release);
    shared_.compers_spawning.store(static_cast<int>(engines_.size()));
    for (auto& engine : engines_) {
      threads_.emplace_back([e = engine.get()] { e->Loop(); });
    }
    threads_.emplace_back([this] { CommLoop(); });
  }

  void Join() {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
    // After the compers and comm thread exit nothing can push to L_file;
    // retire its writer thread.
    shared_.l_file.Stop();
  }

  int64_t PeakMemBytes() const { return shared_.mem.peak(); }

  int64_t RecordsOutput() const {
    return shared_.records_output.load(std::memory_order_relaxed);
  }

  /// Folds the cache's and L_file's internal counters (kept as plain
  /// atomics on the hot path, not registry metrics) and the compers' round
  /// counts into the registry so one snapshot carries everything. Call
  /// after Join(), before MetricsSnapshot().
  void FinalizeObs() {
    obs::MetricsRegistry& metrics = shared_.metrics;
    const auto& cs = shared_.cache.stats();
    auto set = [&metrics](const char* name, int64_t v) {
      metrics.GetCounter(name)->Add(v);
    };
    set("cache.requests", cs.requests.load(std::memory_order_relaxed));
    set("cache.hits", cs.hits.load(std::memory_order_relaxed));
    set("cache.wait_joins", cs.wait_joins.load(std::memory_order_relaxed));
    set("cache.new_requests",
        cs.new_requests.load(std::memory_order_relaxed));
    set("cache.evictions", cs.evictions.load(std::memory_order_relaxed));
    set("cache.evict_scan_us",
        cs.evict_scan_us.load(std::memory_order_relaxed));
    set("cache.gc_passes", cs.gc_passes.load(std::memory_order_relaxed));
    set("cache.lock_contention",
        cs.lock_contention.load(std::memory_order_relaxed));
    const auto& ss = shared_.l_file.stats();
    set("spill.mem_hits", ss.mem_hits.load(std::memory_order_relaxed));
    // Peak writer-queue depth over the run (the live value is also on the
    // master sampler's spill_queue_depth series).
    metrics.GetGauge("spill.queue_depth")
        ->Set(ss.peak_queue_depth.load(std::memory_order_relaxed));
    for (const auto& engine : engines_) {
      metrics.GetGauge("comper.idle_rounds")->Add(engine->IdleRounds());
      metrics.GetGauge("comper.rounds")->Add(engine->Rounds());
    }
  }

  /// Snapshot of this worker's registry (call FinalizeObs first for the
  /// cache/spill roll-ups to be present).
  obs::MetricsSnapshot MetricsSnapshot() const {
    return shared_.metrics.Snapshot();
  }

 private:
  using Engine = ComperEngine<ComperT>;
  using Parked = typename Engine::Parked;

  /// Lets the comm thread spawn tasks for donation without touching any
  /// comper's queue. AddTask serializes straight into the donation batch.
  class StealRuntime final : public WorkerRuntime<ComperT> {
   public:
    using WorkerRuntime<ComperT>::WorkerRuntime;
    void AddTask(std::unique_ptr<TaskT> task) override {
      // Spawned straight into the donation batch: counts as spawned (and
      // momentarily live) here, then as donated once the batch ships.
      this->shared_->OnTaskSpawned();
      sink_->push_back(Engine::Tasks::Encode(*task));
    }
    void SetSink(std::vector<std::string>* sink) { sink_ = sink; }

   private:
    std::vector<std::string>* sink_ = nullptr;
  };

  // ---------------------------------------------------------------------
  // Communication thread.
  // ---------------------------------------------------------------------

  /// Receive-wait slice while request batches are open.
  static constexpr int64_t kCommPollUs = 200;

  /// The comm thread (paper §V-B): one receive loop runs the job and its
  /// lossless shutdown. Receive is event-driven: the hub's inbox wakes this
  /// thread the moment a batch lands in it (pushed by a sender in-process,
  /// or by the transport's poll(2) IO thread under tcp), and CommHub::Wake
  /// wakes it for what happens outside the inbox — a comper opening a pull
  /// window, finding T_cache overflowed, turning the worker idle or exiting.
  /// So a wait lasts until the next progress report is due.
  ///
  /// This thread is T_cache's only evictor (paper §V-A's GC): it runs a
  /// pass when a gated comper asks for one, so EvictUpTo never races
  /// itself.
  ///
  /// After kTerminate the loop keeps servicing the wire — answering pull
  /// requests, accepting responses and late donated batches — and takes two
  /// one-shot steps as their conditions come true:
  ///
  /// 1. Local quiesce: once the compers' threads have exited (a comper
  ///    mid-iteration may still issue vertex pulls, and a Compute() call
  ///    cannot be interrupted, so this wait is unbounded; the last one out
  ///    wakes this thread), flush the per-destination request buffers so
  ///    nothing is stranded in them and send a progress report that says
  ///    quiesced. From then on the worker originates nothing, and it
  ///    reports after each handled kVertexResponse or kTaskBatch: the only
  ///    events that move its terms of the master's release predicate
  ///    (Master::WireEmpty).
  /// 2. Release: the master sends kDrainBarrier once the reports prove that
  ///    no request, response or task batch is on any link. Flush the output
  ///    and send the final report, so every task batch has been banked in
  ///    L_file and counted by the ledger.
  ///
  /// Until the release, non-final progress reports keep flowing as the
  /// heartbeat behind the master's silence bound (drain_timeout_us). The
  /// worker has no deadline of its own: the master's bound ends a job whose
  /// drain cannot finish.
  void CommLoop() {
    const JobConfig& config = shared_.config;
    Timer progress_timer;
    bool released = false;
    while (!released) {
      int64_t wait_us = std::max<int64_t>(
          config.progress_interval_us - progress_timer.ElapsedMicros(), 1);
      if (shared_.coalescer.HasPending()) {
        // Open request batches flush on the short comm cadence so
        // sub-threshold pulls are not delayed by an idle-length wait.
        wait_us = std::min(wait_us, kCommPollUs);
      }
      // Only this thread sets stop_compers (on kTerminate).
      const bool terminated =
          shared_.stop_compers.load(std::memory_order_relaxed);
      MessageBatch mb;
      const bool got = shared_.hub->Receive(shared_.id, wait_us, &mb);
      if (got) {
        if (terminated) ++drained_messages_;
        HandleMessage(mb);
      }
      // A wake that announced a new pull window only shortens the wait: the
      // window fills for one poll slice before it flushes.
      if (!shared_.window_opened.exchange(false, std::memory_order_acq_rel) ||
          got) {
        FlushAllRequests();
      }
      // The relaxed load keeps idle passes of this loop from writing the
      // flag. It is cleared before the scan: a comper gated during it wakes
      // one more pass.
      if (shared_.evict_wanted.load(std::memory_order_relaxed) &&
          shared_.evict_wanted.exchange(false, std::memory_order_acq_rel)) {
        EvictPass();
      }
      // Besides the cadence, a report goes out the moment the worker turns
      // idle (NotifyIfIdle), when the master asks (kReportRequest) and,
      // once quiesced, when a drain term moved.
      const bool drain_moved =
          quiesced_ && got &&
          (mb.type == MsgType::kVertexResponse ||
           mb.type == MsgType::kTaskBatch);
      if (shared_.report_due.exchange(false, std::memory_order_acq_rel) ||
          drain_moved ||
          progress_timer.ElapsedMicros() >= config.progress_interval_us) {
        SendProgress(/*final_report=*/false);
        progress_timer.Restart();
      }
      if (!quiesced_ && shared_.stop_compers.load(std::memory_order_relaxed) &&
          shared_.compers_running.load(std::memory_order_acquire) == 0) {
        FlushAllRequests();
        // a = drain phase: quiesced (then 2 released, 4 final)
        shared_.RecordEvent(-1, {.kind = obs::EventKind::kDrain, .a = 1});
        quiesced_ = true;
        SendProgress(/*final_report=*/false);
        progress_timer.Restart();
      }
      released = got && mb.type == MsgType::kDrainBarrier;
    }
    shared_.RecordEvent(-1, {.kind = obs::EventKind::kDrain, .a = 2});
    if (!shared_.output_dir.empty()) shared_.FinalFlushOutput();
    shared_.RecordEvent(-1, {.kind = obs::EventKind::kDrain, .a = 4});
    SendProgress(/*final_report=*/true);
  }

  void FlushAllRequests() {
    std::vector<VertexId> to_send;
    for (int dst = 0; dst < shared_.config.num_workers; ++dst) {
      if (shared_.coalescer.Flush(dst, &to_send)) {
        shared_.SendVertexRequest(dst, to_send);
      }
    }
  }

  /// One lazy eviction pass (paper §V-A's GC), run by the comm thread:
  /// evict back down to c_cache in Z-list order. Every comper checks the
  /// gate every round and releases its pulls before its next round, so a
  /// pass that finds nothing evictable is followed by another wake while
  /// the gate stays closed.
  void EvictPass() {
    VertexCache<VertexT>& cache = shared_.cache;
    if (!cache.Overflowed()) return;
    const int64_t excess = cache.ExcessOverCapacity();
    const int64_t start_us = shared_.hub->NowUs();
    const int64_t evicted = cache.EvictUpTo(excess);
    shared_.RecordEvent(-1, {.t_us = start_us,
                             .dur_us = shared_.hub->NowUs() - start_us,
                             .kind = obs::EventKind::kGcPass,
                             .a = evicted,
                             .b = excess});
  }

  void HandleMessage(const MessageBatch& mb) {
    const int id = shared_.id;
    switch (mb.type) {
      case MsgType::kVertexRequest: {
        ++data_processed_;
        std::vector<VertexId> ids;
        GT_CHECK_OK(DecodeVertexRequest(mb.payload, &ids));
        std::vector<const VertexT*> vertices;
        vertices.reserve(ids.size());
        for (VertexId v : ids) {
          // The one place an ID from a peer becomes a slot index.
          GT_CHECK(shared_.IsLocal(v) &&
                   shared_.SlotOf(v) < shared_.local.size())
              << "worker " << id << ": worker " << mb.src_worker
              << " requested vertex " << v << ", which it does not own";
          vertices.push_back(&shared_.LocalVertex(v));
        }
        shared_.data_sent.fetch_add(1, std::memory_order_relaxed);
        shared_.Send(mb.src_worker, MsgType::kVertexResponse,
                     EncodeVertexResponse(vertices));
        break;
      }
      case MsgType::kVertexResponse: {
        ++data_processed_;
        shared_.requests_unanswered.fetch_sub(1, std::memory_order_relaxed);
        std::vector<VertexT> vertices;
        GT_CHECK_OK(DecodeVertexResponse(mb.payload, &vertices));
        for (VertexT& v : vertices) {
          // InsertResponse dies on a vertex with no R-table entry, so only
          // handles this worker's compers registered come back.
          for (uint64_t waiter : shared_.cache.InsertResponse(std::move(v))) {
            Parked* parked = Parked::FromWaiter(waiter);
            parked->owner->OnPullArrived(parked);
          }
        }
        break;
      }
      case MsgType::kTaskBatch: {
        ++data_processed_;
        std::vector<std::string> records;
        int64_t order_t_us = 0;
        GT_CHECK_OK(DecodeTaskBatch(mb.payload, &records, &order_t_us));
        if (!records.empty()) {
          // Full steal round-trip: master's order -> donor -> this arrival.
          // Only a batch this process's hub stamped shares the master's
          // clock; a transport's batches (tcp) are unstamped, and another
          // process's epoch would skew the sample.
          if (order_t_us > 0 && mb.sent_at_us > 0) {
            steal_rtt_us_->Record(shared_.hub->NowUs() - order_t_us);
          }
          // Count the tasks as live *before* banking the batch so there is
          // no instant at which they are invisible to the idle check.
          const int64_t count = static_cast<int64_t>(records.size());
          shared_.live_tasks.fetch_add(count);
          shared_.tasks_received.fetch_add(count, std::memory_order_relaxed);
          shared_.l_file.PushBack(std::move(records));
          stolen_batches_->Increment();
          shared_.RecordEvent(-1, {.kind = obs::EventKind::kStealReceive,
                                   .a = count,
                                   .b = mb.src_worker});
        }
        break;
      }
      case MsgType::kStealOrder: {
        int32_t dst = -1;
        int64_t order_t_us = 0;
        GT_CHECK_OK(DecodeStealOrder(mb.payload, &dst, &order_t_us));
        GT_CHECK(dst >= 0 && dst < shared_.config.num_workers && dst != id)
            << "worker " << id << ": steal order from endpoint "
            << mb.src_worker << " names thief " << dst << ", outside [0, "
            << shared_.config.num_workers << ") or this worker";
        // Donation packing happens on the comm thread; its cost shows up as
        // the worker row's steal phase, not in any comper's loop.
        Timer steal_timer;
        DonateTasks(dst, order_t_us);
        phase_steal_us_->Add(steal_timer.ElapsedMicros());
        ++steal_orders_handled_;
        break;
      }
      case MsgType::kAggregatorSync: {
        AggT global{};
        Deserializer des(mb.payload.data(), mb.payload.size());
        GT_CHECK_OK(Codec<AggT>::Decode(des, &global));
        shared_.agg.SetGlobal(std::move(global));
        break;
      }
      case MsgType::kCheckpointRequest: {
        CheckpointRequest req;
        GT_CHECK_OK(req.Decode(mb.payload));
        // Per-link FIFO delivers any checkpoint request before kTerminate,
        // but guard anyway: with the compers exited, the park rendezvous
        // below would deadlock, and a shutdown-time snapshot is useless.
        if (!shared_.stop_compers.load(std::memory_order_acquire)) {
          DoCheckpoint(req.epoch);
        }
        break;
      }
      case MsgType::kTerminate: {
        shared_.RecordEvent(-1, {.kind = obs::EventKind::kTerminate});
        shared_.stop_compers.store(true, std::memory_order_release);
        // a = drain phase: quiescing compers
        shared_.RecordEvent(-1, {.kind = obs::EventKind::kDrain, .a = 0});
        break;
      }
      case MsgType::kReportRequest: {
        // The master asks for a report now (it saw every worker idle, or a
        // quiet snapshot it wants confirmed); CommLoop sends it.
        shared_.report_due.store(true, std::memory_order_release);
        break;
      }
      case MsgType::kDrainBarrier:
        // The master's release: the wire is empty; CommLoop sends the final
        // report and exits.
        break;
      default:
        LOG_FATAL << "worker " << id << ": unexpected message type "
                  << static_cast<int>(mb.type);
    }
  }

  /// Sends a batch of tasks to `dst` (executing a steal order): first from a
  /// spilled file (newest batch, so the donor keeps its oldest work), else by
  /// spawning fresh tasks from not-yet-spawned local vertices.
  /// `order_t_us` is the hub-clock instant the master issued the steal order;
  /// it rides along in the kTaskBatch so the recipient can close the
  /// round-trip measurement.
  void DonateTasks(int dst, int64_t order_t_us) {
    std::vector<std::string> records;
    if (shared_.l_file.PopBack(&records)) {
      shared_.tasks_disk_donated.fetch_add(
          static_cast<int64_t>(records.size()), std::memory_order_relaxed);
    } else {
      std::vector<const VertexT*> to_spawn;
      shared_.ClaimSpawnBatch(shared_.config.task_batch_size, &to_spawn);
      if (!to_spawn.empty()) {
        steal_runtime_.SetSink(&records);
        for (const VertexT* v : to_spawn) steal_comper_->TaskSpawn(*v);
        // A bundling app donates the batch as one root-bundle task.
        steal_runtime_.CloseRootBundle();
        steal_runtime_.SetSink(nullptr);
      }
    }
    if (records.empty()) return;
    shared_.data_sent.fetch_add(1, std::memory_order_relaxed);
    shared_.Send(dst, MsgType::kTaskBatch,
                 EncodeTaskBatch(records, order_t_us));
    // The donated tasks have left this worker; the recipient counts them
    // back in (received) when the batch lands, and the wire interval is
    // visible to the master as donated - received.
    const auto donated = static_cast<int64_t>(records.size());
    shared_.tasks_donated.fetch_add(donated, std::memory_order_relaxed);
    if (shared_.live_tasks.fetch_sub(donated) == donated) {
      shared_.NotifyIfIdle();
    }
    shared_.RecordEvent(-1, {.kind = obs::EventKind::kStealDonate,
                             .a = donated,
                             .b = dst});
  }

  void SendProgress(bool final_report) {
    ProgressReport report;
    report.worker_id = shared_.id;
    report.final_report = final_report ? 1 : 0;
    report.checkpoint_epoch = checkpoint_epoch_;
    report.quiesced = quiesced_ ? 1 : 0;
    size_t queued = 0;
    for (const auto& engine : engines_) queued += engine->tasks().Weight();
    const size_t local = shared_.local.size();
    const size_t unspawned =
        local -
        std::min(shared_.next_spawn.load(std::memory_order_relaxed), local);
    // Exact disk-resident task count (restore tails and partial steal-spawn
    // bundles are smaller than a full batch), so PlanSteals compares donors
    // by real backlog instead of a files-times-batch-size overestimate.
    report.remaining_estimate = shared_.l_file.TotalRecords() +
                                static_cast<int64_t>(unspawned) +
                                static_cast<int64_t>(queued);
    // One linearizable read: live_tasks covers queued, ready, pending,
    // disk-resident, and in-a-comper's-hands tasks, so there is no window
    // in which a popped-but-unregistered task reports the worker idle.
    report.idle =
        (shared_.SpawnDone() && shared_.live_tasks.load() == 0) ? 1 : 0;
    report.data_sent = shared_.data_sent.load(std::memory_order_acquire);
    report.data_processed = data_processed_;
    report.requests_unanswered =
        shared_.requests_unanswered.load(std::memory_order_relaxed);
    report.steal_orders_handled = steal_orders_handled_;
    report.task_iterations = shared_.task_iterations->value();
    report.spilled_batches = shared_.spilled_batches->value();
    report.stolen_batches = stolen_batches_->value();
    const auto& cs = shared_.cache.stats();
    report.vertex_requests = cs.new_requests.load(std::memory_order_relaxed);
    report.cache_hits = cs.hits.load(std::memory_order_relaxed);
    report.cache_evictions = cs.evictions.load(std::memory_order_relaxed);
    report.peak_mem_bytes = shared_.mem.peak();
    report.cache_requests = cs.requests.load(std::memory_order_relaxed);
    for (const auto& engine : engines_) {
      report.comper_idle_rounds += engine->IdleRounds();
      report.comper_rounds += engine->Rounds();
    }
    TaskLedger& ledger = report.ledger;
    ledger.spawned = shared_.tasks_spawned->value();
    ledger.restored = shared_.tasks_restored.load(std::memory_order_relaxed);
    ledger.finished = shared_.tasks_finished->value();
    ledger.spilled = shared_.tasks_spilled.load(std::memory_order_relaxed);
    ledger.loaded = shared_.tasks_loaded.load(std::memory_order_relaxed);
    ledger.donated = shared_.tasks_donated.load(std::memory_order_relaxed);
    ledger.received = shared_.tasks_received.load(std::memory_order_relaxed);
    ledger.disk_donated =
        shared_.tasks_disk_donated.load(std::memory_order_relaxed);
    report.tasks_live = shared_.live_tasks.load();
    report.tasks_on_disk = shared_.l_file.TotalRecords();
    // Ledger delta at progress cadence: a crash dump shows the conservation
    // trajectory (expected vs observed live) right up to the violation.
    shared_.RecordEvent(-1, {.kind = obs::EventKind::kLedger,
                             .a = ledger.ExpectedLive(),
                             .b = report.tasks_live});
    report.drained_messages = drained_messages_;
    report.queue_depth = static_cast<int64_t>(queued);
    report.cache_size = shared_.cache.ApproxSize();
    report.spill_queue_depth = shared_.l_file.QueueDepth();
    report.inbox_depth = shared_.hub->InboxDepth(shared_.id);
    {
      Serializer ser;
      Codec<AggT>::Encode(ser, shared_.agg.TakeLocal());
      report.agg_delta = ser.Release();
    }
    shared_.Send(shared_.config.num_workers, MsgType::kProgressReport,
                 report.Encode());
  }

  // ---------------------------------------------------------------------
  // Checkpointing (paper §V-B "Fault Tolerance").
  // ---------------------------------------------------------------------

  void DoCheckpoint(uint64_t epoch) {
    GT_CHECK(checkpoint_dfs_ != nullptr) << "checkpoint without a DFS";
    // Park every comper between iterations so the snapshot is quiescent.
    shared_.pause.store(true, std::memory_order_release);
    {
      std::unique_lock<std::mutex> lock(shared_.pause_mutex);
      shared_.pause_cv.wait(lock, [this] {
        return shared_.compers_parked == static_cast<int>(engines_.size());
      });
    }
    std::vector<std::string> records;
    for (auto& engine : engines_) engine->tasks().AppendRecords(&records);
    // Spilled batches are checkpointed by content, without popping them
    // (they stay in L_file for the continuing run, and their files on local
    // disk, which a failure would wipe). The kTaskBatch quiesce already ran
    // master-side and the compers are parked, so nothing is pushed or
    // popped meanwhile.
    shared_.l_file.CopyRecords(&records);
    // Self-check: with the compers parked and (master-enforced) no donated
    // batch on the wire, the snapshot must cover exactly the live tasks.
    GT_CHECK_EQ(static_cast<int64_t>(records.size()),
                shared_.live_tasks.load())
        << "worker " << shared_.id << " checkpoint missed live tasks";
    WorkerCheckpoint ckpt;
    ckpt.spawn_next = shared_.next_spawn.load(std::memory_order_relaxed);
    ckpt.records = std::move(records);
    const std::string key = "ckpt/" + std::to_string(epoch) + "/worker_" +
                            std::to_string(shared_.id);
    GT_CHECK_OK(checkpoint_dfs_->Put(key, ckpt.Encode()));
    shared_.RecordEvent(-1, {.kind = obs::EventKind::kCheckpoint,
                             .a = static_cast<int64_t>(epoch)});
    // The ack, the first report carrying this epoch, cuts its aggregator
    // delta while the compers are still parked: everything committed so far
    // is pre-snapshot. Releasing first would let a resumed comper finish a
    // task just serialized into the snapshot and commit it into this delta,
    // which a resume would then count twice.
    checkpoint_epoch_ = epoch;
    SendProgress(/*final_report=*/false);
    shared_.pause.store(false, std::memory_order_release);
    shared_.pause_cv.notify_all();
  }

  /// What the threads share; declared first, so it outlives the engines.
  WorkerShared<ComperT> shared_;

  // ---- the loading thread's, before Start ----
  TrimmerFn trimmer_;
  MiniDfs* checkpoint_dfs_ = nullptr;  // read by the comm thread after Start
  bool started_ = false;
  std::vector<std::thread> threads_;

  // ---- one ComperEngine per mining thread ----
  std::vector<std::unique_ptr<Engine>> engines_;

  // ---- the comm thread's ----
  std::unique_ptr<ComperT> steal_comper_;
  StealRuntime steal_runtime_{&shared_};
  // Repeated by every progress report.
  uint64_t checkpoint_epoch_ = 0;  // the last epoch snapshotted
  bool quiesced_ = false;          // the drain's local quiesce
  int64_t steal_orders_handled_ = 0;
  int64_t data_processed_ = 0;
  int64_t drained_messages_ = 0;  // handled after kTerminate
  obs::Histogram* const steal_rtt_us_ =
      shared_.metrics.GetHistogram("steal.rtt_us");
  obs::Counter* const stolen_batches_ =
      shared_.metrics.GetCounter("steal.batches_received");
  /// Donation-packing time (worker row of the phase profile).
  obs::Counter* const phase_steal_us_ =
      shared_.metrics.GetCounter("phase.steal_us");
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_WORKER_H_
