#ifndef GTHINKER_CORE_COMPER_ENGINE_H_
#define GTHINKER_CORE_COMPER_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/aggregator.h"
#include "core/comper.h"
#include "core/config.h"
#include "core/protocol.h"
#include "core/pull_coalescer.h"
#include "core/task_deque.h"
#include "core/vertex_cache.h"
#include "graph/layout.h"
#include "net/comm_hub.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/phase_profile.h"
#include "obs/span_trace.h"
#include "storage/spill_file.h"
#include "storage/spill_list.h"
#include "util/logging.h"
#include "util/mem_tracker.h"
#include "util/timer.h"

namespace gthinker {

/// The worker vertex v is assigned to (Pregel-style ID hashing).
inline int OwnerOf(VertexId v, int num_workers) {
  return static_cast<int>(v % static_cast<VertexId>(num_workers));
}

/// The state of one machine that more than one of its threads touches
/// (paper Fig. 7): the tables its n compers (ComperEngine) and its
/// communication thread (Worker) share, the flags they signal each other
/// with, the task ledger, and the helpers both sides call. Everything else
/// a Worker or ComperEngine holds is owned by one thread.
template <typename ComperT>
struct WorkerShared {
  using VertexT = typename ComperT::TaskT::VertexT;

  WorkerShared(int worker_id, const JobConfig& job_config, CommHub* comm_hub,
               std::string spill_dir)
      : id(worker_id),
        config(job_config),
        hub(comm_hub),
        cache(config.cache_num_buckets, config.cache_capacity,
              config.cache_overflow_alpha, kCacheCounterDelta, &mem,
              config.cache_use_z_table),
        coalescer(config.num_workers, kRequestBatchSize),
        metrics("worker" + std::to_string(worker_id)),
        l_file(std::move(spill_dir)) {
    // Disk timings of L_file's writer thread and of its pops' disk reads.
    l_file.SetWriteObserver([us_h = metrics.GetHistogram("spill.write_us"),
                             bytes_c = metrics.GetCounter("spill.write_bytes")](
                                int64_t us, int64_t bytes) {
      us_h->Record(us);
      bytes_c->Add(bytes);
    });
    l_file.SetReadObserver([us_h = metrics.GetHistogram("spill.read_us"),
                            bytes_c = metrics.GetCounter("spill.read_bytes")](
                               int64_t us, int64_t bytes) {
      us_h->Record(us);
      bytes_c->Add(bytes);
    });
  }

  bool IsLocal(VertexId v) const {
    return OwnerOf(v, config.num_workers) == id;
  }

  /// The one map from an ID to its T_local slot; slot order is ascending ID.
  size_t SlotOf(VertexId v) const { return v / config.num_workers; }

  /// T_local's row of vertex v: an index read, for a v this worker owns.
  VertexT& LocalVertex(VertexId v) { return local[SlotOf(v)]; }

  /// Task-lifecycle ledger entry points. live_tasks is the single source of
  /// truth for "does this worker hold any task": it is incremented *before* a
  /// task becomes reachable (spawn/restore/receive) and decremented only
  /// after the task is dead (finished) or has left the worker (donated), so
  /// live_tasks==0 can never be observed while a task is in a comper's
  /// hands between queue and pending-table — the idle-detection race that a
  /// multi-container emptiness check (Q/B/T + executing flag) suffered from.
  void OnTaskSpawned() {
    live_tasks.fetch_add(1);
    tasks_spawned->Increment();
  }

  void OnTaskFinished() {
    tasks_finished->Increment();
    if (live_tasks.fetch_sub(1) == 1) NotifyIfIdle();
  }

  /// Called right after a thread dropped live_tasks or compers_spawning to
  /// zero. If the worker is now idle, owes the master a progress report and
  /// wakes the comm thread to send it, so the master hears of the idleness
  /// now rather than at the next progress tick. Both counters are seq_cst,
  /// so of a comper finishing the last task and one finding the spawn order
  /// exhausted at the same moment, at least one sees both at zero.
  void NotifyIfIdle() {
    if (!SpawnDone() || live_tasks.load() != 0) return;
    report_due.store(true, std::memory_order_release);
    hub->Wake(id);
  }

  /// True once every comper has found the spawn order exhausted and flushed.
  /// Exhaustion alone is not enough: a comper's last claimed batch is in no
  /// queue and not yet live until its TaskSpawn calls (and the bundle
  /// close) return, so an idle report in that window would let the master
  /// end the job with work unspawned. The comm thread's own steal-spawns cannot
  /// interleave with its progress reports, so they need no count.
  bool SpawnDone() const { return compers_spawning.load() == 0; }

  /// Atomically claims up to `count` not-yet-spawned slots: ascending, or
  /// from the last slot down for a comper that declares kSpawnHubsFirst.
  void ClaimSpawnBatch(size_t count, std::vector<const VertexT*>* out) {
    out->clear();
    const size_t total = local.size();
    size_t begin = next_spawn.fetch_add(count, std::memory_order_relaxed);
    if (begin >= total) {
      next_spawn.store(total, std::memory_order_relaxed);
      return;
    }
    const size_t end = std::min(begin + count, total);
    for (size_t k = begin; k < end; ++k) {
      out->push_back(&local[ComperT::kSpawnHubsFirst ? total - 1 - k : k]);
    }
  }

  /// Records one scheduler transition in the job's event ring, stamped with
  /// this worker's id, `comper` (-1 for worker-level events) and, when t_us
  /// is 0, the hub clock's now (kExecute passes its slice start instead).
  /// Per-task kinds record only under enable_span_tracing. No-op until the
  /// cluster wires a recorder.
  void RecordEvent(int comper, obs::SpanEvent e) {
    if (recorder == nullptr ||
        (obs::IsTaskKind(e.kind) && !config.enable_span_tracing)) {
      return;
    }
    if (e.t_us == 0) e.t_us = hub->NowUs();
    e.worker = static_cast<int16_t>(id);
    e.comper = static_cast<int16_t>(comper);
    recorder->Record(e);
  }

  /// Globally-unique span identity: worker in the high 16 bits, a local
  /// sequence from 1 below. Never 0, which events and `parent` links read
  /// as "no span".
  uint64_t NextSpanId() {
    return (static_cast<uint64_t>(id) << 48) |
           span_seq.fetch_add(1, std::memory_order_relaxed);
  }

  /// Queues a vertex pull for batched sending (paper: requests are batched
  /// per destination to combat round-trip time). Only the first pull of a
  /// vertex gets here: RequestBatch creates its R-table entry, and later
  /// pulls join that entry's waiter list until the response lands. The
  /// coalescer flushes a destination at kRequestBatchSize IDs.
  void EnqueueVertexRequest(VertexId v) {
    const int dst = OwnerOf(v, config.num_workers);
    GT_CHECK_NE(dst, id) << "local vertex routed to the cache";
    std::vector<VertexId> to_send;
    bool opened = false;
    if (coalescer.Add(dst, v, &to_send, &opened)) {
      SendVertexRequest(dst, to_send);
    } else if (opened) {
      // The comm thread may be in a long wait: shorten it to a poll slice.
      window_opened.store(true, std::memory_order_release);
      hub->Wake(id);
    }
  }

  void SendVertexRequest(int dst, const std::vector<VertexId>& ids) {
    data_sent.fetch_add(1, std::memory_order_relaxed);
    requests_unanswered.fetch_add(1, std::memory_order_relaxed);
    Send(dst, MsgType::kVertexRequest, EncodeVertexRequest(ids));
  }

  /// Sends `payload` to endpoint `dst` as a `type` batch.
  void Send(int dst, MsgType type, Payload payload) {
    MessageBatch mb;
    mb.src_worker = id;
    mb.dst_worker = dst;
    mb.type = type;
    mb.payload = std::move(payload);
    hub->Send(std::move(mb));
  }

  /// Thread-safe output collection (paper §IV (5), data export): records
  /// buffer in memory and flush to batch files under the job's output dir.
  void WriteOutput(std::string record) {
    GT_CHECK(!output_dir.empty())
        << "Comper::Output used without Job::output_dir";
    std::vector<std::string> to_flush;
    {
      std::lock_guard<std::mutex> lock(output_mutex);
      output_buffer.push_back(std::move(record));
      records_output.fetch_add(1, std::memory_order_relaxed);
      if (output_buffer.size() >= kOutputFlushRecords) {
        to_flush.swap(output_buffer);
      }
    }
    if (!to_flush.empty()) FlushOutputBatch(to_flush);
  }

  void FinalFlushOutput() {
    std::vector<std::string> to_flush;
    {
      std::lock_guard<std::mutex> lock(output_mutex);
      to_flush.swap(output_buffer);
    }
    if (!to_flush.empty()) FlushOutputBatch(to_flush);
  }

  void FlushOutputBatch(const std::vector<std::string>& records) {
    std::string path;
    GT_CHECK_OK(SpillFile::WriteBatch(output_dir, records, &path));
  }

  /// A comper's side of the checkpoint park (see Worker::DoCheckpoint).
  void MaybePark() {
    if (!pause.load(std::memory_order_acquire)) return;
    std::unique_lock<std::mutex> lock(pause_mutex);
    ++compers_parked;
    pause_cv.notify_all();
    pause_cv.wait(lock, [this] {
      return !pause.load(std::memory_order_acquire) ||
             stop_compers.load(std::memory_order_acquire);
    });
    --compers_parked;
  }

  const int id;
  const JobConfig config;
  CommHub* const hub;

  // ---- the tables (set up on the loading thread before Start) ----
  std::vector<VertexT> local;          // T_local, indexed by SlotOf
  std::atomic<size_t> next_spawn{0};   // slots claimed for spawning
  MemTracker mem;
  VertexCache<VertexT> cache;          // T_cache
  AggregatorState<ComperT> agg;
  /// Per-destination pull batching (compers add, comm thread flushes).
  PullCoalescer coalescer;
  obs::MetricsRegistry metrics;  // docs/OBSERVABILITY.md
  /// L_file, with its writer thread. Declared after metrics, which its
  /// observers record into.
  SpillList l_file;
  const VertexLayout* layout = nullptr;     // null: IDs are the caller's
  obs::FlightRecorder* recorder = nullptr;  // owned by the cluster
  std::atomic<uint64_t> span_seq{1};

  // ---- output collection (Comper::Output) ----
  static constexpr size_t kOutputFlushRecords = 4096;
  std::string output_dir;  // empty: Output is an error
  std::mutex output_mutex;
  std::vector<std::string> output_buffer;
  std::atomic<int64_t> records_output{0};

  // ---- control ----
  std::atomic<bool> stop_compers{false};  // set by the comm thread only
  /// The checkpoint park: compers_parked is guarded by pause_mutex.
  std::atomic<bool> pause{false};
  std::mutex pause_mutex;
  std::condition_variable pause_cv;
  int compers_parked = 0;
  std::atomic<bool> evict_wanted{false};  // a gated comper wants GC
  /// A progress report is owed now: the worker turned idle (NotifyIfIdle)
  /// or the master sent kReportRequest. Consumed by the comm thread.
  std::atomic<bool> report_due{false};
  std::atomic<bool> window_opened{false};  // a comper opened a pull window
  std::atomic<int> compers_running{0};    // compers still in their loop
  std::atomic<int> compers_spawning{0};   // see SpawnDone
  // The wire terms of the master's release predicate (Master::WireEmpty).
  std::atomic<int64_t> data_sent{0};
  std::atomic<int64_t> requests_unanswered{0};

  // ---- task-conservation ledger (TaskLedger in core/protocol.h) ----
  // live_tasks uses seq_cst: it is the one value whose ==0 reading decides
  // worker idleness, and single-variable linearizability is the whole point.
  std::atomic<int64_t> live_tasks{0};
  obs::Counter* const tasks_spawned = metrics.GetCounter("tasks.spawned");
  obs::Counter* const tasks_finished = metrics.GetCounter("tasks.finished");
  std::atomic<int64_t> tasks_restored{0};
  std::atomic<int64_t> tasks_spilled{0};
  std::atomic<int64_t> tasks_loaded{0};
  std::atomic<int64_t> tasks_donated{0};
  std::atomic<int64_t> tasks_received{0};
  std::atomic<int64_t> tasks_disk_donated{0};
  obs::Counter* const task_iterations = metrics.GetCounter("tasks.iterations");
  obs::Counter* const spilled_batches = metrics.GetCounter("spill.batches");
};

/// The Comper<>::Runtime services every comper of a worker shares; each
/// runtime (ComperEngine, the worker's steal runtime) adds only its AddTask.
template <typename ComperT>
class WorkerRuntime : public Comper<typename ComperT::TaskT,
                                    typename ComperT::AggT>::Runtime {
 public:
  using AggT = typename ComperT::AggT;

  explicit WorkerRuntime(WorkerShared<ComperT>* shared) : shared_(shared) {}
  void Aggregate(const AggT& delta) override { shared_->agg.Aggregate(delta); }
  AggT CurrentAgg() const override { return shared_->agg.CurrentView(); }
  void Output(std::string record) override {
    shared_->WriteOutput(std::move(record));
  }
  VertexId OriginalId(VertexId v) const override {
    return shared_->layout != nullptr ? shared_->layout->ToOld(v) : v;
  }

 protected:
  WorkerShared<ComperT>* const shared_;
};

/// One mining thread of a worker (paper Fig. 7): the comper's push/pop
/// state machine over its TaskDeque, reaching T_local, T_cache, L_file and
/// the ledger through the worker's WorkerShared. Loop runs on the comper's
/// thread; OnPullArrived runs on the comm thread, and the worker reads
/// tasks(), IdleRounds() and Rounds() from there.
template <typename ComperT>
class ComperEngine final : public WorkerRuntime<ComperT> {
 public:
  using TaskT = typename ComperT::TaskT;
  using VertexT = typename TaskT::VertexT;
  /// A comper's Q_task, T_task and B_task; a parked record names its comper.
  using Tasks = TaskDeque<TaskT, ComperEngine>;
  using Parked = typename Tasks::Parked;

  ComperEngine(WorkerShared<ComperT>* shared, int index,
               std::unique_ptr<ComperT> user)
      : WorkerRuntime<ComperT>(shared),
        index_(index),
        user_(std::move(user)),
        tasks_(shared->config, &shared->l_file, &shared->mem) {
    user_->BindRuntime(this);
  }

  // ---- Comper<>::Runtime ----
  void AddTask(std::unique_ptr<TaskT> task) override {
    shared_->OnTaskSpawned();
    if (shared_->config.enable_span_tracing) {
      task->set_span_id(shared_->NextSpanId());
      shared_->RecordEvent(index_, {.id = task->span_id(),
                                    .parent = running_span_,
                                    .kind = obs::EventKind::kSpawn});
    }
    shared_->mem.Consume(task->MemoryBytes());
    Queue(std::move(task));
  }

  /// Mining-thread body: each round runs push() then (gates permitting)
  /// pop() (paper §V-B "Algorithm of a Comper").
  void Loop() {
    Timer loop_timer;
    Timer wait_timer;
    while (!shared_->stop_compers.load(std::memory_order_acquire)) {
      if (shared_->pause.load(std::memory_order_acquire)) {
        // Checkpoint park: accounted as queue-wait (nothing runnable by
        // decree, not for lack of work, but it is still non-compute wall
        // time of this comper).
        wait_timer.Restart();
        shared_->MaybePark();
        phase_queue_wait_.AddNanos(wait_timer.ElapsedNanos());
      }
      rounds_.fetch_add(1, std::memory_order_relaxed);
      bool did = Push();
      if (CanPop()) did = Pop() || did;
      if (!did) {
        // A round that processed nothing = CPU idle time, the quantity
        // G-thinker's design minimizes (paper §I). Reported per job.
        idle_rounds_.fetch_add(1, std::memory_order_relaxed);
        // Idle with parked tasks = waiting on remote pulls; idle with
        // nothing in flight = starved queue (imbalance/drain).
        wait_timer.Restart();
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        (tasks_.HasParked() ? phase_pull_wait_ : phase_queue_wait_)
            .AddNanos(wait_timer.ElapsedNanos());
      }
    }
    phase_loop_->Add(loop_timer.ElapsedMicros());
    shared_->cache.FlushCounter(&counter_);
    // Tells the comm thread's shutdown drain that this mining thread can
    // no longer originate vertex requests or donations; the last one out
    // wakes it, so the drain's quiesce step waits for no timeout.
    if (shared_->compers_running.fetch_sub(1, std::memory_order_acq_rel) ==
        1) {
      shared_->hub->Wake(shared_->id);
    }
  }

  /// Called by the comm thread when Γ(v) lands for `parked`, a task of
  /// this comper. The call that counts its last pull readies the task and
  /// moves it to B_task.
  void OnPullArrived(Parked* parked) {
    tasks_.Arrive(parked, [this](const Parked& p) { MarkReady(p); });
  }

  /// This comper's task store.
  const Tasks& tasks() const { return tasks_; }

  int64_t IdleRounds() const {
    return idle_rounds_.load(std::memory_order_relaxed);
  }

  int64_t Rounds() const { return rounds_.load(std::memory_order_relaxed); }

 private:
  using WorkerRuntime<ComperT>::shared_;

  /// push(): run one ready task from B_task (its pulls are all cached and
  /// locked for it).
  bool Push() {
    std::unique_ptr<TaskT> ready = tasks_.TakeReady();
    if (ready == nullptr) return false;
    ExecuteIteration(std::move(ready));
    return true;
  }

  /// pop() gates (paper: cache not overflowed, |T_task|+|B_task| <= D,
  /// counted in roots like the Q_task bounds). A comper that finds the
  /// cache gate closed wakes the comm thread, which evicts back down to
  /// c_cache. The exchange makes a burst of gated rounds one wake per
  /// pass; the wake is sticky, so none is lost.
  bool CanPop() {
    if (shared_->cache.Overflowed()) {
      if (!shared_->evict_wanted.exchange(true, std::memory_order_acq_rel)) {
        shared_->hub->Wake(shared_->id);
      }
      return false;
    }
    return tasks_.ParkedUnderCap();
  }

  /// pop(): take Q_task's head, refilled if low (TaskDeque::Pop), and
  /// resolve its pulls.
  bool Pop() {
    std::unique_ptr<TaskT> task = tasks_.Pop(
        [this] { return SpawnBatch(); },
        [this](std::span<const std::unique_ptr<TaskT>> loaded,
               int64_t nanos) { OnLoaded(loaded, nanos); });
    if (task == nullptr) return false;
    Resolve(std::move(task));
    return true;
  }

  /// Records a batch the refill read back from L_file.
  void OnLoaded(std::span<const std::unique_ptr<TaskT>> loaded,
                int64_t nanos) {
    if (shared_->config.enable_span_tracing) {
      for (const auto& task : loaded) {
        // Fresh span: the disk round-trip (or a steal) broke the old
        // lifecycle, so the reloaded task starts a new one here.
        task->set_span_id(shared_->NextSpanId());
        TaskEvent(obs::EventKind::kLoaded, task->span_id());
      }
    }
    const auto count = static_cast<int64_t>(loaded.size());
    shared_->tasks_loaded.fetch_add(count, std::memory_order_relaxed);
    refill_spill_tasks_->Add(count);
    phase_spill_.AddNanos(nanos);
    shared_->RecordEvent(index_,
                         {.kind = obs::EventKind::kSpillLoad, .a = count});
  }

  /// Spawns one batch of new tasks from T_local; false when exhausted.
  /// A bundling app's batch becomes one root-bundle task.
  bool SpawnBatch() {
    if (spawn_exhausted_) return false;
    std::vector<const VertexT*> to_spawn;
    shared_->ClaimSpawnBatch(shared_->config.task_batch_size, &to_spawn);
    if (to_spawn.empty()) {
      spawn_exhausted_ = true;
      // Every task this comper spawned is live by now (see SpawnDone).
      if (shared_->compers_spawning.fetch_sub(1) == 1) {
        shared_->NotifyIfIdle();
      }
      return false;
    }
    for (const VertexT* v : to_spawn) {
      user_->TaskSpawn(*v);  // UDF; AddTask or AddRoot
    }
    this->CloseRootBundle();
    refill_spawn_tasks_->Add(static_cast<int64_t>(to_spawn.size()));
    shared_->RecordEvent(index_,
                         {.kind = obs::EventKind::kSpawnBatch,
                          .a = static_cast<int64_t>(to_spawn.size())});
    return true;
  }

  /// Appends to Q_task, and records the batch TaskDeque::Push spilled to
  /// make room, if any (paper §V-B (1)). A task is charged to mem at its
  /// current size from the moment its comper holds it (AddTask, a refill)
  /// until it is spilled or finished, whether queued, parked or computing.
  void Queue(std::unique_ptr<TaskT> task) {
    const typename Tasks::Spill spill = tasks_.Push(std::move(task));
    if (spill.tasks == 0) return;
    shared_->spilled_batches->Increment();
    shared_->tasks_spilled.fetch_add(spill.tasks, std::memory_order_relaxed);
    phase_spill_.AddNanos(spill.nanos);
    shared_->RecordEvent(
        index_, {.kind = obs::EventKind::kSpillWrite, .a = spill.tasks});
  }

  /// Resolves P(t): local pulls read T_local directly; remote pulls go
  /// through T_cache (OP1). If everything is available the task computes
  /// right away; otherwise it parks in T_task until the comm thread
  /// declares it ready.
  void Resolve(std::unique_ptr<TaskT> task) {
    CollectRemotePulls(task->pulls());
    if (remote_scratch_.empty()) {
      ExecuteIteration(std::move(task));
      return;
    }
    TaskEvent(obs::EventKind::kPending, task->span_id());
    Parked* parked =
        tasks_.Park(this, std::move(task), shared_->hub->NowUs(),
                    static_cast<int>(remote_scratch_.size()));
    // Batched OP1: all of this task's remote pulls resolve with one lock
    // acquisition per distinct bucket instead of one per vertex.
    new_request_scratch_.clear();
    const int hits = shared_->cache.RequestBatch(
        remote_scratch_.data(), remote_scratch_.size(), parked->Waiter(),
        &counter_, &new_request_scratch_);
    for (VertexId v : new_request_scratch_) {
      shared_->EnqueueVertexRequest(v);
    }
    // Drop the hold with the hits. Reaching zero here means every pull
    // hit, or the responses raced in while the pulls were registering.
    if (Tasks::CountDown(parked, hits + 1)) {
      MarkReady(*parked);
      ExecuteIteration(tasks_.Unpark(parked));
    }
  }

  /// The pending->ready transition of a task whose pulls are all in
  /// T_cache: its wait time and kReady event.
  void MarkReady(const Parked& parked) {
    task_wait_us_->Record(shared_->hub->NowUs() - parked.parked_at_us);
    TaskEvent(obs::EventKind::kReady, parked.task->span_id());
  }

  /// One compute() iteration: build the frontier in pull order, run the
  /// UDF, then release every remote pull back to the cache (OP3) so GC can
  /// evict in time.
  void ExecuteIteration(std::unique_ptr<TaskT> task) {
    // The size the task is charged at, its pulls included.
    const int64_t charged = task->MemoryBytes();
    const std::vector<VertexId> pulls = task->TakePulls();
    typename ComperT::Frontier frontier;
    frontier.reserve(pulls.size());
    for (VertexId v : pulls) {
      if (shared_->IsLocal(v)) {
        frontier.push_back(&shared_->LocalVertex(v));
      } else {
        frontier.push_back(shared_->cache.GetLocked(v));
      }
    }
    running_span_ = task->span_id();
    Timer compute_timer;
    const bool more = user_->Compute(task.get(), frontier);
    const int64_t compute_ns = compute_timer.ElapsedNanos();
    const int64_t compute_us = compute_ns / 1000;
    running_span_ = 0;
    compute_us_->Record(compute_us);
    phase_compute_.AddNanos(compute_ns);
    if (shared_->config.enable_span_tracing) {
      // Stamp the slice at its start so the viewer draws [start, start+dur].
      shared_->RecordEvent(index_,
                           {.t_us = shared_->hub->NowUs() - compute_us,
                            .dur_us = compute_us,
                            .id = task->span_id(),
                            .kind = obs::EventKind::kExecute});
    }
    task->BumpIteration();
    // Re-measured once: what Compute grew (its subgraph, its next pulls)
    // reaches the tracked peak, and the task stays charged at this size.
    const int64_t bytes = task->MemoryBytes();
    shared_->mem.Consume(bytes - charged);
    // Batched OP3: one lock acquisition per distinct bucket.
    CollectRemotePulls(pulls);
    shared_->cache.ReleaseBatch(remote_scratch_.data(),
                                remote_scratch_.size());
    shared_->task_iterations->Increment();
    if (more) {
      Queue(std::move(task));
    } else {
      shared_->mem.Release(bytes);
      shared_->OnTaskFinished();
      TaskEvent(obs::EventKind::kFinish, task->span_id());
    }
  }

  /// This comper's phase.<name>_us counter.
  obs::Counter* Phase(const std::string& name) {
    return shared_->metrics.GetCounter("phase." + name + "_us",
                                       "comper=" + std::to_string(index_));
  }

  /// Per-task transition of span `id` on this comper (recorded only under
  /// enable_span_tracing).
  void TaskEvent(obs::EventKind kind, uint64_t id) {
    shared_->RecordEvent(index_, {.id = id, .kind = kind});
  }

  /// Filters a pull list down to the remote vertices, into the reused
  /// comper-thread scratch remote_scratch_ (occurrence order preserved, so
  /// batched cache ops replay duplicates exactly like the loop they
  /// replaced).
  void CollectRemotePulls(const std::vector<VertexId>& pulls) {
    remote_scratch_.clear();
    for (VertexId v : pulls) {
      if (!shared_->IsLocal(v)) remote_scratch_.push_back(v);
    }
  }

  const int index_;
  std::unique_ptr<ComperT> user_;
  SCacheCounter counter_;
  std::vector<VertexId> remote_scratch_;       // comper thread only
  std::vector<VertexId> new_request_scratch_;  // comper thread only

  // Span of the task whose Compute() is running (0 outside Compute): the
  // parent a task added from Compute records. Comper thread only.
  uint64_t running_span_ = 0;

  Tasks tasks_;
  bool spawn_exhausted_ = false;
  std::atomic<int64_t> idle_rounds_{0};
  std::atomic<int64_t> rounds_{0};
  // Metrics owned by shared_->metrics.
  obs::Histogram* const compute_us_ = shared_->metrics.GetHistogram(
      "comper.compute_iter_us", "comper=" + std::to_string(index_));
  obs::Histogram* const task_wait_us_ =
      shared_->metrics.GetHistogram("task.wait_us");
  obs::Counter* const refill_spill_tasks_ =
      shared_->metrics.GetCounter("refill.from_spill_tasks");
  obs::Counter* const refill_spawn_tasks_ =
      shared_->metrics.GetCounter("refill.from_spawn_tasks");
  // Phase-attribution counters (obs/phase_profile.h). Disjoint by
  // construction: every loop nanosecond lands in at most one of
  // compute/pull_wait/queue_wait/spill, and phase.loop_us (recorded once at
  // exit) is the total their sum is reconciled against.
  obs::PhaseCounter phase_compute_{Phase("compute")};
  obs::PhaseCounter phase_pull_wait_{Phase("pull_wait")};
  obs::PhaseCounter phase_queue_wait_{Phase("queue_wait")};
  obs::PhaseCounter phase_spill_{Phase("spill")};
  obs::Counter* phase_loop_ = Phase("loop");
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_COMPER_ENGINE_H_
