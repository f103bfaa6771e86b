#ifndef GTHINKER_CORE_WORKER_H_
#define GTHINKER_CORE_WORKER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/aggregator.h"
#include "core/codec.h"
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
#include "storage/mini_dfs.h"
#include "storage/spill_file.h"
#include "storage/spill_list.h"
#include "util/logging.h"
#include "util/mem_tracker.h"
#include "util/timer.h"

namespace gthinker {

/// One simulated machine (paper Fig. 3 / Fig. 7): a local vertex table
/// T_local, a remote-vertex cache T_cache, a list of spilled task files
/// L_file, n comper threads (each with a TaskDeque holding its Q_task and
/// its parked tasks, T_task and B_task) and one communication thread, which
/// also evicts from T_cache when a comper finds it overflowed (paper §V-A's
/// GC). The cluster driver plays the paper's "main thread of the master": it
/// receives progress reports and issues steal/terminate/checkpoint control
/// messages.
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
      : id_(worker_id),
        config_(config),
        hub_(hub),
        trimmer_(std::move(trimmer)),
        cache_(config.cache_num_buckets, config.cache_capacity,
               config.cache_overflow_alpha, kCacheCounterDelta,
               &mem_, config.cache_use_z_table),
        coalescer_(config.num_workers, kRequestBatchSize),
        metrics_("worker" + std::to_string(worker_id)),
        l_file_(std::move(spill_dir)) {
    master_id_ = config_.num_workers;  // master mailbox index
    task_wait_us_ = metrics_.GetHistogram("task.wait_us");
    steal_rtt_us_ = metrics_.GetHistogram("steal.rtt_us");
    obs::Histogram* spill_write_us = metrics_.GetHistogram("spill.write_us");
    obs::Histogram* spill_read_us = metrics_.GetHistogram("spill.read_us");
    obs::Counter* spill_write_bytes = metrics_.GetCounter("spill.write_bytes");
    obs::Counter* spill_read_bytes = metrics_.GetCounter("spill.read_bytes");
    refill_spill_tasks_ = metrics_.GetCounter("refill.from_spill_tasks");
    refill_spawn_tasks_ = metrics_.GetCounter("refill.from_spawn_tasks");
    phase_steal_us_ = metrics_.GetCounter("phase.steal_us");
    // Disk timings of L_file's writer thread and of its pops' disk reads.
    l_file_.SetWriteObserver(
        [spill_write_us, spill_write_bytes](int64_t us, int64_t bytes) {
          spill_write_us->Record(us);
          spill_write_bytes->Add(bytes);
        });
    l_file_.SetReadObserver(
        [spill_read_us, spill_read_bytes](int64_t us, int64_t bytes) {
          spill_read_us->Record(us);
          spill_read_bytes->Add(bytes);
        });
    for (int i = 0; i < config_.compers_per_worker; ++i) {
      engines_.push_back(std::make_unique<ComperEngine>(this, i, factory()));
    }
    steal_comper_ = factory();
    steal_runtime_ = std::make_unique<StealRuntime>(this);
    steal_comper_->BindRuntime(steal_runtime_.get());
  }

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  ~Worker() { Join(); }

  // ---------------------------------------------------------------------
  // Loading (before Start).
  // ---------------------------------------------------------------------

  /// True if vertex id is assigned to this worker (Pregel-style ID hashing).
  static int OwnerOf(VertexId v, int num_workers) {
    return static_cast<int>(v % static_cast<VertexId>(num_workers));
  }

  /// Sizes T_local for an input whose IDs are exactly 0..n-1: one slot per
  /// ID this worker owns (SlotOf), stamped with that ID, for the loader to
  /// fill through LocalVertex. Call once, first.
  void SizeLocalTable(VertexId n) {
    const size_t w = config_.num_workers;
    local_.resize((n + w - 1 - id_) / w);
    for (size_t s = 0; s < local_.size(); ++s) local_[s].id = s * w + id_;
  }

  /// T_local's row of vertex v: an index read, for a v this worker owns.
  VertexT& LocalVertex(VertexId v) { return local_[SlotOf(v)]; }

  /// Call once every row is filled. The Trimmer UDF (if any) runs here, so
  /// pulled responses already carry trimmed lists (§IV).
  void FinalizeLoad() {
    int64_t bytes = 0;
    for (VertexT& v : local_) {
      if (trimmer_) trimmer_(v);
      bytes += Codec<VertexT>::Bytes(v);
    }
    mem_.Consume(bytes);
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
    if (ckpt.spawn_next > local_.size()) {
      return Status::Corruption("worker checkpoint: spawn cursor past the " +
                                std::to_string(local_.size()) +
                                " local vertices");
    }
    const size_t batch = static_cast<size_t>(config_.task_batch_size);
    for (size_t begin = 0; begin < ckpt.records.size(); begin += batch) {
      const size_t end = std::min(begin + batch, ckpt.records.size());
      std::vector<std::string> records(
          std::make_move_iterator(ckpt.records.begin() + begin),
          std::make_move_iterator(ckpt.records.begin() + end));
      const auto count = static_cast<int64_t>(records.size());
      live_tasks_.fetch_add(count);
      tasks_restored_.fetch_add(count, std::memory_order_relaxed);
      l_file_.PushBack(std::move(records));
    }
    next_spawn_.store(ckpt.spawn_next, std::memory_order_relaxed);
    return Status::Ok();
  }

  // ---------------------------------------------------------------------
  // Lifecycle.
  // ---------------------------------------------------------------------

  void Start() {
    GT_CHECK(!started_);
    started_ = true;
    compers_running_.store(static_cast<int>(engines_.size()),
                           std::memory_order_release);
    compers_spawning_.store(static_cast<int>(engines_.size()));
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
    l_file_.Stop();
  }

  int64_t PeakMemBytes() const { return mem_.peak(); }

 private:
  class ComperEngine;
  /// A comper's Q_task, T_task and B_task; a parked record names its comper.
  using Tasks = TaskDeque<TaskT, ComperEngine>;
  using ParkedTask = typename Tasks::Parked;

  /// The Comper<>::Runtime services every comper of this worker shares;
  /// each runtime below adds only its own AddTask.
  class WorkerRuntime : public Comper<TaskT, AggT>::Runtime {
   public:
    explicit WorkerRuntime(Worker* worker) : worker_(worker) {}
    void Aggregate(const AggT& delta) override { worker_->agg_.Aggregate(delta); }
    AggT CurrentAgg() const override { return worker_->agg_.CurrentView(); }
    void Output(std::string record) override {
      worker_->WriteOutput(std::move(record));
    }
    VertexId OriginalId(VertexId v) const override {
      return worker_->OriginalId(v);
    }

   protected:
    Worker* const worker_;
  };

  // =======================================================================
  // ComperEngine: the per-mining-thread state machine of Fig. 7.
  // =======================================================================
  class ComperEngine final : public WorkerRuntime {
   public:
    ComperEngine(Worker* worker, int index, std::unique_ptr<ComperT> user)
        : WorkerRuntime(worker),
          index_(index),
          user_(std::move(user)),
          tasks_(worker->config_, &worker->l_file_, &worker->mem_) {
      user_->BindRuntime(this);
      const std::string label = "comper=" + std::to_string(index);
      compute_us_ =
          worker_->metrics_.GetHistogram("comper.compute_iter_us", label);
    }

    // ---- Comper<>::Runtime ----
    void AddTask(std::unique_ptr<TaskT> task) override {
      worker_->OnTaskSpawned();
      if (worker_->config_.enable_span_tracing) {
        task->set_span_id(worker_->NextSpanId());
        worker_->RecordEvent(index_, {.id = task->span_id(),
                                      .parent = running_span_,
                                      .kind = obs::EventKind::kSpawn});
      }
      worker_->mem_.Consume(task->MemoryBytes());
      Queue(std::move(task));
    }

    /// Mining-thread body: each round runs push() then (gates permitting)
    /// pop() (paper §V-B "Algorithm of a Comper").
    void Loop() {
      Timer loop_timer;
      Timer wait_timer;
      while (!worker_->stop_compers_.load(std::memory_order_acquire)) {
        if (worker_->pause_.load(std::memory_order_acquire)) {
          // Checkpoint park: accounted as queue-wait (nothing runnable by
          // decree, not for lack of work, but it is still non-compute wall
          // time of this comper).
          wait_timer.Restart();
          worker_->MaybePark();
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
      worker_->cache_.FlushCounter(&counter_);
      // Tells the comm thread's shutdown drain that this mining thread can
      // no longer originate vertex requests or donations; the last one out
      // wakes it, so the drain's quiesce step waits for no timeout.
      if (worker_->compers_running_.fetch_sub(1, std::memory_order_acq_rel) ==
          1) {
        worker_->hub_->Wake(worker_->id_);
      }
    }

    /// Called by the comm thread when Γ(v) lands for `parked`, a task of
    /// this comper. The call that counts its last pull readies the task and
    /// moves it to B_task.
    void OnPullArrived(ParkedTask* parked) {
      tasks_.Arrive(parked, [this](const ParkedTask& p) { MarkReady(p); });
    }

    /// This comper's task store.
    const Tasks& tasks() const { return tasks_; }

    int64_t IdleRounds() const {
      return idle_rounds_.load(std::memory_order_relaxed);
    }

    int64_t Rounds() const { return rounds_.load(std::memory_order_relaxed); }

   private:
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
      if (worker_->cache_.Overflowed()) {
        if (!worker_->evict_wanted_.exchange(true,
                                             std::memory_order_acq_rel)) {
          worker_->hub_->Wake(worker_->id_);
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
      if (worker_->config_.enable_span_tracing) {
        for (const auto& task : loaded) {
          // Fresh span: the disk round-trip (or a steal) broke the old
          // lifecycle, so the reloaded task starts a new one here.
          task->set_span_id(worker_->NextSpanId());
          TaskEvent(obs::EventKind::kLoaded, task->span_id());
        }
      }
      const auto count = static_cast<int64_t>(loaded.size());
      worker_->tasks_loaded_.fetch_add(count, std::memory_order_relaxed);
      worker_->refill_spill_tasks_->Add(count);
      phase_spill_.AddNanos(nanos);
      worker_->RecordEvent(index_,
                           {.kind = obs::EventKind::kSpillLoad, .a = count});
    }

    /// Spawns one batch of new tasks from T_local; false when exhausted.
    /// A bundling app's batch becomes one root-bundle task.
    bool SpawnBatch() {
      if (spawn_exhausted_) return false;
      std::vector<const VertexT*> to_spawn;
      worker_->ClaimSpawnBatch(worker_->config_.task_batch_size, &to_spawn);
      if (to_spawn.empty()) {
        spawn_exhausted_ = true;
        // Every task this comper spawned is live by now (see SpawnDone).
        if (worker_->compers_spawning_.fetch_sub(1) == 1) {
          worker_->NotifyIfIdle();
        }
        return false;
      }
      for (const VertexT* v : to_spawn) {
        user_->TaskSpawn(*v);  // UDF; AddTask or AddRoot
      }
      this->CloseRootBundle();
      worker_->refill_spawn_tasks_->Add(static_cast<int64_t>(to_spawn.size()));
      worker_->RecordEvent(
          index_, {.kind = obs::EventKind::kSpawnBatch,
                   .a = static_cast<int64_t>(to_spawn.size())});
      return true;
    }

    /// Appends to Q_task, and records the batch TaskDeque::Push spilled to
    /// make room, if any (paper §V-B (1)). A task is charged to mem_ at its
    /// current size from the moment its comper holds it (AddTask, a refill)
    /// until it is spilled or finished, whether queued, parked or computing.
    void Queue(std::unique_ptr<TaskT> task) {
      const typename Tasks::Spill spill = tasks_.Push(std::move(task));
      if (spill.tasks == 0) return;
      worker_->spilled_batches_.fetch_add(1, std::memory_order_relaxed);
      worker_->tasks_spilled_.fetch_add(spill.tasks, std::memory_order_relaxed);
      phase_spill_.AddNanos(spill.nanos);
      worker_->RecordEvent(
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
      ParkedTask* parked =
          tasks_.Park(this, std::move(task), worker_->hub_->NowUs(),
                      static_cast<int>(remote_scratch_.size()));
      // Batched OP1: all of this task's remote pulls resolve with one lock
      // acquisition per distinct bucket instead of one per vertex.
      new_request_scratch_.clear();
      const int hits = worker_->cache_.RequestBatch(
          remote_scratch_.data(), remote_scratch_.size(), parked->Waiter(),
          &counter_, &new_request_scratch_);
      for (VertexId v : new_request_scratch_) {
        worker_->EnqueueVertexRequest(v);
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
    void MarkReady(const ParkedTask& parked) {
      worker_->task_wait_us_->Record(worker_->hub_->NowUs() -
                                     parked.parked_at_us);
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
        if (worker_->IsLocal(v)) {
          frontier.push_back(&worker_->LocalVertex(v));
        } else {
          frontier.push_back(worker_->cache_.GetLocked(v));
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
      if (worker_->config_.enable_span_tracing) {
        // Stamp the slice at its start so the viewer draws [start, start+dur].
        worker_->RecordEvent(index_,
                             {.t_us = worker_->hub_->NowUs() - compute_us,
                              .dur_us = compute_us,
                              .id = task->span_id(),
                              .kind = obs::EventKind::kExecute});
      }
      task->BumpIteration();
      // Re-measured once: what Compute grew (its subgraph, its next pulls)
      // reaches the tracked peak, and the task stays charged at this size.
      const int64_t bytes = task->MemoryBytes();
      worker_->mem_.Consume(bytes - charged);
      // Batched OP3: one lock acquisition per distinct bucket.
      CollectRemotePulls(pulls);
      worker_->cache_.ReleaseBatch(remote_scratch_.data(),
                                   remote_scratch_.size());
      worker_->task_iterations_.fetch_add(1, std::memory_order_relaxed);
      if (more) {
        Queue(std::move(task));
      } else {
        worker_->mem_.Release(bytes);
        worker_->OnTaskFinished();
        TaskEvent(obs::EventKind::kFinish, task->span_id());
      }
    }

    /// This comper's phase.<name>_us counter.
    obs::Counter* Phase(const std::string& name) {
      return worker_->metrics_.GetCounter("phase." + name + "_us",
                                          "comper=" + std::to_string(index_));
    }

    /// Per-task transition of span `id` on this comper (recorded only under
    /// enable_span_tracing).
    void TaskEvent(obs::EventKind kind, uint64_t id) {
      worker_->RecordEvent(index_, {.id = id, .kind = kind});
    }

    /// Filters a pull list down to the remote vertices, into the reused
    /// comper-thread scratch remote_scratch_ (occurrence order preserved, so
    /// batched cache ops replay duplicates exactly like the loop they
    /// replaced).
    void CollectRemotePulls(const std::vector<VertexId>& pulls) {
      remote_scratch_.clear();
      for (VertexId v : pulls) {
        if (!worker_->IsLocal(v)) remote_scratch_.push_back(v);
      }
    }

    using WorkerRuntime::worker_;
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
    obs::Histogram* compute_us_ = nullptr;  // owned by worker_->metrics_
    // Phase-attribution counters (obs/phase_profile.h), over counters owned
    // by worker_->metrics_. Disjoint by construction: every loop nanosecond
    // lands in at most one of compute/pull_wait/queue_wait/spill, and
    // phase.loop_us (recorded once at exit) is the total their sum is
    // reconciled against.
    obs::PhaseCounter phase_compute_{Phase("compute")};
    obs::PhaseCounter phase_pull_wait_{Phase("pull_wait")};
    obs::PhaseCounter phase_queue_wait_{Phase("queue_wait")};
    obs::PhaseCounter phase_spill_{Phase("spill")};
    obs::Counter* phase_loop_ = Phase("loop");
  };

  // =======================================================================
  // StealRuntime: lets the comm thread spawn tasks for donation without
  // touching any comper's queue. AddTask serializes straight into the
  // donation batch.
  // =======================================================================
  class StealRuntime final : public WorkerRuntime {
   public:
    using WorkerRuntime::WorkerRuntime;
    void AddTask(std::unique_ptr<TaskT> task) override {
      // Spawned straight into the donation batch: counts as spawned (and
      // momentarily live) here, then as donated once the batch ships.
      this->worker_->OnTaskSpawned();
      sink_->push_back(Tasks::Encode(*task));
    }
    void SetSink(std::vector<std::string>* sink) { sink_ = sink; }

   private:
    std::vector<std::string>* sink_ = nullptr;
  };


  // ---------------------------------------------------------------------
  // Shared helpers.
  // ---------------------------------------------------------------------

  bool IsLocal(VertexId v) const {
    return OwnerOf(v, config_.num_workers) == id_;
  }

  /// Task-lifecycle ledger entry points. live_tasks_ is the single source of
  /// truth for "does this worker hold any task": it is incremented *before* a
  /// task becomes reachable (spawn/restore/receive) and decremented only
  /// after the task is dead (finished) or has left the worker (donated), so
  /// live_tasks_==0 can never be observed while a task is in a comper's
  /// hands between queue and pending-table — the idle-detection race that a
  /// multi-container emptiness check (Q/B/T + executing flag) suffered from.
  void OnTaskSpawned() {
    live_tasks_.fetch_add(1);
    tasks_spawned_.fetch_add(1, std::memory_order_relaxed);
  }

  void OnTaskFinished() {
    tasks_finished_.fetch_add(1, std::memory_order_relaxed);
    if (live_tasks_.fetch_sub(1) == 1) NotifyIfIdle();
  }

  /// Called right after a thread dropped live_tasks_ or compers_spawning_ to
  /// zero. If the worker is now idle, owes the master a progress report and
  /// wakes the comm thread to send it, so the master hears of the idleness
  /// now rather than at the next progress tick. Both counters are seq_cst,
  /// so of a comper finishing the last task and one finding the spawn order
  /// exhausted at the same moment, at least one sees both at zero.
  void NotifyIfIdle() {
    if (!SpawnDone() || live_tasks_.load() != 0) return;
    report_due_.store(true, std::memory_order_release);
    hub_->Wake(id_);
  }

  /// Records one scheduler transition in the job's event ring, stamped with
  /// this worker's id, `comper` (-1 for worker-level events) and, when t_us
  /// is 0, the hub clock's now (kExecute passes its slice start instead).
  /// Per-task kinds record only under enable_span_tracing. No-op until the
  /// cluster wires a recorder.
  void RecordEvent(int comper, obs::SpanEvent e) {
    if (recorder_ == nullptr ||
        (obs::IsTaskKind(e.kind) && !config_.enable_span_tracing)) {
      return;
    }
    if (e.t_us == 0) e.t_us = hub_->NowUs();
    e.worker = static_cast<int16_t>(id_);
    e.comper = static_cast<int16_t>(comper);
    recorder_->Record(e);
  }

  /// Globally-unique span identity: worker in the high 16 bits, a local
  /// sequence from 1 below. Never 0, which events and `parent` links read
  /// as "no span".
  uint64_t NextSpanId() {
    return (static_cast<uint64_t>(id_) << 48) |
           span_seq_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Thread-safe output collection (paper §IV (5), data export): records
  /// buffer in memory and flush to batch files under the job's output dir.
  void WriteOutput(std::string record) {
    GT_CHECK(!output_dir_.empty())
        << "Comper::Output used without Job::output_dir";
    std::vector<std::string> to_flush;
    {
      std::lock_guard<std::mutex> lock(output_mutex_);
      output_buffer_.push_back(std::move(record));
      records_output_.fetch_add(1, std::memory_order_relaxed);
      if (output_buffer_.size() >= kOutputFlushRecords) {
        to_flush.swap(output_buffer_);
      }
    }
    if (!to_flush.empty()) FlushOutputBatch(to_flush);
  }

  void FlushOutputBatch(const std::vector<std::string>& records) {
    std::string path;
    GT_CHECK_OK(SpillFile::WriteBatch(output_dir_, records, &path));
  }

  void FinalFlushOutput() {
    std::vector<std::string> to_flush;
    {
      std::lock_guard<std::mutex> lock(output_mutex_);
      to_flush.swap(output_buffer_);
    }
    if (!to_flush.empty()) FlushOutputBatch(to_flush);
  }

  /// The one map from an ID to its T_local slot; slot order is ascending ID.
  size_t SlotOf(VertexId v) const { return v / config_.num_workers; }

  /// Atomically claims up to `count` not-yet-spawned slots: ascending, or
  /// from the last slot down for a comper that declares kSpawnHubsFirst.
  void ClaimSpawnBatch(size_t count, std::vector<const VertexT*>* out) {
    out->clear();
    const size_t total = local_.size();
    size_t begin = next_spawn_.fetch_add(count, std::memory_order_relaxed);
    if (begin >= total) {
      next_spawn_.store(total, std::memory_order_relaxed);
      return;
    }
    const size_t end = std::min(begin + count, total);
    for (size_t k = begin; k < end; ++k) {
      out->push_back(&local_[ComperT::kSpawnHubsFirst ? total - 1 - k : k]);
    }
  }

  /// True once every comper has found the spawn order exhausted and flushed.
  /// Exhaustion alone is not enough: a comper's last claimed batch is in no
  /// queue and not yet live until its TaskSpawn calls (and the bundle
  /// close) return, so an idle report in that window would let the master
  /// end the job with work unspawned. The comm thread's own steal-spawns cannot
  /// interleave with its progress reports, so they need no count.
  bool SpawnDone() const { return compers_spawning_.load() == 0; }

  /// Queues a vertex pull for batched sending (paper: requests are batched
  /// per destination to combat round-trip time). Only the first pull of a
  /// vertex gets here: RequestBatch creates its R-table entry, and later
  /// pulls join that entry's waiter list until the response lands. The
  /// coalescer flushes a destination at kRequestBatchSize IDs.
  void EnqueueVertexRequest(VertexId v) {
    const int dst = OwnerOf(v, config_.num_workers);
    GT_CHECK_NE(dst, id_) << "local vertex routed to the cache";
    std::vector<VertexId> to_send;
    bool opened = false;
    if (coalescer_.Add(dst, v, &to_send, &opened)) {
      SendVertexRequest(dst, to_send);
    } else if (opened) {
      // The comm thread may be in a long wait: shorten it to a poll slice.
      window_opened_.store(true, std::memory_order_release);
      hub_->Wake(id_);
    }
  }

  void FlushAllRequests() {
    std::vector<VertexId> to_send;
    for (int dst = 0; dst < config_.num_workers; ++dst) {
      if (coalescer_.Flush(dst, &to_send)) SendVertexRequest(dst, to_send);
    }
  }

  void SendVertexRequest(int dst, const std::vector<VertexId>& ids) {
    MessageBatch mb;
    mb.src_worker = id_;
    mb.dst_worker = dst;
    mb.type = MsgType::kVertexRequest;
    mb.payload = EncodeVertexRequest(ids);
    data_sent_.fetch_add(1, std::memory_order_relaxed);
    requests_unanswered_.fetch_add(1, std::memory_order_relaxed);
    hub_->Send(std::move(mb));
  }

  // ---------------------------------------------------------------------
  // Communication thread.
  // ---------------------------------------------------------------------

  /// Receive-wait slice while request batches are open.
  static constexpr int64_t kCommPollUs = 200;

  /// The comm thread (paper §V-B): one receive loop runs the job and its
  /// lossless shutdown. Receive is event-driven: the transport's readiness
  /// signal (the mailbox condition variable in-process; the poll(2) IO
  /// thread feeding it under tcp) wakes this thread the moment a batch
  /// lands, and CommHub::Wake wakes it for what happens outside the inbox —
  /// a comper opening a pull window, finding T_cache overflowed, turning the
  /// worker idle or exiting. So a wait lasts until the next progress report
  /// is due.
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
    Timer progress_timer;
    bool released = false;
    while (!released) {
      int64_t wait_us = std::max<int64_t>(
          config_.progress_interval_us - progress_timer.ElapsedMicros(), 1);
      if (coalescer_.HasPending()) {
        // Open request batches flush on the short comm cadence so
        // sub-threshold pulls are not delayed by an idle-length wait.
        wait_us = std::min(wait_us, kCommPollUs);
      }
      // Only this thread sets stop_compers_ (on kTerminate).
      const bool terminated = stop_compers_.load(std::memory_order_relaxed);
      MessageBatch mb;
      const bool got = hub_->Receive(id_, wait_us, &mb);
      if (got) {
        if (terminated) {
          drained_messages_.fetch_add(1, std::memory_order_relaxed);
        }
        HandleMessage(mb);
      }
      // A wake that announced a new pull window only shortens the wait: the
      // window fills for one poll slice before it flushes.
      if (!window_opened_.exchange(false, std::memory_order_acq_rel) || got) {
        FlushAllRequests();
      }
      // The relaxed load keeps idle passes of this loop from writing the
      // flag. It is cleared before the scan: a comper gated during it wakes
      // one more pass.
      if (evict_wanted_.load(std::memory_order_relaxed) &&
          evict_wanted_.exchange(false, std::memory_order_acq_rel)) {
        EvictPass();
      }
      // Besides the cadence, a report goes out the moment the worker turns
      // idle (NotifyIfIdle), when the master asks (kReportRequest) and,
      // once quiesced, when a drain term moved.
      const bool drain_moved =
          quiesced_ && got &&
          (mb.type == MsgType::kVertexResponse ||
           mb.type == MsgType::kTaskBatch);
      if (report_due_.exchange(false, std::memory_order_acq_rel) ||
          drain_moved ||
          progress_timer.ElapsedMicros() >= config_.progress_interval_us) {
        SendProgress(/*final_report=*/false);
        progress_timer.Restart();
      }
      if (!quiesced_ && stop_compers_.load(std::memory_order_relaxed) &&
          compers_running_.load(std::memory_order_acquire) == 0) {
        FlushAllRequests();
        RecordEvent(-1, {.kind = obs::EventKind::kDrain, .a = 1});  // quiesced
        quiesced_ = true;
        SendProgress(/*final_report=*/false);
        progress_timer.Restart();
      }
      released = got && mb.type == MsgType::kDrainBarrier;
    }
    RecordEvent(-1, {.kind = obs::EventKind::kDrain, .a = 2});  // released
    if (!output_dir_.empty()) FinalFlushOutput();
    RecordEvent(-1, {.kind = obs::EventKind::kDrain, .a = 4});  // final
    SendProgress(/*final_report=*/true);
  }

  /// One lazy eviction pass (paper §V-A's GC), run by the comm thread:
  /// evict back down to c_cache in Z-list order. Every comper checks the
  /// gate every round and releases its pulls before its next round, so a
  /// pass that finds nothing evictable is followed by another wake while
  /// the gate stays closed.
  void EvictPass() {
    if (!cache_.Overflowed()) return;
    const int64_t excess = cache_.ExcessOverCapacity();
    const int64_t start_us = hub_->NowUs();
    const int64_t evicted = cache_.EvictUpTo(excess);
    RecordEvent(-1, {.t_us = start_us,
                     .dur_us = hub_->NowUs() - start_us,
                     .kind = obs::EventKind::kGcPass,
                     .a = evicted,
                     .b = excess});
  }

  void HandleMessage(const MessageBatch& mb) {
    switch (mb.type) {
      case MsgType::kVertexRequest: {
        data_processed_.fetch_add(1, std::memory_order_relaxed);
        std::vector<VertexId> ids;
        GT_CHECK_OK(DecodeVertexRequest(mb.payload, &ids));
        std::vector<const VertexT*> vertices;
        vertices.reserve(ids.size());
        for (VertexId v : ids) {
          // The one place an ID from a peer becomes a slot index.
          GT_CHECK(IsLocal(v) && SlotOf(v) < local_.size())
              << "worker " << id_ << ": worker " << mb.src_worker
              << " requested vertex " << v << ", which it does not own";
          vertices.push_back(&LocalVertex(v));
        }
        MessageBatch resp;
        resp.payload = EncodeVertexResponse(vertices);
        resp.src_worker = id_;
        resp.dst_worker = mb.src_worker;
        resp.type = MsgType::kVertexResponse;
        data_sent_.fetch_add(1, std::memory_order_relaxed);
        hub_->Send(std::move(resp));
        break;
      }
      case MsgType::kVertexResponse: {
        data_processed_.fetch_add(1, std::memory_order_relaxed);
        requests_unanswered_.fetch_sub(1, std::memory_order_relaxed);
        std::vector<VertexT> vertices;
        GT_CHECK_OK(DecodeVertexResponse(mb.payload, &vertices));
        for (VertexT& v : vertices) {
          // InsertResponse dies on a vertex with no R-table entry, so only
          // handles this worker's compers registered come back.
          for (uint64_t waiter : cache_.InsertResponse(std::move(v))) {
            ParkedTask* parked = ParkedTask::FromWaiter(waiter);
            parked->owner->OnPullArrived(parked);
          }
        }
        break;
      }
      case MsgType::kTaskBatch: {
        data_processed_.fetch_add(1, std::memory_order_relaxed);
        std::vector<std::string> records;
        int64_t order_t_us = 0;
        GT_CHECK_OK(DecodeTaskBatch(mb.payload, &records, &order_t_us));
        if (!records.empty()) {
          // Full steal round-trip: master's order -> donor -> this arrival.
          // Valid across workers in-process because all timestamps share one
          // hub clock; across processes (tcp) the epochs differ, so a
          // nonsensical (negative) delta is discarded rather than recorded.
          if (order_t_us > 0) {
            const int64_t rtt_us = hub_->NowUs() - order_t_us;
            if (rtt_us >= 0) steal_rtt_us_->Record(rtt_us);
          }
          // Count the tasks as live *before* banking the batch so there is
          // no instant at which they are invisible to the idle check.
          live_tasks_.fetch_add(static_cast<int64_t>(records.size()));
          tasks_received_.fetch_add(static_cast<int64_t>(records.size()),
                                    std::memory_order_relaxed);
          const int64_t count = static_cast<int64_t>(records.size());
          l_file_.PushBack(std::move(records));
          stolen_batches_.fetch_add(1, std::memory_order_relaxed);
          RecordEvent(-1, {.kind = obs::EventKind::kStealReceive,
                           .a = count,
                           .b = mb.src_worker});
        }
        break;
      }
      case MsgType::kStealOrder: {
        int32_t dst = -1;
        int64_t order_t_us = 0;
        GT_CHECK_OK(DecodeStealOrder(mb.payload, &dst, &order_t_us));
        GT_CHECK(dst >= 0 && dst < config_.num_workers && dst != id_)
            << "worker " << id_ << ": steal order from endpoint "
            << mb.src_worker << " names thief " << dst << ", outside [0, "
            << config_.num_workers << ") or this worker";
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
        agg_.SetGlobal(std::move(global));
        break;
      }
      case MsgType::kCheckpointRequest: {
        CheckpointRequest req;
        GT_CHECK_OK(req.Decode(mb.payload));
        // Per-link FIFO delivers any checkpoint request before kTerminate,
        // but guard anyway: with the compers exited, the park rendezvous
        // below would deadlock, and a shutdown-time snapshot is useless.
        if (!stop_compers_.load(std::memory_order_acquire)) {
          DoCheckpoint(req.epoch);
        }
        break;
      }
      case MsgType::kTerminate: {
        RecordEvent(-1, {.kind = obs::EventKind::kTerminate});
        stop_compers_.store(true, std::memory_order_release);
        // a = drain phase: quiescing compers
        RecordEvent(-1, {.kind = obs::EventKind::kDrain, .a = 0});
        break;
      }
      case MsgType::kReportRequest: {
        // The master asks for a report now (it saw every worker idle, or a
        // quiet snapshot it wants confirmed); CommLoop sends it.
        report_due_.store(true, std::memory_order_release);
        break;
      }
      case MsgType::kDrainBarrier:
        // The master's release: the wire is empty; CommLoop sends the final
        // report and exits.
        break;
      default:
        LOG_FATAL << "worker " << id_ << ": unexpected message type "
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
    if (l_file_.PopBack(&records)) {
      tasks_disk_donated_.fetch_add(static_cast<int64_t>(records.size()),
                                    std::memory_order_relaxed);
    } else {
      std::vector<const VertexT*> to_spawn;
      ClaimSpawnBatch(config_.task_batch_size, &to_spawn);
      if (!to_spawn.empty()) {
        steal_runtime_->SetSink(&records);
        for (const VertexT* v : to_spawn) steal_comper_->TaskSpawn(*v);
        // A bundling app donates the batch as one root-bundle task.
        steal_runtime_->CloseRootBundle();
        steal_runtime_->SetSink(nullptr);
      }
    }
    if (records.empty()) return;
    MessageBatch mb;
    mb.src_worker = id_;
    mb.dst_worker = dst;
    mb.type = MsgType::kTaskBatch;
    mb.payload = EncodeTaskBatch(records, order_t_us);
    data_sent_.fetch_add(1, std::memory_order_relaxed);
    hub_->Send(std::move(mb));
    // The donated tasks have left this worker; the recipient counts them
    // back in (received) when the batch lands, and the wire interval is
    // visible to the master as donated - received.
    const auto donated = static_cast<int64_t>(records.size());
    tasks_donated_.fetch_add(donated, std::memory_order_relaxed);
    if (live_tasks_.fetch_sub(donated) == donated) NotifyIfIdle();
    RecordEvent(-1, {.kind = obs::EventKind::kStealDonate,
                     .a = donated,
                     .b = dst});
  }

  void SendProgress(bool final_report) {
    ProgressReport report;
    report.worker_id = id_;
    report.final_report = final_report ? 1 : 0;
    report.checkpoint_epoch = checkpoint_epoch_;
    report.quiesced = quiesced_ ? 1 : 0;
    size_t queued = 0;
    for (const auto& engine : engines_) queued += engine->tasks().Weight();
    const size_t unspawned =
        local_.size() -
        std::min(next_spawn_.load(std::memory_order_relaxed), local_.size());
    // Exact disk-resident task count (restore tails and partial steal-spawn
    // bundles are smaller than a full batch), so PlanSteals compares donors
    // by real backlog instead of a files-times-batch-size overestimate.
    report.remaining_estimate = l_file_.TotalRecords() +
                                static_cast<int64_t>(unspawned) +
                                static_cast<int64_t>(queued);
    // One linearizable read: live_tasks_ covers queued, ready, pending,
    // disk-resident, and in-a-comper's-hands tasks, so there is no window
    // in which a popped-but-unregistered task reports the worker idle.
    report.idle = (SpawnDone() && live_tasks_.load() == 0) ? 1 : 0;
    report.data_sent = data_sent_.load(std::memory_order_acquire);
    report.data_processed = data_processed_.load(std::memory_order_acquire);
    report.requests_unanswered =
        requests_unanswered_.load(std::memory_order_relaxed);
    report.steal_orders_handled = steal_orders_handled_;
    report.task_iterations = task_iterations_.load(std::memory_order_relaxed);
    report.spilled_batches = spilled_batches_.load(std::memory_order_relaxed);
    report.stolen_batches = stolen_batches_.load(std::memory_order_relaxed);
    report.vertex_requests =
        cache_.stats().new_requests.load(std::memory_order_relaxed);
    report.cache_hits = cache_.stats().hits.load(std::memory_order_relaxed);
    report.cache_evictions =
        cache_.stats().evictions.load(std::memory_order_relaxed);
    report.peak_mem_bytes = mem_.peak();
    report.cache_requests =
        cache_.stats().requests.load(std::memory_order_relaxed);
    for (const auto& engine : engines_) {
      report.comper_idle_rounds += engine->IdleRounds();
      report.comper_rounds += engine->Rounds();
    }
    report.ledger.spawned = tasks_spawned_.load(std::memory_order_relaxed);
    report.ledger.restored = tasks_restored_.load(std::memory_order_relaxed);
    report.ledger.finished = tasks_finished_.load(std::memory_order_relaxed);
    report.ledger.spilled = tasks_spilled_.load(std::memory_order_relaxed);
    report.ledger.loaded = tasks_loaded_.load(std::memory_order_relaxed);
    report.ledger.donated = tasks_donated_.load(std::memory_order_relaxed);
    report.ledger.received = tasks_received_.load(std::memory_order_relaxed);
    report.ledger.disk_donated =
        tasks_disk_donated_.load(std::memory_order_relaxed);
    report.tasks_live = live_tasks_.load();
    report.tasks_on_disk = l_file_.TotalRecords();
    // Ledger delta at progress cadence: a crash dump shows the conservation
    // trajectory (expected vs observed live) right up to the violation.
    RecordEvent(-1, {.kind = obs::EventKind::kLedger,
                     .a = report.ledger.ExpectedLive(),
                     .b = report.tasks_live});
    report.drained_messages =
        drained_messages_.load(std::memory_order_relaxed);
    report.queue_depth = static_cast<int64_t>(queued);
    report.cache_size = cache_.ApproxSize();
    report.spill_queue_depth = l_file_.QueueDepth();
    report.inbox_depth = hub_->InboxDepth(id_);
    {
      Serializer ser;
      Codec<AggT>::Encode(ser, agg_.TakeLocal());
      report.agg_delta = ser.Release();
    }
    MessageBatch mb;
    mb.src_worker = id_;
    mb.dst_worker = master_id_;
    mb.type = MsgType::kProgressReport;
    mb.payload = report.Encode();
    hub_->Send(std::move(mb));
  }

  // ---------------------------------------------------------------------
  // Checkpointing (paper §V-B "Fault Tolerance").
  // ---------------------------------------------------------------------

  void MaybePark() {
    if (!pause_.load(std::memory_order_acquire)) return;
    std::unique_lock<std::mutex> lock(pause_mutex_);
    ++compers_parked_;
    pause_cv_.notify_all();
    pause_cv_.wait(lock, [this] {
      return !pause_.load(std::memory_order_acquire) ||
             stop_compers_.load(std::memory_order_acquire);
    });
    --compers_parked_;
  }

  void DoCheckpoint(uint64_t epoch) {
    GT_CHECK(checkpoint_dfs_ != nullptr) << "checkpoint without a DFS";
    // Park every comper between iterations so the snapshot is quiescent.
    pause_.store(true, std::memory_order_release);
    {
      std::unique_lock<std::mutex> lock(pause_mutex_);
      pause_cv_.wait(lock, [this] {
        return compers_parked_ == static_cast<int>(engines_.size());
      });
    }
    std::vector<std::string> records;
    for (auto& engine : engines_) engine->tasks().AppendRecords(&records);
    // Spilled batches are checkpointed by content, without popping them
    // (they stay in L_file for the continuing run, and their files on local
    // disk, which a failure would wipe). The kTaskBatch quiesce already ran
    // master-side and the compers are parked, so nothing is pushed or
    // popped meanwhile.
    l_file_.CopyRecords(&records);
    // Self-check: with the compers parked and (master-enforced) no donated
    // batch on the wire, the snapshot must cover exactly the live tasks.
    GT_CHECK_EQ(static_cast<int64_t>(records.size()), live_tasks_.load())
        << "worker " << id_ << " checkpoint missed live tasks";
    WorkerCheckpoint ckpt;
    ckpt.spawn_next = next_spawn_.load(std::memory_order_relaxed);
    ckpt.records = std::move(records);
    const std::string key = "ckpt/" + std::to_string(epoch) + "/worker_" +
                            std::to_string(id_);
    GT_CHECK_OK(checkpoint_dfs_->Put(key, ckpt.Encode()));
    RecordEvent(-1, {.kind = obs::EventKind::kCheckpoint,
                     .a = static_cast<int64_t>(epoch)});
    // The ack, the first report carrying this epoch, cuts its aggregator
    // delta while the compers are still parked: everything committed so far
    // is pre-snapshot. Releasing first would let a resumed comper finish a
    // task just serialized into the snapshot and commit it into this delta,
    // which a resume would then count twice.
    checkpoint_epoch_ = epoch;
    SendProgress(/*final_report=*/false);
    pause_.store(false, std::memory_order_release);
    pause_cv_.notify_all();
  }

 public:
  /// Wires the DFS used for checkpoints (set by the cluster before Start).
  void SetCheckpointDfs(MiniDfs* dfs) { checkpoint_dfs_ = dfs; }

  /// Wires the job's event ring (set by the cluster before Start; the
  /// recorder must outlive the worker's threads).
  void SetRecorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }

  /// Enables Comper::Output, writing record batches under `dir`.
  void SetOutputDir(std::string dir) { output_dir_ = std::move(dir); }

  /// Wires the job's load-time layout (set by the cluster before Start; null
  /// when vertex IDs are the caller's own), so compers can report original
  /// IDs through Comper::OriginalId.
  void SetLayout(const VertexLayout* layout) { layout_ = layout; }
  VertexId OriginalId(VertexId v) const {
    return layout_ != nullptr ? layout_->ToOld(v) : v;
  }

  int64_t RecordsOutput() const {
    return records_output_.load(std::memory_order_relaxed);
  }

  /// Folds the cache's internal counters (kept as plain atomics on the hot
  /// path, not registry metrics) into the registry so one snapshot carries
  /// everything. Call after Join(), before MetricsSnapshot().
  void FinalizeObs() {
    const auto& cs = cache_.stats();
    auto set = [this](const char* name, int64_t v) {
      metrics_.GetCounter(name)->Add(v);
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
    set("tasks.spawned", tasks_spawned_.load(std::memory_order_relaxed));
    set("tasks.finished", tasks_finished_.load(std::memory_order_relaxed));
    set("tasks.iterations", task_iterations_.load(std::memory_order_relaxed));
    set("spill.batches", spilled_batches_.load(std::memory_order_relaxed));
    set("steal.batches_received",
        stolen_batches_.load(std::memory_order_relaxed));
    const auto& ss = l_file_.stats();
    set("spill.mem_hits", ss.mem_hits.load(std::memory_order_relaxed));
    // Peak writer-queue depth over the run (the live value is also on the
    // master sampler's spill_queue_depth series).
    metrics_.GetGauge("spill.queue_depth")
        ->Set(ss.peak_queue_depth.load(std::memory_order_relaxed));
    for (const auto& engine : engines_) {
      metrics_.GetGauge("comper.idle_rounds")->Add(engine->IdleRounds());
      metrics_.GetGauge("comper.rounds")->Add(engine->Rounds());
    }
  }

  /// Snapshot of this worker's registry (call FinalizeObs first for the
  /// cache/task roll-ups to be present).
  obs::MetricsSnapshot MetricsSnapshot() const { return metrics_.Snapshot(); }

 private:
  const int id_;
  const JobConfig config_;
  CommHub* hub_;
  int master_id_;
  TrimmerFn trimmer_;

  std::vector<VertexT> local_;  // T_local, indexed by SlotOf
  std::atomic<size_t> next_spawn_{0};  // slots claimed for spawning

  MemTracker mem_;
  VertexCache<VertexT> cache_;  // T_cache
  AggregatorState<ComperT> agg_;

  std::vector<std::unique_ptr<ComperEngine>> engines_;
  std::unique_ptr<ComperT> steal_comper_;
  std::unique_ptr<StealRuntime> steal_runtime_;

  /// Per-destination pull batching (compers add, comm thread flushes).
  PullCoalescer coalescer_;

  MiniDfs* checkpoint_dfs_ = nullptr;
  const VertexLayout* layout_ = nullptr;  // null: IDs are the caller's

  // observability (docs/OBSERVABILITY.md). The histogram/counter pointers
  // are registered once in the constructor; recording through them is
  // lock-free.
  obs::MetricsRegistry metrics_;
  std::atomic<uint64_t> span_seq_{1};
  obs::Histogram* task_wait_us_ = nullptr;
  obs::Histogram* steal_rtt_us_ = nullptr;
  obs::Counter* refill_spill_tasks_ = nullptr;
  obs::Counter* refill_spawn_tasks_ = nullptr;
  /// Comm-thread donation-packing time (worker row of the phase profile).
  obs::Counter* phase_steal_us_ = nullptr;
  /// The job's event ring (owned by the cluster); null until wired.
  obs::FlightRecorder* recorder_ = nullptr;

  /// L_file, with its writer thread. Declared after metrics_, which its
  /// observers record into.
  SpillList l_file_;

  // output collection
  static constexpr size_t kOutputFlushRecords = 4096;
  std::string output_dir_;
  std::mutex output_mutex_;
  std::vector<std::string> output_buffer_;
  std::atomic<int64_t> records_output_{0};

  // control
  std::atomic<bool> stop_compers_{false};
  /// A progress report is owed now: the worker turned idle (NotifyIfIdle)
  /// or the master sent kReportRequest. Consumed by CommLoop.
  std::atomic<bool> report_due_{false};
  /// A comper opened the first pull window and woke the comm thread.
  std::atomic<bool> window_opened_{false};
  /// A gated comper asked the comm thread for an eviction pass.
  std::atomic<bool> evict_wanted_{false};
  // Repeated by every progress report (comm thread only).
  uint64_t checkpoint_epoch_ = 0;  // the last epoch snapshotted
  bool quiesced_ = false;          // the drain's local quiesce
  int64_t steal_orders_handled_ = 0;
  std::atomic<int> compers_running_{0};
  std::atomic<bool> pause_{false};
  std::mutex pause_mutex_;
  std::condition_variable pause_cv_;
  int compers_parked_ = 0;
  bool started_ = false;
  std::vector<std::thread> threads_;

  // counters
  std::atomic<int64_t> data_sent_{0};
  std::atomic<int64_t> data_processed_{0};
  std::atomic<int64_t> requests_unanswered_{0};
  std::atomic<int64_t> tasks_spawned_{0};
  std::atomic<int64_t> task_iterations_{0};
  std::atomic<int64_t> tasks_finished_{0};
  std::atomic<int64_t> spilled_batches_{0};
  std::atomic<int64_t> stolen_batches_{0};

  // task-conservation ledger (see TaskLedger in core/protocol.h).
  // live_tasks_ uses seq_cst: it is the one value whose ==0 reading decides
  // worker idleness, and single-variable linearizability is the whole point.
  std::atomic<int64_t> live_tasks_{0};
  // Compers that have not yet flushed their spawn state (see SpawnDone).
  std::atomic<int> compers_spawning_{0};
  std::atomic<int64_t> tasks_restored_{0};
  std::atomic<int64_t> tasks_spilled_{0};
  std::atomic<int64_t> tasks_loaded_{0};
  std::atomic<int64_t> tasks_donated_{0};
  std::atomic<int64_t> tasks_received_{0};
  std::atomic<int64_t> tasks_disk_donated_{0};
  std::atomic<int64_t> drained_messages_{0};
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_WORKER_H_
