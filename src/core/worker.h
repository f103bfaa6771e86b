#ifndef GTHINKER_CORE_WORKER_H_
#define GTHINKER_CORE_WORKER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/aggregator.h"
#include "core/codec.h"
#include "core/comper.h"
#include "core/config.h"
#include "core/protocol.h"
#include "core/pull_coalescer.h"
#include "core/response_cache.h"
#include "core/vertex_cache.h"
#include "graph/layout.h"
#include "net/comm_hub.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span_trace.h"
#include "storage/async_spill.h"
#include "storage/file_list.h"
#include "storage/mini_dfs.h"
#include "storage/spill_file.h"
#include "util/concurrent_queue.h"
#include "util/logging.h"
#include "util/mem_tracker.h"
#include "util/timer.h"

namespace gthinker {

/// One simulated machine (paper Fig. 3 / Fig. 7): a local vertex table
/// T_local, a remote-vertex cache T_cache, a list of spilled task files
/// L_file, n comper threads (each with Q_task / B_task / T_task), one
/// communication thread, and one GC thread. The cluster driver plays the
/// paper's "main thread of the master": it receives progress reports and
/// issues steal/terminate/checkpoint control messages.
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
        spill_dir_(std::move(spill_dir)),
        cache_(config.cache_num_buckets, config.cache_capacity,
               config.cache_overflow_alpha, config.cache_counter_delta,
               &mem_, config.cache_use_z_table),
        coalescer_(config.num_workers, config.comm.request_batch_size),
        resp_cache_(kResponseCacheBytes, config.comm.wire_encoding),
        metrics_("worker" + std::to_string(worker_id)) {
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
    // Disk timings of the spill writer/prefetcher thread.
    spill_io_.SetWriteObserver(
        [spill_write_us, spill_write_bytes](int64_t us, int64_t bytes) {
          spill_write_us->Record(us);
          spill_write_bytes->Add(bytes);
        });
    spill_io_.SetReadObserver(
        [spill_read_us, spill_read_bytes](int64_t us, int64_t bytes) {
          spill_read_us->Record(us);
          spill_read_bytes->Add(bytes);
        });
    spill_io_.Start();
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

  /// Installs one local vertex; the Trimmer UDF (if any) runs here, right
  /// after loading, so pulled responses already carry trimmed lists (§IV).
  void AddLocalVertex(VertexT v) {
    if (trimmer_) trimmer_(v);
    GT_CHECK_EQ(OwnerOf(v.id, config_.num_workers), id_);
    const VertexId id = v.id;
    local_.emplace(id, std::move(v));
    spawn_order_.push_back(id);
  }

  /// Sorts the spawn order; call once after all AddLocalVertex calls.
  void FinalizeLoad() {
    std::sort(spawn_order_.begin(), spawn_order_.end());
    mem_.Consume(LocalTableBytes());
  }

  /// Pre-seeds state from a checkpoint blob (see EncodeCheckpoint). Restored
  /// tasks enter L_file as spill batches and re-pull into the cold cache,
  /// exactly as §V-B "Fault Tolerance" prescribes. Restored tasks enter the
  /// ledger as `restored` (and the live count), so the conservation
  /// invariant holds across a resume.
  Status RestoreFromCheckpoint(const std::string& blob) {
    Deserializer des(blob);
    uint64_t spawn_next = 0;
    GT_RETURN_IF_ERROR(des.Read(&spawn_next));
    uint64_t n = 0;
    GT_RETURN_IF_ERROR(des.Read(&n));
    std::vector<std::string> batch;
    auto flush_batch = [this, &batch]() -> Status {
      const int64_t count = static_cast<int64_t>(batch.size());
      const std::string path = spill_io_.Submit(spill_dir_, std::move(batch));
      batch.clear();
      live_tasks_.fetch_add(count);
      tasks_restored_.fetch_add(count, std::memory_order_relaxed);
      l_file_.PushBack(path, count);
      return Status::Ok();
    };
    for (uint64_t i = 0; i < n; ++i) {
      std::string rec;
      GT_RETURN_IF_ERROR(des.ReadString(&rec));
      batch.push_back(std::move(rec));
      if (batch.size() == static_cast<size_t>(config_.task_batch_size)) {
        GT_RETURN_IF_ERROR(flush_batch());
      }
    }
    if (!batch.empty()) {
      GT_RETURN_IF_ERROR(flush_batch());
    }
    next_spawn_.store(spawn_next, std::memory_order_relaxed);
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
    threads_.emplace_back([this] { GcLoop(); });
  }

  void Join() {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
    // After the compers and comm thread exit nothing can submit spill work;
    // drain whatever is still queued and retire the writer thread.
    spill_io_.Stop();
  }

  /// True once the final progress report has been sent (job over).
  bool Finished() const {
    return final_sent_.load(std::memory_order_acquire);
  }

  int64_t PeakMemBytes() const { return mem_.peak(); }
  const VertexCache<VertexT>& cache() const { return cache_; }
  AggregatorState<ComperT>& aggregator() { return agg_; }
  size_t NumLocalVertices() const { return spawn_order_.size(); }

 private:
  // =======================================================================
  // ComperEngine: the per-mining-thread state machine of Fig. 7.
  // =======================================================================
  class ComperEngine final : public Comper<TaskT, AggT>::Runtime {
   public:
    ComperEngine(Worker* worker, int index, std::unique_ptr<ComperT> user)
        : worker_(worker), index_(index), user_(std::move(user)) {
      user_->BindRuntime(this);
      const std::string label = "comper=" + std::to_string(index);
      compute_us_ =
          worker_->metrics_.GetHistogram("comper.compute_iter_us", label);
      phase_compute_ = worker_->metrics_.GetCounter("phase.compute_us", label);
      phase_pull_wait_ =
          worker_->metrics_.GetCounter("phase.pull_wait_us", label);
      phase_queue_wait_ =
          worker_->metrics_.GetCounter("phase.queue_wait_us", label);
      phase_spill_ = worker_->metrics_.GetCounter("phase.spill_us", label);
      phase_loop_ = worker_->metrics_.GetCounter("phase.loop_us", label);
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
      AddToQueue(std::move(task));
    }
    void Aggregate(const AggT& delta) override { worker_->agg_.Aggregate(delta); }
    AggT CurrentAgg() const override { return worker_->agg_.CurrentView(); }
    void Output(std::string record) override {
      worker_->WriteOutput(std::move(record));
    }
    VertexId OriginalId(VertexId v) const override {
      return worker_->OriginalId(v);
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
          phase_queue_wait_->Add(wait_timer.ElapsedMicros());
        }
        rounds_.fetch_add(1, std::memory_order_relaxed);
        bool did = Push();
        if (CanPop()) did = Pop() || did;
        if (!did) {
          // A round that processed nothing = CPU idle time, the quantity
          // G-thinker's design minimizes (paper §I). Reported per job.
          idle_rounds_.fetch_add(1, std::memory_order_relaxed);
          // Idle with tasks parked in T_task = waiting on remote pulls;
          // idle with nothing in flight = starved queue (imbalance/drain).
          wait_timer.Restart();
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          (t_size_.load(std::memory_order_relaxed) > 0 ? phase_pull_wait_
                                                       : phase_queue_wait_)
              ->Add(wait_timer.ElapsedMicros());
        }
      }
      phase_loop_->Add(loop_timer.ElapsedMicros());
      worker_->cache_.FlushCounter(&counter_);
      // Tells the comm thread's shutdown drain that this mining thread can
      // no longer originate vertex requests or donations.
      worker_->compers_running_.fetch_sub(1, std::memory_order_acq_rel);
    }

    /// Called by the comm thread when Γ(v) lands for a task of this comper.
    void OnVertexReady(uint64_t task_id) {
      std::unique_ptr<TaskT> ready;
      int64_t pending_at_us = 0;
      {
        std::lock_guard<std::mutex> lock(t_mutex_);
        auto it = t_task_.find(task_id);
        GT_CHECK(it != t_task_.end())
            << "vertex response for unknown task " << task_id;
        Pending& pending = it->second;
        ++pending.met;
        if (pending.req >= 0 && pending.met == pending.req) {
          ready = std::move(pending.task);
          pending_at_us = pending.pending_at_us;
          t_task_.erase(it);
        }
      }
      if (ready != nullptr) {
        worker_->task_wait_us_->Record(worker_->hub_->NowUs() - pending_at_us);
        TaskEvent(obs::EventKind::kReady, ready->span_id());
        // Push to B_task *before* shrinking the T_task mirror: a reader that
        // sees the smaller t_size_ then also sees the task in B_task, so the
        // task is never invisible to both.
        b_task_.Push(std::move(ready));
        t_size_.fetch_sub(1, std::memory_order_release);
      }
    }

    /// Q_task's weight in roots (core/root_bundle.h TaskWeight).
    size_t QueueSize() const {
      return q_size_.load(std::memory_order_relaxed);
    }

    int64_t IdleRounds() const {
      return idle_rounds_.load(std::memory_order_relaxed);
    }

    int64_t Rounds() const { return rounds_.load(std::memory_order_relaxed); }

    /// Checkpoint support: serializes every in-memory task of this engine.
    /// Only safe while the comper thread is parked.
    void CollectCheckpointRecords(std::vector<std::string>* records) {
      for (const auto& task : q_) {
        Serializer ser;
        task->Serialize(ser);
        records->push_back(ser.Release());
      }
      b_task_.ForEach([records](const std::unique_ptr<TaskT>& task) {
        Serializer ser;
        task->Serialize(ser);
        records->push_back(ser.Release());
      });
      std::lock_guard<std::mutex> lock(t_mutex_);
      for (const auto& [id, pending] : t_task_) {
        Serializer ser;
        pending.task->Serialize(ser);
        records->push_back(ser.Release());
      }
    }

   private:
    struct Pending {
      std::unique_ptr<TaskT> task;
      int met = 0;
      int req = -1;  // -1 = not yet committed by the popping comper
      /// Hub-clock instant the task parked in T_task; pending->ready wait
      /// time is measured against it (task.wait_us histogram).
      int64_t pending_at_us = 0;
    };

    /// push(): run one ready task from B_task (its pulls are all cached and
    /// locked for it).
    bool Push() {
      auto ready = b_task_.TryPop();
      if (!ready.has_value()) return false;
      inflight_roots_ -= TaskWeight(**ready);
      // The task was tracked while pending; ExecuteIteration re-tracks it.
      worker_->mem_.Release((*ready)->MemoryBytes());
      ExecuteIteration(std::move(*ready));
      return true;
    }

    /// pop() gates (paper: cache not overflowed, |T_task|+|B_task| <= D,
    /// counted in roots like the Q_task bounds).
    bool CanPop() const {
      return !worker_->cache_.Overflowed() &&
             inflight_roots_ <=
                 static_cast<size_t>(worker_->config_.inflight_task_cap);
    }

    /// pop(): refill if low, then take the head task and resolve its pulls.
    bool Pop() {
      const size_t batch = worker_->config_.task_batch_size;
      if (q_weight_ <= batch) Refill();
      if (q_.empty()) return false;
      std::unique_ptr<TaskT> task = std::move(q_.front());
      q_.pop_front();
      SetQueueWeight(q_weight_ - TaskWeight(*task));
      Resolve(std::move(task));
      return true;
    }

    /// Q_task's bounds count roots (TaskWeight), so one-root apps see plain
    /// task counts.
    void SetQueueWeight(size_t weight) {
      q_weight_ = weight;
      q_size_.store(weight, std::memory_order_release);
    }

    /// Refills Q_task up to 2C from (1) spilled task files, then (2) fresh
    /// spawns from T_local. (B_task, the paper's source (2), is consumed
    /// directly by push() every round, which has the same effect without
    /// moving ready tasks through the queue.) The spilled-first priority is
    /// what keeps the number of disk-resident tasks minimal (§V-B); the
    /// refill_spawn_first ablation inverts it.
    void Refill() {
      const size_t target = 2 * worker_->config_.task_batch_size;
      while (q_weight_ < target) {
        if (worker_->config_.refill_spawn_first && SpawnBatch()) continue;
        if (auto file = worker_->l_file_.TryPopFront()) {
          Timer spill_timer;
          std::vector<std::string> records;
          GT_CHECK_OK(worker_->spill_io_.Fetch(file->path, &records));
          GT_CHECK_EQ(static_cast<int64_t>(records.size()), file->records)
              << "spill file " << file->path << " record count drifted";
          for (const std::string& rec : records) {
            auto task = std::make_unique<TaskT>();
            Deserializer des(rec);
            GT_CHECK_OK(task->Deserialize(des));
            if (worker_->config_.enable_span_tracing) {
              // Fresh span: the disk round-trip (or a steal) broke the old
              // lifecycle, so the reloaded task starts a new one here.
              task->set_span_id(worker_->NextSpanId());
              TaskEvent(obs::EventKind::kLoaded, task->span_id());
            }
            worker_->mem_.Consume(task->MemoryBytes());
            q_weight_ += TaskWeight(*task);
            q_.push_back(std::move(task));
          }
          SetQueueWeight(q_weight_);
          worker_->tasks_loaded_.fetch_add(
              static_cast<int64_t>(records.size()), std::memory_order_relaxed);
          worker_->refill_spill_tasks_->Add(
              static_cast<int64_t>(records.size()));
          phase_spill_->Add(spill_timer.ElapsedMicros());
          worker_->RecordEvent(
              index_, {.kind = obs::EventKind::kSpillLoad,
                       .a = static_cast<int64_t>(records.size())});
          continue;
        }
        if (worker_->config_.refill_spawn_first) break;
        if (!SpawnBatch()) break;
      }
    }

    /// Spawns one batch of new tasks from T_local; false when exhausted.
    /// A bundling app's batch becomes one root-bundle task.
    bool SpawnBatch() {
      if (spawn_exhausted_) return false;
      std::vector<VertexId> to_spawn;
      worker_->ClaimSpawnBatch(worker_->config_.task_batch_size, &to_spawn);
      if (to_spawn.empty()) {
        spawn_exhausted_ = true;
        // Every task this comper spawned is live by now (see SpawnDone).
        worker_->compers_spawning_.fetch_sub(1);
        return false;
      }
      for (VertexId v : to_spawn) {
        user_->TaskSpawn(worker_->local_.at(v));  // UDF; AddTask or AddRoot
      }
      this->CloseRootBundle();
      worker_->refill_spawn_tasks_->Add(static_cast<int64_t>(to_spawn.size()));
      worker_->RecordEvent(
          index_, {.kind = obs::EventKind::kSpawnBatch,
                   .a = static_cast<int64_t>(to_spawn.size())});
      return true;
    }

    /// Appends to Q_task; when `task` would overfill it (3C roots), the
    /// tasks at the tail weighing C roots are spilled to one file first
    /// (paper §V-B (1)).
    void AddToQueue(std::unique_ptr<TaskT> task) {
      worker_->mem_.Consume(task->MemoryBytes());
      const size_t batch = worker_->config_.task_batch_size;
      const size_t cap =
          batch * worker_->config_.task_queue_capacity_batches;
      const size_t weight = TaskWeight(*task);
      if (!q_.empty() && q_weight_ + weight > cap) {
        Timer spill_timer;
        std::vector<std::string> records;
        size_t spilled = 0;
        while (spilled < batch && !q_.empty()) {
          std::unique_ptr<TaskT> victim = std::move(q_.back());
          q_.pop_back();
          spilled += TaskWeight(*victim);
          worker_->mem_.Release(victim->MemoryBytes());
          Serializer ser;
          victim->Serialize(ser);
          records.push_back(ser.Release());
        }
        // Keep original queue order inside the file.
        std::reverse(records.begin(), records.end());
        const auto count = static_cast<int64_t>(records.size());
        const std::string path =
            worker_->spill_io_.Submit(worker_->spill_dir_, std::move(records));
        worker_->l_file_.PushBack(path, count);
        worker_->spilled_batches_.fetch_add(1, std::memory_order_relaxed);
        worker_->tasks_spilled_.fetch_add(count, std::memory_order_relaxed);
        phase_spill_->Add(spill_timer.ElapsedMicros());
        worker_->RecordEvent(index_,
                             {.kind = obs::EventKind::kSpillWrite, .a = count});
        q_weight_ -= spilled;
      }
      q_.push_back(std::move(task));
      SetQueueWeight(q_weight_ + weight);
    }

    /// Resolves P(t): local pulls read T_local directly; remote pulls go
    /// through T_cache (OP1). If everything is available the task computes
    /// right away; otherwise it parks in T_task until the comm thread
    /// declares it ready.
    void Resolve(std::unique_ptr<TaskT> task) {
      worker_->mem_.Release(task->MemoryBytes());
      CollectRemotePulls(task->pulls());
      if (remote_scratch_.empty()) {
        ExecuteIteration(std::move(task));
        return;
      }
      const uint64_t tid = MakeTaskId(index_, seq_++);
      TaskEvent(obs::EventKind::kPending, task->span_id());
      const int64_t pending_at_us = worker_->hub_->NowUs();
      TaskT* raw = task.get();
      inflight_roots_ += TaskWeight(*task);
      {
        std::lock_guard<std::mutex> lock(t_mutex_);
        t_task_.emplace(tid, Pending{std::move(task), 0, -1, pending_at_us});
        t_size_.fetch_add(1, std::memory_order_relaxed);
      }
      worker_->mem_.Consume(raw->MemoryBytes());
      // Batched OP1: all of this task's remote pulls resolve with one lock
      // acquisition per distinct bucket instead of one per vertex.
      const int total_remote = static_cast<int>(remote_scratch_.size());
      new_request_scratch_.clear();
      const int hits = worker_->cache_.RequestBatch(
          remote_scratch_.data(), remote_scratch_.size(), tid, &counter_,
          &new_request_scratch_);
      for (VertexId v : new_request_scratch_) {
        worker_->EnqueueVertexRequest(v);
      }
      // Commit req; the task may already be complete (all hits, or responses
      // raced in while we were requesting).
      std::unique_ptr<TaskT> ready;
      {
        std::lock_guard<std::mutex> lock(t_mutex_);
        auto it = t_task_.find(tid);
        if (it != t_task_.end()) {
          Pending& pending = it->second;
          pending.met += hits;
          if (pending.met == total_remote) {
            ready = std::move(pending.task);
            t_task_.erase(it);
            t_size_.fetch_sub(1, std::memory_order_relaxed);
          } else {
            pending.req = total_remote;
          }
        }
        // (it == end() cannot happen: req was -1, so only we can remove it.)
      }
      if (ready != nullptr) {
        // The responses raced in while we were still registering pulls.
        worker_->task_wait_us_->Record(worker_->hub_->NowUs() - pending_at_us);
        TaskEvent(obs::EventKind::kReady, ready->span_id());
        inflight_roots_ -= TaskWeight(*ready);
        worker_->mem_.Release(ready->MemoryBytes());
        ExecuteIteration(std::move(ready));
      }
    }

    /// One compute() iteration: build the frontier in pull order, run the
    /// UDF, then release every remote pull back to the cache (OP3) so GC can
    /// evict in time.
    void ExecuteIteration(std::unique_ptr<TaskT> task) {
      // Take the pulls *before* measuring: TakePulls leaves pulls_ empty, so
      // consuming first would count buffer bytes the matching Release below
      // never sees again (the mem-accounting skew grew by one pull buffer
      // per iteration).
      const std::vector<VertexId> pulls = task->TakePulls();
      worker_->mem_.Consume(task->MemoryBytes());
      typename ComperT::Frontier frontier;
      frontier.reserve(pulls.size());
      for (VertexId v : pulls) {
        if (worker_->IsLocal(v)) {
          frontier.push_back(&worker_->local_.at(v));
        } else {
          frontier.push_back(worker_->cache_.GetLocked(v));
        }
      }
      running_span_ = task->span_id();
      Timer compute_timer;
      const bool more = user_->Compute(task.get(), frontier);
      const int64_t compute_us = compute_timer.ElapsedMicros();
      running_span_ = 0;
      compute_us_->Record(compute_us);
      phase_compute_->Add(compute_us);
      if (worker_->config_.enable_span_tracing) {
        // Stamp the slice at its start so the viewer draws [start, start+dur].
        worker_->RecordEvent(index_,
                             {.t_us = worker_->hub_->NowUs() - compute_us,
                              .dur_us = compute_us,
                              .id = task->span_id(),
                              .kind = obs::EventKind::kExecute});
      }
      task->BumpIteration();
      worker_->mem_.Release(task->MemoryBytes());
      // Batched OP3: one lock acquisition per distinct bucket.
      CollectRemotePulls(pulls);
      worker_->cache_.ReleaseBatch(remote_scratch_.data(),
                                   remote_scratch_.size());
      worker_->task_iterations_.fetch_add(1, std::memory_order_relaxed);
      if (more) {
        AddToQueue(std::move(task));
      } else {
        worker_->OnTaskFinished();
        TaskEvent(obs::EventKind::kFinish, task->span_id());
      }
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

    Worker* worker_;
    const int index_;
    std::unique_ptr<ComperT> user_;
    SCacheCounter counter_;
    std::vector<VertexId> remote_scratch_;       // comper thread only
    std::vector<VertexId> new_request_scratch_;  // comper thread only

    // Span of the task whose Compute() is running (0 outside Compute): the
    // parent a task added from Compute records. Comper thread only.
    uint64_t running_span_ = 0;

    std::deque<std::unique_ptr<TaskT>> q_;  // Q_task: comper thread only
    size_t q_weight_ = 0;                   // Q_task's roots: comper thread
    std::atomic<size_t> q_size_{0};         // mirror for cross-thread reads
    ConcurrentQueue<std::unique_ptr<TaskT>> b_task_;
    std::mutex t_mutex_;
    std::unordered_map<uint64_t, Pending> t_task_;
    std::atomic<size_t> t_size_{0};
    size_t inflight_roots_ = 0;  // roots in T_task + B_task: comper thread
    uint64_t seq_ = 0;
    bool spawn_exhausted_ = false;
    std::atomic<int64_t> idle_rounds_{0};
    std::atomic<int64_t> rounds_{0};
    obs::Histogram* compute_us_ = nullptr;  // owned by worker_->metrics_
    // Phase-attribution counters (obs/phase_profile.h), owned by
    // worker_->metrics_. Disjoint by construction: every loop
    // microsecond lands in at most one of compute/pull_wait/queue_wait/
    // spill, and phase.loop_us (recorded once at exit) is the total their
    // sum is reconciled against.
    obs::Counter* phase_compute_ = nullptr;
    obs::Counter* phase_pull_wait_ = nullptr;
    obs::Counter* phase_queue_wait_ = nullptr;
    obs::Counter* phase_spill_ = nullptr;
    obs::Counter* phase_loop_ = nullptr;
  };

  // =======================================================================
  // StealRuntime: lets the comm thread spawn tasks for donation without
  // touching any comper's queue. AddTask serializes straight into the
  // donation batch.
  // =======================================================================
  class StealRuntime final : public Comper<TaskT, AggT>::Runtime {
   public:
    explicit StealRuntime(Worker* worker) : worker_(worker) {}
    void AddTask(std::unique_ptr<TaskT> task) override {
      // Spawned straight into the donation batch: counts as spawned (and
      // momentarily live) here, then as donated once the batch ships.
      worker_->OnTaskSpawned();
      Serializer ser;
      task->Serialize(ser);
      sink_->push_back(ser.Release());
    }
    void Aggregate(const AggT& delta) override {
      worker_->agg_.Aggregate(delta);
    }
    AggT CurrentAgg() const override { return worker_->agg_.CurrentView(); }
    void Output(std::string record) override {
      worker_->WriteOutput(std::move(record));
    }
    VertexId OriginalId(VertexId v) const override {
      return worker_->OriginalId(v);
    }
    void SetSink(std::vector<std::string>* sink) { sink_ = sink; }

   private:
    Worker* worker_;
    std::vector<std::string>* sink_ = nullptr;
  };

  friend class ComperEngine;
  friend class StealRuntime;

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
    live_tasks_.fetch_sub(1);
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
  /// sequence from 1 below (mirrors MakeTaskId's packing). Never 0, which
  /// events and `parent` links read as "no span".
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

  int64_t LocalTableBytes() const {
    int64_t bytes = 0;
    for (const auto& [id, vertex] : local_) {
      bytes += Codec<VertexT>::Bytes(vertex) + 16;
    }
    return bytes;
  }

  /// Atomically claims up to `count` not-yet-spawned local vertices.
  void ClaimSpawnBatch(size_t count, std::vector<VertexId>* out) {
    out->clear();
    const size_t total = spawn_order_.size();
    size_t begin = next_spawn_.fetch_add(count, std::memory_order_relaxed);
    if (begin >= total) {
      next_spawn_.store(total, std::memory_order_relaxed);
      return;
    }
    const size_t end = std::min(begin + count, total);
    out->assign(spawn_order_.begin() + begin, spawn_order_.begin() + end);
  }

  /// True once every comper has found the spawn order exhausted and flushed.
  /// Exhaustion alone is not enough: a comper's last claimed batch is in no
  /// queue and not yet live until its TaskSpawn calls (and the bundle
  /// close) return, so an idle report in that window would let the master
  /// end the job with work unspawned. The comm thread's own steal-spawns cannot
  /// interleave with its progress reports, so they need no count.
  bool SpawnDone() const { return compers_spawning_.load() == 0; }

  /// Queues a vertex pull for batched sending (paper: requests are batched
  /// per destination to combat round-trip time). The coalescer additionally
  /// drops IDs already in flight within the open window — safe because the
  /// VertexCache's R-table fans one response record out to every waiting
  /// task — and flushes a destination at comm.request_batch_size IDs.
  void EnqueueVertexRequest(VertexId v) {
    const int dst = OwnerOf(v, config_.num_workers);
    GT_CHECK_NE(dst, id_) << "local vertex routed to the cache";
    std::vector<VertexId> to_send;
    if (coalescer_.Add(dst, v, &to_send)) SendVertexRequest(dst, to_send);
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
    hub_->Send(std::move(mb));
  }

  // ---------------------------------------------------------------------
  // Communication thread.
  // ---------------------------------------------------------------------

  /// Upper bound on one idle receive wait. Receive is event-driven — the
  /// transport's readiness signal (the mailbox condition variable
  /// in-process; the poll(2) IO thread feeding it under tcp) wakes this
  /// thread the moment a batch lands — so the timeout exists only to bound
  /// housekeeping latency: a comper may open a request window right after
  /// HasPending() read false, and the progress cadence must be met.
  static constexpr int64_t kMaxCommIdleWaitUs = 1000;
  /// Receive-wait slice while request batches are open, and in the drain.
  static constexpr int64_t kCommPollUs = 200;

  void CommLoop() {
    Timer progress_timer;
    while (true) {
      int64_t wait_us = std::min<int64_t>(
          config_.progress_interval_us - progress_timer.ElapsedMicros(),
          kMaxCommIdleWaitUs);
      if (wait_us < 1) wait_us = 1;
      if (coalescer_.HasPending()) {
        // Open request batches flush on the short comm cadence so
        // sub-threshold pulls are not delayed by an idle-length wait.
        wait_us = std::min(wait_us, kCommPollUs);
      }
      MessageBatch mb;
      if (hub_->Receive(id_, wait_us, &mb)) {
        HandleMessage(mb);
        hub_->MarkProcessed(mb.type);
      }
      FlushAllRequests();
      if (progress_timer.ElapsedMicros() >= config_.progress_interval_us) {
        SendProgress(/*final_report=*/false);
        progress_timer.Restart();
      }
      if (stop_compers_.load(std::memory_order_acquire)) {
        break;
      }
    }
    DrainAndReport();
  }

  /// Two-phase lossless shutdown (paper §V-B termination, hardened): one
  /// pump loop that keeps servicing the wire — answering pull requests,
  /// accepting responses and late donated batches — through three one-shot
  /// steps.
  ///
  /// 1. Local quiesce: the compers were told to stop popping. Once their
  ///    threads have exited (a comper mid-iteration may still issue vertex
  ///    pulls, and a Compute() call cannot be interrupted, so this wait is
  ///    unbounded), flush the per-destination request buffers so nothing is
  ///    stranded in them and report the quiesce with a kDrainBarrier.
  /// 2. Release: the master echoes the barrier once every worker quiesced,
  ///    so no new traffic can originate anywhere; announce it to the
  ///    transport with BeginDrain.
  /// 3. Wire drain: stop once CommHub::InFlightCount()==0 proves nothing is
  ///    queued, in transit, or in a handler that could still send. Only then
  ///    is the final report sent, so every task batch has been banked in
  ///    L_file and counted by the ledger.
  ///
  /// Until BeginDrain, non-final progress reports keep flowing as the
  /// heartbeat behind the master's silence bound (drain_timeout_us); after
  /// it, a socket transport allows no spontaneous traffic. The worker has
  /// no deadline of its own: the master's bound ends a job whose drain
  /// cannot finish.
  void DrainAndReport() {
    // a = drain phase: quiescing compers
    RecordEvent(-1, {.kind = obs::EventKind::kDrain, .a = 0});
    Timer heartbeat_timer;
    bool barrier_sent = false;
    bool draining = false;
    while (true) {
      MessageBatch mb;
      if (hub_->Receive(id_, kCommPollUs, &mb)) {
        drained_messages_.fetch_add(1, std::memory_order_relaxed);
        HandleMessage(mb);
        hub_->MarkProcessed(mb.type);
      }
      if (!barrier_sent &&
          compers_running_.load(std::memory_order_acquire) == 0) {
        FlushAllRequests();
        RecordEvent(-1, {.kind = obs::EventKind::kDrain, .a = 1});  // barrier
        MessageBatch barrier;
        barrier.src_worker = id_;
        barrier.dst_worker = master_id_;
        barrier.type = MsgType::kDrainBarrier;
        barrier.payload = EncodeDrainBarrier(static_cast<int32_t>(id_));
        hub_->Send(std::move(barrier));
        barrier_sent = true;
      }
      if (!draining && drain_release_.load(std::memory_order_acquire)) {
        // This worker will originate nothing further (only answer what
        // still arrives). Socket backends use the announcement to run their
        // cluster-wide drain-marker protocol; in-process it is a no-op.
        hub_->BeginDrain(id_);
        draining = true;
      }
      if (draining) {
        if (hub_->InFlightCount() == 0) break;
      } else if (heartbeat_timer.ElapsedMicros() >=
                 config_.progress_interval_us) {
        SendProgress(/*final_report=*/false);
        heartbeat_timer.Restart();
      }
    }
    RecordEvent(-1, {.kind = obs::EventKind::kDrain, .a = 2});  // wire empty
    if (!output_dir_.empty()) FinalFlushOutput();
    RecordEvent(-1, {.kind = obs::EventKind::kDrain, .a = 4});  // final
    SendProgress(/*final_report=*/true);
    final_sent_.store(true, std::memory_order_release);
  }

  void HandleMessage(const MessageBatch& mb) {
    switch (mb.type) {
      case MsgType::kVertexRequest: {
        data_processed_.fetch_add(1, std::memory_order_relaxed);
        std::vector<VertexId> ids;
        GT_CHECK_OK(DecodeVertexRequest(mb.payload, &ids));
        // Γ-sharing: each record rides as a refcounted fragment handed out
        // by the response cache — a hot vertex is serialized once and its
        // slab is shared by every concurrent response batch carrying it.
        Serializer header;
        header.Write<uint64_t>(ids.size());
        MessageBatch resp;
        resp.payload = TakePayload(header);
        for (VertexId v : ids) {
          auto it = local_.find(v);
          GT_CHECK(it != local_.end())
              << "request for vertex " << v << " not owned by worker " << id_;
          resp.payload.Append(resp_cache_.Get(it->second));
        }
        resp.src_worker = id_;
        resp.dst_worker = mb.src_worker;
        resp.type = MsgType::kVertexResponse;
        data_sent_.fetch_add(1, std::memory_order_relaxed);
        hub_->Send(std::move(resp));
        break;
      }
      case MsgType::kVertexResponse: {
        data_processed_.fetch_add(1, std::memory_order_relaxed);
        PayloadCursor cur(mb.payload);
        uint64_t n = 0;
        GT_CHECK_OK(cur.Read(&n));
        std::vector<uint64_t> waiting;
        for (uint64_t i = 0; i < n; ++i) {
          // Each record is contiguous by construction (the sender never
          // splits one record across fragments), so the R-table fills
          // straight from the wire fragment — no flatten, no copy.
          size_t len = 0;
          const char* data = cur.ContiguousBytes(&len);
          size_t consumed = 0;
          waiting.clear();
          GT_CHECK_OK(cache_.InsertResponseSpan(config_.comm.wire_encoding,
                                                data, len, &consumed,
                                                &waiting));
          GT_CHECK_OK(cur.Skip(consumed));
          for (uint64_t tid : waiting) {
            const int comper = ComperOfTaskId(tid);
            GT_CHECK_LT(comper, static_cast<int>(engines_.size()));
            engines_[comper]->OnVertexReady(tid);
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
          const std::string path =
              spill_io_.Submit(spill_dir_, std::move(records));
          l_file_.PushBack(path, count);
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
        break;
      }
      case MsgType::kAggregatorSync: {
        AggT global{};
        PayloadView view(mb.payload);
        Deserializer des(view.data(), view.size());
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
        break;
      }
      case MsgType::kDrainBarrier: {
        // Master's echo: every worker has quiesced its compers and flushed
        // its request buffers; the wire can now only shrink.
        drain_release_.store(true, std::memory_order_release);
        break;
      }
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
    if (auto file = l_file_.TryPopBack()) {
      GT_CHECK_OK(spill_io_.Fetch(file->path, &records));
      GT_CHECK_EQ(static_cast<int64_t>(records.size()), file->records)
          << "spill file " << file->path << " record count drifted";
      tasks_disk_donated_.fetch_add(file->records, std::memory_order_relaxed);
    } else {
      std::vector<VertexId> to_spawn;
      ClaimSpawnBatch(config_.task_batch_size, &to_spawn);
      if (!to_spawn.empty()) {
        std::lock_guard<std::mutex> lock(steal_mutex_);
        steal_runtime_->SetSink(&records);
        for (VertexId v : to_spawn) steal_comper_->TaskSpawn(local_.at(v));
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
    tasks_donated_.fetch_add(static_cast<int64_t>(records.size()),
                             std::memory_order_relaxed);
    live_tasks_.fetch_sub(static_cast<int64_t>(records.size()));
    RecordEvent(-1, {.kind = obs::EventKind::kStealDonate,
                     .a = static_cast<int64_t>(records.size()),
                     .b = dst});
  }

  void SendProgress(bool final_report) {
    ProgressReport report;
    report.worker_id = id_;
    report.final_report = final_report ? 1 : 0;
    size_t queued = 0;
    for (const auto& engine : engines_) queued += engine->QueueSize();
    const size_t unspawned =
        spawn_order_.size() -
        std::min(next_spawn_.load(std::memory_order_relaxed),
                 spawn_order_.size());
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
    report.ledger.checkpointed =
        tasks_checkpointed_.load(std::memory_order_relaxed);
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
    report.spill_queue_depth = spill_io_.QueueDepth();
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
    ++parked_;
    pause_cv_.notify_all();
    pause_cv_.wait(lock, [this] {
      return !pause_.load(std::memory_order_acquire) ||
             stop_compers_.load(std::memory_order_acquire);
    });
    --parked_;
  }

  void DoCheckpoint(uint64_t epoch) {
    GT_CHECK(checkpoint_dfs_ != nullptr) << "checkpoint without a DFS";
    // Park every comper between iterations so the snapshot is quiescent.
    pause_.store(true, std::memory_order_release);
    {
      std::unique_lock<std::mutex> lock(pause_mutex_);
      pause_cv_.wait(lock, [this] {
        return parked_ == static_cast<int>(engines_.size());
      });
    }
    std::vector<std::string> records;
    for (auto& engine : engines_) engine->CollectCheckpointRecords(&records);
    // Durability barrier: the snapshot below reads spill files from disk
    // without popping them, so every batch the async writer still holds must
    // land first. (The kTaskBatch quiesce already ran master-side, and the
    // compers are parked, so nothing new can be submitted meanwhile.)
    spill_io_.Flush();
    // Spilled files are checkpointed by content (they stay on local disk for
    // the continuing run, which a failure would wipe).
    for (const FileList::Entry& entry : l_file_.Snapshot()) {
      std::vector<std::string> batch;
      GT_CHECK_OK(SpillFile::ReadBatch(entry.path, &batch));
      for (std::string& r : batch) records.push_back(std::move(r));
    }
    // Self-check: with the compers parked and (master-enforced) no donated
    // batch on the wire, the snapshot must cover exactly the live tasks.
    GT_CHECK_EQ(static_cast<int64_t>(records.size()), live_tasks_.load())
        << "worker " << id_ << " checkpoint missed live tasks";
    tasks_checkpointed_.fetch_add(static_cast<int64_t>(records.size()),
                                  std::memory_order_relaxed);
    Serializer ser;
    ser.Write<uint64_t>(next_spawn_.load(std::memory_order_relaxed));
    ser.Write<uint64_t>(records.size());
    for (const std::string& r : records) ser.WriteString(r);
    const std::string key = "ckpt/" + std::to_string(epoch) + "/worker_" +
                            std::to_string(id_);
    GT_CHECK_OK(checkpoint_dfs_->Put(key, ser.Release()));
    RecordEvent(-1, {.kind = obs::EventKind::kCheckpoint,
                     .a = static_cast<int64_t>(epoch)});
    // Cut the aggregator delta for the ack while the compers are still
    // parked: everything committed so far is pre-snapshot by quiescence.
    // Releasing first opened a race where a resumed comper finished a task
    // that was just serialized into the snapshot and committed its
    // contribution into this delta — the checkpoint meta then counted work
    // the restored task would redo (double count on resume).
    CheckpointAck ack;
    ack.worker_id = id_;
    ack.epoch = epoch;
    {
      Serializer agg_ser;
      Codec<AggT>::Encode(agg_ser, agg_.TakeLocal());
      ack.agg_delta = agg_ser.Release();
    }
    pause_.store(false, std::memory_order_release);
    pause_cv_.notify_all();
    MessageBatch mb;
    mb.src_worker = id_;
    mb.dst_worker = master_id_;
    mb.type = MsgType::kCheckpointAck;
    mb.payload = ack.Encode();
    hub_->Send(std::move(mb));
  }

  // ---------------------------------------------------------------------
  // GC thread (paper §V-A): lazy eviction when T_cache overflows.
  // ---------------------------------------------------------------------

  /// GC wake-up period.
  static constexpr int64_t kGcIntervalUs = 1000;

  void GcLoop() {
    while (!stop_compers_.load(std::memory_order_acquire)) {
      if (cache_.Overflowed()) {
        const int64_t excess = cache_.ExcessOverCapacity();
        if (excess > 0) cache_.EvictUpTo(excess);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(kGcIntervalUs));
    }
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
    auto set = [this](const char* name, int64_t v,
                      const std::string& labels = "") {
      metrics_.GetCounter(name, labels)->Add(v);
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
    for (int g = 0; g < VertexCache<VertexT>::kNumBucketGroups; ++g) {
      const auto& group = cs.groups[g];
      const std::string label = "group=" + std::to_string(g);
      set("cache.group.hits", group.hits.load(std::memory_order_relaxed),
          label);
      set("cache.group.misses", group.misses.load(std::memory_order_relaxed),
          label);
      set("cache.group.evictions",
          group.evictions.load(std::memory_order_relaxed), label);
    }
    set("request.deduped", coalescer_.deduped());
    set("resp_cache.hits", resp_cache_.hits());
    set("resp_cache.resets", resp_cache_.resets());
    set("resp_cache.bytes", resp_cache_.bytes());
    set("tasks.spawned", tasks_spawned_.load(std::memory_order_relaxed));
    set("tasks.finished", tasks_finished_.load(std::memory_order_relaxed));
    set("tasks.iterations", task_iterations_.load(std::memory_order_relaxed));
    set("spill.batches", spilled_batches_.load(std::memory_order_relaxed));
    set("steal.batches_received",
        stolen_batches_.load(std::memory_order_relaxed));
    const auto& ss = spill_io_.stats();
    set("spill.mem_hits", ss.mem_hits.load(std::memory_order_relaxed));
    set("spill.prefetch_hits",
        ss.prefetch_hits.load(std::memory_order_relaxed));
    set("spill.prefetch_reads",
        ss.prefetch_reads.load(std::memory_order_relaxed));
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
  const std::string spill_dir_;

  std::unordered_map<VertexId, VertexT> local_;  // T_local
  std::vector<VertexId> spawn_order_;
  std::atomic<size_t> next_spawn_{0};

  MemTracker mem_;
  VertexCache<VertexT> cache_;  // T_cache
  FileList l_file_;             // L_file
  AggregatorState<ComperT> agg_;

  std::vector<std::unique_ptr<ComperEngine>> engines_;
  std::unique_ptr<ComperT> steal_comper_;
  std::unique_ptr<StealRuntime> steal_runtime_;
  std::mutex steal_mutex_;

  /// Per-destination pull batching + in-window dedup (compers add, comm
  /// thread flushes).
  PullCoalescer coalescer_;
  /// Γ-sharing response memoization; comm-thread-confined (the only thread
  /// that answers kVertexRequest), so it needs no lock.
  ResponseCache<VertexT> resp_cache_;

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

  /// Spill writer/prefetcher thread: every spill write and read goes
  /// through it. Declared after l_file_ and metrics_, which its thread
  /// uses; started in the ctor body once its observers are installed.
  AsyncSpillIo spill_io_{&l_file_};

  // output collection
  static constexpr size_t kOutputFlushRecords = 4096;
  std::string output_dir_;
  std::mutex output_mutex_;
  std::vector<std::string> output_buffer_;
  std::atomic<int64_t> records_output_{0};

  // control
  std::atomic<bool> stop_compers_{false};
  std::atomic<bool> final_sent_{false};
  std::atomic<bool> drain_release_{false};
  std::atomic<int> compers_running_{0};
  std::atomic<bool> pause_{false};
  std::mutex pause_mutex_;
  std::condition_variable pause_cv_;
  int parked_ = 0;
  bool started_ = false;
  std::vector<std::thread> threads_;

  // counters
  std::atomic<int64_t> data_sent_{0};
  std::atomic<int64_t> data_processed_{0};
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
  std::atomic<int64_t> tasks_checkpointed_{0};
  std::atomic<int64_t> tasks_disk_donated_{0};
  std::atomic<int64_t> drained_messages_{0};
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_WORKER_H_
