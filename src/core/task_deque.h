#ifndef GTHINKER_CORE_TASK_DEQUE_H_
#define GTHINKER_CORE_TASK_DEQUE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <iterator>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/root_bundle.h"
#include "storage/spill_list.h"
#include "util/concurrent_queue.h"
#include "util/logging.h"
#include "util/mem_tracker.h"
#include "util/serializer.h"
#include "util/timer.h"

namespace gthinker {

/// One comper's task store (paper §V-B, Fig. 7): the task queue Q_task and
/// the parked tasks, T_task (waiting on remote pulls) and B_task (ready),
/// with the paper's rules over them. With C = task_batch_size, every bound
/// counts roots (TaskWeight), so one-root apps see plain task counts:
///
///  - Pop refills Q_task once it holds <= C roots, up to 2C: from spilled
///    batches in L_file first, which keeps the number of disk-resident
///    tasks minimal, then from fresh spawns (refill_spawn_first inverts
///    the order). B_task, the paper's third source, is drained by the
///    owner directly every round.
///  - A Push that would pass task_queue_capacity_batches * C first spills
///    the tail tasks weighing C roots to L_file as one batch, in queue
///    order.
///  - The owner stops popping once T_task ∪ B_task hold more than D =
///    inflight_task_cap roots.
///
/// A task is charged to the MemTracker while its comper holds it; the
/// deque releases it when it leaves for L_file and charges it when it comes
/// back. The owner charges what it pushes and releases what it finishes.
///
/// Threads: the owning comper makes every call but three. Arrive runs on
/// whichever thread lands a parked task's pull; Weight may be read from any
/// thread; AppendRecords may run on another thread while the owner is
/// parked. A parked record's address is its T_cache waiter handle, and
/// `owner` rides along so a response finds the comper that readies it.
template <typename TaskT, typename OwnerT = void>
class TaskDeque {
 public:
  /// A task waiting on remote pulls (T_task, then B_task once ready).
  struct Parked {
    OwnerT* owner;
    std::unique_ptr<TaskT> task;
    /// Hub-clock instant the task parked, for its pending->ready wait.
    int64_t parked_at_us;
    /// Remote pulls not yet in T_cache, plus a hold of 1 while the owner is
    /// still registering them. Whoever takes it to zero readies the task.
    std::atomic<int> missing;
    typename std::list<Parked>::iterator self;  // in parked_

    uint64_t Waiter() const { return reinterpret_cast<uintptr_t>(this); }
    static Parked* FromWaiter(uint64_t waiter) {
      return reinterpret_cast<Parked*>(static_cast<uintptr_t>(waiter));
    }
  };
  static_assert(sizeof(Parked*) <= sizeof(uint64_t),
                "a T_cache waiter handle holds a Parked pointer");

  /// One batch moved from Q_task to L_file: its task count (0: nothing
  /// spilled) and the time the move took.
  struct Spill {
    int64_t tasks = 0;
    int64_t nanos = 0;
  };

  TaskDeque(const JobConfig& config, SpillList* l_file, MemTracker* mem)
      : batch_(config.task_batch_size),
        capacity_(batch_ * config.task_queue_capacity_batches),
        parked_cap_(config.inflight_task_cap),
        spawn_first_(config.refill_spawn_first),
        l_file_(l_file),
        mem_(mem) {}

  TaskDeque(const TaskDeque&) = delete;
  TaskDeque& operator=(const TaskDeque&) = delete;

  /// The one task<->record encoding: spills, refills, checkpoints and
  /// steal donations all use it.
  static std::string Encode(const TaskT& task) {
    Serializer ser;
    task.Serialize(ser);
    return ser.Release();
  }
  static std::unique_ptr<TaskT> Decode(const std::string& record) {
    auto task = std::make_unique<TaskT>();
    Deserializer des(record);
    GT_CHECK_OK(task->Deserialize(des));
    return task;
  }

  /// Q_task's weight in roots; any thread.
  size_t Weight() const { return weight_.load(std::memory_order_relaxed); }

  /// Appends a charged task to Q_task, spilling the tail first when it
  /// would overfill the queue. Returns what was spilled.
  Spill Push(std::unique_ptr<TaskT> task) {
    Spill spill;
    const size_t weight = TaskWeight(*task);
    if (!q_.empty() && Weight() + weight > capacity_) {
      Timer timer;
      std::vector<std::string> records;
      size_t spilled = 0;
      while (spilled < batch_ && !q_.empty()) {
        std::unique_ptr<TaskT> victim = std::move(q_.back());
        q_.pop_back();
        spilled += TaskWeight(*victim);
        mem_->Release(victim->MemoryBytes());
        records.push_back(Encode(*victim));
      }
      std::reverse(records.begin(), records.end());  // queue order
      spill.tasks = static_cast<int64_t>(records.size());
      l_file_->PushBack(std::move(records));
      spill.nanos = timer.ElapsedNanos();
      SetWeight(Weight() - spilled);
    }
    q_.push_back(std::move(task));
    SetWeight(Weight() + weight);
    return spill;
  }

  /// Takes Q_task's head, refilling first if Q_task holds <= C roots; null
  /// when nothing is left. `spawn()` spawns one batch through Push and
  /// returns false once T_local is exhausted. `loaded(tasks, nanos)` hears
  /// of every batch taken from L_file before it joins Q_task.
  template <typename SpawnFn, typename LoadedFn>
  std::unique_ptr<TaskT> Pop(SpawnFn&& spawn, LoadedFn&& loaded) {
    if (Weight() <= batch_) Refill(spawn, loaded);
    if (q_.empty()) return nullptr;
    std::unique_ptr<TaskT> task = std::move(q_.front());
    q_.pop_front();
    SetWeight(Weight() - TaskWeight(*task));
    return task;
  }

  /// True while T_task ∪ B_task hold at most D roots.
  bool ParkedUnderCap() const { return parked_roots_ <= parked_cap_; }

  bool HasParked() const { return !parked_.empty(); }

  /// Parks a task with `remote` pulls outstanding, plus the owner's hold.
  Parked* Park(OwnerT* owner, std::unique_ptr<TaskT> task, int64_t now_us,
               int remote) {
    parked_roots_ += TaskWeight(*task);
    Parked& parked =
        parked_.emplace_back(owner, std::move(task), now_us, remote + 1);
    parked.self = std::prev(parked_.end());
    return &parked;
  }

  /// Counts `n` of the record's pulls as landed; true for the call that
  /// counts its last, whose caller alone may then touch the record.
  static bool CountDown(Parked* parked, int n) {
    const int before = parked->missing.fetch_sub(n, std::memory_order_acq_rel);
    GT_CHECK_GE(before, n) << "a parked task's pull countdown went below 0";
    return before == n;
  }

  /// One pull of `parked` landed. The call that counts its last runs
  /// `ready(*parked)`, then moves the record to B_task, after which the
  /// owner may erase it at once.
  template <typename ReadyFn>
  void Arrive(Parked* parked, ReadyFn&& ready) {
    if (!CountDown(parked, 1)) return;
    ready(*parked);
    b_task_.Push(parked);
  }

  /// Unparks the oldest task in B_task; null when none is ready.
  std::unique_ptr<TaskT> TakeReady() {
    std::optional<Parked*> ready = b_task_.TryPop();
    return ready.has_value() ? Unpark(*ready) : nullptr;
  }

  /// Takes a ready task out of its record and erases the record.
  std::unique_ptr<TaskT> Unpark(Parked* parked) {
    std::unique_ptr<TaskT> task = std::move(parked->task);
    parked_.erase(parked->self);
    parked_roots_ -= TaskWeight(*task);
    return task;
  }

  /// Appends a record of every task held, Q_task first, then the parked
  /// ones. Only while the owner is parked and no pull can land (a
  /// checkpoint).
  void AppendRecords(std::vector<std::string>* records) const {
    for (const auto& task : q_) records->push_back(Encode(*task));
    for (const Parked& parked : parked_) {
      records->push_back(Encode(*parked.task));
    }
  }

 private:
  /// Refills Q_task up to 2C roots. spawn() pushes back into this deque,
  /// so the weight is re-read after every step.
  template <typename SpawnFn, typename LoadedFn>
  void Refill(SpawnFn& spawn, LoadedFn& loaded) {
    const size_t target = 2 * batch_;
    std::vector<std::string> records;
    std::vector<std::unique_ptr<TaskT>> tasks;
    while (Weight() < target) {
      if (spawn_first_ && spawn()) continue;
      Timer timer;
      if (l_file_->PopFront(&records)) {
        tasks.clear();
        size_t weight = 0;
        for (const std::string& record : records) {
          std::unique_ptr<TaskT>& task = tasks.emplace_back(Decode(record));
          mem_->Consume(task->MemoryBytes());
          weight += TaskWeight(*task);
        }
        loaded(std::span<const std::unique_ptr<TaskT>>(tasks),
               timer.ElapsedNanos());
        for (auto& task : tasks) q_.push_back(std::move(task));
        SetWeight(Weight() + weight);
        continue;
      }
      if (spawn_first_ || !spawn()) break;
    }
  }

  /// Only the owner writes the weight, so it needs no read-modify-write.
  void SetWeight(size_t weight) {
    weight_.store(weight, std::memory_order_relaxed);
  }

  const size_t batch_;       // C
  const size_t capacity_;    // task_queue_capacity_batches * C
  const size_t parked_cap_;  // D
  const bool spawn_first_;
  SpillList* const l_file_;
  MemTracker* const mem_;

  std::deque<std::unique_ptr<TaskT>> q_;  // Q_task
  std::atomic<size_t> weight_{0};         // Q_task's roots
  /// T_task ∪ B_task: every parked task's record.
  std::list<Parked> parked_;
  /// B_task: records whose last pull another thread counted (the owner
  /// runs a task whose countdown it ends itself at once).
  ConcurrentQueue<Parked*> b_task_;
  size_t parked_roots_ = 0;  // roots in T_task ∪ B_task
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_TASK_DEQUE_H_
