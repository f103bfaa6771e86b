// Tests for TaskDeque, one comper's task store: Q_task's refill and spill
// rules, the parked records (T_task, B_task) and their countdowns, over a
// real L_file and MemTracker, with no worker, cache or hub.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/root_bundle.h"
#include "core/task.h"
#include "core/task_deque.h"
#include "storage/mini_dfs.h"
#include "storage/spill_list.h"
#include "util/concurrent_queue.h"
#include "util/mem_tracker.h"

namespace gthinker {
namespace {

using PlainTask = Task<AdjList, uint64_t>;  // context: the task's ID
using BundleTask = Task<AdjList, RootBundle>;

constexpr int kBatch = 4;  // C

/// A task whose record carries a pull list, a subgraph and its ID.
std::unique_ptr<PlainTask> MakeTask(uint64_t id) {
  auto task = std::make_unique<PlainTask>();
  task->context() = id;
  task->Pull(static_cast<VertexId>(id));
  task->Pull(static_cast<VertexId>(id + 1));
  Vertex<AdjList> v;
  v.id = static_cast<VertexId>(id);
  v.value = {static_cast<VertexId>(id + 2), static_cast<VertexId>(id + 3)};
  task->subgraph().AddVertex(std::move(v));
  return task;
}

/// A root bundle of `roots` roots, each with one candidate.
std::unique_ptr<BundleTask> MakeBundle(int roots) {
  RootBundleBuilder builder;
  for (int r = 0; r < roots; ++r) {
    const auto root = static_cast<VertexId>(2 * r);
    builder.Add(root, {root + 1});
  }
  return builder.Close<BundleTask>();
}

uint64_t IdOf(const std::string& record) {
  return TaskDeque<PlainTask>::Decode(record)->context();
}

class TaskDequeTest : public ::testing::Test {
 protected:
  TaskDequeTest()
      : root_(MakeTempDir("task_deque")), l_file_(root_ + "/l") {
    config_.task_batch_size = kBatch;
    config_.task_queue_capacity_batches = 3;
    config_.inflight_task_cap = 2 * kBatch;
  }
  ~TaskDequeTest() override {
    l_file_.Stop();
    RemoveTree(root_);
  }

  /// Charges and pushes a task, as a comper's AddTask does.
  template <typename TaskT>
  typename TaskDeque<TaskT>::Spill Add(TaskDeque<TaskT>& dq,
                                       std::unique_ptr<TaskT> task) {
    mem_.Consume(task->MemoryBytes());
    return dq.Push(std::move(task));
  }

  /// Pops with a spawner of `batches` batches of C tasks (IDs from 1000),
  /// noting spawn calls and loaded batch sizes.
  std::unique_ptr<PlainTask> PopWith(TaskDeque<PlainTask>& dq, int batches) {
    return dq.Pop(
        [&] {
          ++spawn_calls_;
          if (spawned_batches_ == batches) return false;
          ++spawned_batches_;
          for (int i = 0; i < kBatch; ++i) {
            Add(dq, MakeTask(next_spawn_id_++));
          }
          return true;
        },
        [&](std::span<const std::unique_ptr<PlainTask>> tasks,
            int64_t nanos) {
          EXPECT_GE(nanos, 0);
          loads_.push_back(tasks.size());
        });
  }

  /// Releases a popped task, as a comper does when it finishes.
  template <typename TaskT>
  std::string Finish(std::unique_ptr<TaskT> task) {
    mem_.Release(task->MemoryBytes());
    return TaskDeque<TaskT>::Encode(*task);
  }

  std::string root_;
  JobConfig config_;
  SpillList l_file_;
  MemTracker mem_;
  int spawn_calls_ = 0;
  int spawned_batches_ = 0;
  uint64_t next_spawn_id_ = 1000;
  std::vector<size_t> loads_;
};

TEST_F(TaskDequeTest, RefillStartsAtCAndStopsAt2C) {
  TaskDeque<PlainTask> dq(config_, &l_file_, &mem_);
  for (uint64_t id = 0; id < kBatch + 2; ++id) Add(dq, MakeTask(id));
  // C + 2 roots, then C + 1: above C, so no refill.
  ASSERT_EQ(PopWith(dq, 10)->context(), 0u);
  ASSERT_EQ(PopWith(dq, 10)->context(), 1u);
  EXPECT_EQ(spawn_calls_, 0);
  EXPECT_EQ(dq.Weight(), static_cast<size_t>(kBatch));
  // At C roots the refill spawns until Q_task holds 2C: one batch.
  ASSERT_EQ(PopWith(dq, 10)->context(), 2u);
  EXPECT_EQ(spawn_calls_, 1);
  EXPECT_EQ(dq.Weight(), static_cast<size_t>(2 * kBatch - 1));
}

TEST_F(TaskDequeTest, RefillTakesSpilledBatchesFirst) {
  TaskDeque<PlainTask> dq(config_, &l_file_, &mem_);
  std::vector<std::string> batch;
  for (uint64_t id = 0; id < kBatch; ++id) {
    batch.push_back(TaskDeque<PlainTask>::Encode(*MakeTask(id)));
  }
  l_file_.PushBack(batch);
  // Empty Q_task: the spilled batch loads first, then one spawn reaches 2C.
  ASSERT_EQ(PopWith(dq, 10)->context(), 0u);
  EXPECT_EQ(loads_, std::vector<size_t>{kBatch});
  EXPECT_EQ(spawn_calls_, 1);
  EXPECT_EQ(l_file_.TotalRecords(), 0);
  for (uint64_t want : {1u, 2u, 3u, 1000u}) {
    EXPECT_EQ(PopWith(dq, 10)->context(), want);
  }
}

TEST_F(TaskDequeTest, SpawnFirstAblationSpawnsBeforeLoading) {
  config_.refill_spawn_first = true;
  TaskDeque<PlainTask> dq(config_, &l_file_, &mem_);
  std::vector<std::string> batch;
  for (uint64_t id = 0; id < kBatch; ++id) {
    batch.push_back(TaskDeque<PlainTask>::Encode(*MakeTask(id)));
  }
  l_file_.PushBack(batch);
  // Two spawns reach 2C and leave L_file alone.
  ASSERT_EQ(PopWith(dq, 10)->context(), 1000u);
  EXPECT_EQ(spawned_batches_, 2);
  EXPECT_TRUE(loads_.empty());
  EXPECT_EQ(l_file_.TotalRecords(), kBatch);

  // Once T_local is exhausted the refill falls back to L_file.
  TaskDeque<PlainTask> drained(config_, &l_file_, &mem_);
  spawned_batches_ = 0;
  next_spawn_id_ = 2000;
  ASSERT_EQ(PopWith(drained, 1)->context(), 2000u);
  EXPECT_EQ(loads_, std::vector<size_t>{kBatch});
  for (uint64_t want : {2001u, 2002u, 2003u, 0u}) {
    EXPECT_EQ(PopWith(drained, 1)->context(), want);
  }
}

TEST_F(TaskDequeTest, SpillTakesTheTailTasksWeighingC) {
  TaskDeque<PlainTask> dq(config_, &l_file_, &mem_);
  for (uint64_t id = 0; id < 3 * kBatch; ++id) {
    EXPECT_EQ(Add(dq, MakeTask(id)).tasks, 0);
  }
  EXPECT_EQ(dq.Weight(), static_cast<size_t>(3 * kBatch));
  // The push that would pass 3C spills the tail C tasks, in queue order.
  EXPECT_EQ(Add(dq, MakeTask(99)).tasks, kBatch);
  EXPECT_EQ(dq.Weight(), static_cast<size_t>(2 * kBatch + 1));
  std::vector<std::string> records;
  ASSERT_TRUE(l_file_.PopFront(&records));
  std::vector<uint64_t> ids;
  for (const std::string& r : records) ids.push_back(IdOf(r));
  EXPECT_EQ(ids, (std::vector<uint64_t>{8, 9, 10, 11}));
  EXPECT_FALSE(l_file_.PopFront(&records));
}

TEST_F(TaskDequeTest, RootBundlesWeighTheirRootCount) {
  TaskDeque<BundleTask> dq(config_, &l_file_, &mem_);
  // Six 2-root bundles fill 3C = 12 roots.
  for (int i = 0; i < 6; ++i) EXPECT_EQ(Add(dq, MakeBundle(2)).tasks, 0);
  EXPECT_EQ(dq.Weight(), 12u);
  // The 13th root spills two bundles: C roots.
  EXPECT_EQ(Add(dq, MakeBundle(1)).tasks, 2);
  EXPECT_EQ(dq.Weight(), 9u);
  EXPECT_EQ(l_file_.TotalRecords(), 2);
}

TEST_F(TaskDequeTest, SpillThenRefillReturnsIdenticalRecords) {
  TaskDeque<PlainTask> dq(config_, &l_file_, &mem_);
  std::vector<std::string> pushed;
  for (uint64_t id = 0; id < 5 * kBatch; ++id) {
    auto task = MakeTask(id);
    pushed.push_back(TaskDeque<PlainTask>::Encode(*task));
    Add(dq, std::move(task));
  }
  ASSERT_GT(l_file_.TotalRecords(), 0);
  std::vector<std::string> popped;
  while (auto task = PopWith(dq, 0)) {
    popped.push_back(Finish(std::move(task)));
  }
  EXPECT_FALSE(loads_.empty());
  std::sort(pushed.begin(), pushed.end());
  std::sort(popped.begin(), popped.end());
  EXPECT_EQ(popped, pushed);
}

TEST_F(TaskDequeTest, CheckpointListsQueueThenParked) {
  TaskDeque<PlainTask> dq(config_, &l_file_, &mem_);
  for (uint64_t id = 0; id < 3; ++id) Add(dq, MakeTask(id));
  dq.Park(nullptr, MakeTask(10), 0, 2);
  dq.Park(nullptr, MakeTask(11), 0, 1);
  std::vector<std::string> records;
  dq.AppendRecords(&records);
  std::vector<uint64_t> ids;
  for (const std::string& r : records) ids.push_back(IdOf(r));
  EXPECT_EQ(ids, (std::vector<uint64_t>{0, 1, 2, 10, 11}));
  EXPECT_EQ(records[3], TaskDeque<PlainTask>::Encode(*MakeTask(10)));
}

TEST_F(TaskDequeTest, ParkedCapCountsRoots) {
  TaskDeque<BundleTask> dq(config_, &l_file_, &mem_);  // D = 2C = 8 roots
  EXPECT_TRUE(dq.ParkedUnderCap());
  EXPECT_FALSE(dq.HasParked());
  auto* first = dq.Park(nullptr, MakeBundle(4), 0, 1);
  dq.Park(nullptr, MakeBundle(4), 0, 1);
  EXPECT_TRUE(dq.ParkedUnderCap());  // 8 roots: at D
  dq.Park(nullptr, MakeBundle(1), 0, 1);
  EXPECT_FALSE(dq.ParkedUnderCap());  // 9 roots
  ASSERT_TRUE(TaskDeque<BundleTask>::CountDown(first, 2));
  EXPECT_EQ(dq.Unpark(first)->context().size(), 4u);
  EXPECT_TRUE(dq.ParkedUnderCap());
  EXPECT_TRUE(dq.HasParked());
}

TEST_F(TaskDequeTest, MemTrackerReturnsToItsStart) {
  mem_.Consume(1000);
  {
    TaskDeque<PlainTask> dq(config_, &l_file_, &mem_);
    for (uint64_t id = 0; id < 7 * kBatch; ++id) {
      auto task = MakeTask(id);
      // Grown pull lists change a task's size across the round-trip.
      task->Pull(static_cast<VertexId>(id + 5));
      Add(dq, std::move(task));
    }
    ASSERT_GE(l_file_.TotalRecords(), 3 * kBatch);
    int popped = 0;
    while (auto task = PopWith(dq, 2)) {
      Finish(std::move(task));
      ++popped;
    }
    EXPECT_EQ(popped, 9 * kBatch);
    EXPECT_EQ(l_file_.TotalRecords(), 0);
  }
  EXPECT_EQ(mem_.current(), 1000);
}

TEST_F(TaskDequeTest, CountdownsFromASecondThreadReadyEachRecordOnce) {
  constexpr int kTasks = 3000;
  constexpr int kPulls = 3;
  TaskDeque<PlainTask> dq(config_, &l_file_, &mem_);
  using Parked = TaskDeque<PlainTask>::Parked;
  std::vector<std::atomic<int>> readied(kTasks);
  ConcurrentQueue<uint64_t> handed;  // waiter handles, owner -> lander

  // The landing thread ends every countdown, interleaving a window of
  // records so that each record's last pull lands among others'.
  std::thread lander([&] {
    struct Pending {
      Parked* parked;
      int left;
    };
    std::vector<Pending> window;
    int received = 0;
    while (received < kTasks || !window.empty()) {
      if (received < kTasks && window.size() < 8) {
        if (auto waiter = handed.PopFor(std::chrono::milliseconds(1))) {
          window.push_back({Parked::FromWaiter(*waiter), kPulls});
          ++received;
          continue;
        }
      }
      for (size_t i = 0; i < window.size();) {
        Pending& p = window[i];
        const bool last = --p.left == 0;
        dq.Arrive(p.parked, [&](const Parked& ready) {
          readied[ready.task->context()].fetch_add(1);
        });
        if (last) {
          window[i] = window.back();
          window.pop_back();
        } else {
          ++i;
        }
      }
    }
  });

  std::vector<int> unparked(kTasks, 0);
  int taken = 0;
  auto take_ready = [&] {
    while (auto task = dq.TakeReady()) {
      const uint64_t id = task->context();
      EXPECT_EQ(readied[id].load(), 1) << "task " << id;
      ++unparked[id];
      ++taken;
    }
  };
  for (int id = 0; id < kTasks; ++id) {
    Parked* parked = dq.Park(nullptr, MakeTask(id), 0, kPulls);
    // Drop the owner's hold before another thread can see the record.
    EXPECT_FALSE(TaskDeque<PlainTask>::CountDown(parked, 1));
    handed.Push(parked->Waiter());
    if (id % 16 == 0) take_ready();
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (taken < kTasks && std::chrono::steady_clock::now() < deadline) {
    take_ready();
    std::this_thread::yield();
  }
  lander.join();
  take_ready();
  EXPECT_EQ(taken, kTasks);
  for (int id = 0; id < kTasks; ++id) {
    EXPECT_EQ(readied[id].load(), 1) << "task " << id;
    EXPECT_EQ(unparked[id], 1) << "task " << id;
  }
  EXPECT_FALSE(dq.HasParked());
  EXPECT_TRUE(dq.ParkedUnderCap());
}

}  // namespace
}  // namespace gthinker
