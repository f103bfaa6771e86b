// Fault-tolerance tests (paper §V-B): jobs checkpoint periodically and can
// resume from a checkpoint with the same final answer.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "apps/kernels.h"
#include "apps/maxclique_app.h"
#include "apps/triangle_app.h"
#include "core/cluster.h"
#include "core/protocol.h"
#include "graph/generator.h"
#include "storage/mini_dfs.h"
#include "util/serializer.h"

namespace gthinker {
namespace {

TEST(Checkpoint, JobWithCheckpointingStillCorrect) {
  Graph g = Generator::PowerLaw(500, 10.0, 2.4, 91);
  const uint64_t truth = CountTrianglesSerial(g);
  const std::string dir = MakeTempDir("ckpt");
  MiniDfs dfs(dir);

  Job<TriangleComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 2;
  job.config.checkpoint_interval_us = 3'000;  // aggressive
  job.config.enable_stealing = false;
  job.graph = &g;
  job.checkpoint_dfs = &dfs;
  job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
  job.trimmer = TrimToGreater;
  auto result = Cluster<TriangleComper>::Run(job);
  EXPECT_EQ(result.result, truth);
  RemoveTree(dir);
}

TEST(Checkpoint, ResumeProducesSameAnswer) {
  Graph g = Generator::PowerLaw(2000, 16.0, 2.4, 92);
  const uint64_t truth = CountTrianglesSerial(g);
  const std::string dir = MakeTempDir("ckpt");
  MiniDfs dfs(dir);

  // Run 1: checkpoint eagerly, abort early via a small time budget, as if
  // the cluster failed mid-job.
  int64_t checkpoints = 0;
  {
    Job<TriangleComper> job;
    job.config.num_workers = 2;
    job.config.compers_per_worker = 1;
    job.config.checkpoint_interval_us = 3'000;
    job.config.enable_stealing = false;
    job.config.time_budget_s = 0.08;
    // Throttle the wire hard (and shrink the cache so vertices get re-pulled)
    // so the budget strikes mid-flight.
    job.config.comm.net.latency_us = 300;
    job.config.comm.net.bandwidth_mbps = 2.0;
    job.config.cache_capacity = 128;
    job.config.cache_num_buckets = 32;
    job.graph = &g;
    job.checkpoint_dfs = &dfs;
    job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
    job.trimmer = TrimToGreater;
    auto result = Cluster<TriangleComper>::Run(job);
    checkpoints = result.stats.checkpoints;
    // If the graph was small enough to finish inside the budget the rest of
    // the test is vacuous; guard against that.
    if (!result.stats.timed_out) {
      GTEST_SKIP() << "job finished before the simulated failure";
    }
  }
  if (checkpoints == 0) {
    // Under heavy load or sanitizer slowdown the budget can strike before
    // the first checkpoint commits; the resume half is then vacuous.
    RemoveTree(dir);
    GTEST_SKIP() << "no checkpoint committed before the simulated failure";
  }

  // Run 2: resume from the last committed checkpoint; the final count must
  // match the serial truth exactly (no lost or double-counted triangles).
  {
    Job<TriangleComper> job;
    job.config.num_workers = 2;
    job.config.compers_per_worker = 1;
    job.config.enable_stealing = false;
    job.graph = &g;
    job.checkpoint_dfs = &dfs;
    job.resume_epoch = checkpoints;  // epochs are 1-based and sequential
    job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
    job.trimmer = TrimToGreater;
    auto result = Cluster<TriangleComper>::Run(job);
    EXPECT_EQ(result.result, truth);
  }
  RemoveTree(dir);
}

// Checkpoint while steal traffic is active. The master now quiesces
// stealing before broadcasting the snapshot request (no new kStealOrder
// once the checkpoint timer fires, broadcast held until in-flight
// kStealOrder/kTaskBatch counts hit zero), so no donated batch can be
// outside both the donor's and the recipient's snapshots. Resuming such a
// checkpoint must lose zero tasks and reproduce the exact answer.
TEST(Checkpoint, CheckpointUnderActiveStealingLosesNoTasks) {
  Graph g = Generator::PowerLaw(2000, 16.0, 2.4, 94);
  const uint64_t truth = CountTrianglesSerial(g);
  const std::string dir = MakeTempDir("ckpt");
  MiniDfs dfs(dir);

  int64_t checkpoints = 0;
  {
    Job<TriangleComper> job;
    job.config.num_workers = 4;
    job.config.compers_per_worker = 1;
    job.config.checkpoint_interval_us = 3'000;
    job.config.enable_stealing = true;
    job.config.task_batch_size = 8;  // small batches => frequent donations
    job.config.inflight_task_cap = 64;
    job.config.time_budget_s = 0.08;
    job.config.comm.net.latency_us = 300;
    job.config.comm.net.bandwidth_mbps = 2.0;
    job.config.cache_capacity = 128;
    job.config.cache_num_buckets = 32;
    job.graph = &g;
    job.checkpoint_dfs = &dfs;
    job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
    job.trimmer = TrimToGreater;
    auto result = Cluster<TriangleComper>::Run(job);
    checkpoints = result.stats.checkpoints;
    EXPECT_EQ(result.stats.tasks_lost, 0);
    if (!result.stats.timed_out) {
      EXPECT_EQ(result.result, truth);
      RemoveTree(dir);
      GTEST_SKIP() << "job finished before the simulated failure";
    }
  }
  if (checkpoints == 0) {
    RemoveTree(dir);
    GTEST_SKIP() << "no checkpoint committed before the failure";
  }

  {
    Job<TriangleComper> job;
    job.config.num_workers = 4;
    job.config.compers_per_worker = 1;
    job.config.enable_stealing = true;
    job.config.task_batch_size = 8;
    job.config.inflight_task_cap = 64;
    job.graph = &g;
    job.checkpoint_dfs = &dfs;
    job.resume_epoch = checkpoints;
    job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
    job.trimmer = TrimToGreater;
    auto result = Cluster<TriangleComper>::Run(job);
    EXPECT_EQ(result.result, truth)
        << "tasks were lost across the checkpoint/steal race";
    EXPECT_EQ(result.stats.tasks_lost, 0);
    EXPECT_EQ(result.stats.tasks_live_at_exit, 0);
  }
  RemoveTree(dir);
}

std::string CheckpointMetaKey(uint64_t epoch) {
  return "ckpt/" + std::to_string(epoch) + "/meta";
}

// Holds every task, re-pulling its frontier, until two more checkpoints
// have committed after its first held iteration, then computes as
// MaxCliqueComper. Between held iterations the comper parks for checkpoints
// as usual. The second of those checkpoints was requested after this
// comper's first task was live, so it snapshots held tasks, and no task can
// finish before it commits.
class HoldForCheckpointComper : public MaxCliqueComper {
 public:
  HoldForCheckpointComper(size_t tau, const MiniDfs* dfs)
      : MaxCliqueComper(tau), dfs_(dfs) {}

  bool Compute(TaskT* task, const Frontier& frontier) override {
    if (release_key_.empty()) {
      uint64_t committed = 0;
      while (dfs_->Exists(CheckpointMetaKey(committed + 1))) ++committed;
      release_key_ = CheckpointMetaKey(committed + 2);
    }
    if (!released_) released_ = dfs_->Exists(release_key_);
    if (released_) return MaxCliqueComper::Compute(task, frontier);
    for (const VertexT* u : frontier) task->Pull(u->id);
    return true;
  }

 private:
  const MiniDfs* dfs_;
  std::string release_key_;
  bool released_ = false;
};

TEST(Checkpoint, ResumeFreshFromEpochWorksForMaxClique) {
  Graph g = Generator::ErdosRenyi(200, 2000, 93);
  const size_t truth = MaxCliqueSerial(g).size();
  const std::string dir = MakeTempDir("ckpt");
  MiniDfs dfs(dir);

  int64_t checkpoints = 0;
  {
    Job<HoldForCheckpointComper> job;
    job.config.num_workers = 2;
    job.config.compers_per_worker = 1;
    job.config.checkpoint_interval_us = 1'000;
    job.config.enable_stealing = false;
    // Spawn batches of C = 10 roots, and at most D + 1 = 11 tasks waiting
    // on pulls: once a worker holds a few batches, its held tasks cycle
    // through Q_task and keep it above C, so refills stop and the
    // checkpoints of the hold land mid-spawn.
    job.config.task_batch_size = 10;
    job.config.inflight_task_cap = 10;
    job.graph = &g;
    job.checkpoint_dfs = &dfs;
    job.comper_factory = [&dfs] {
      return std::make_unique<HoldForCheckpointComper>(30, &dfs);
    };
    job.trimmer = TrimToGreater;
    auto result = Cluster<HoldForCheckpointComper>::Run(job);
    EXPECT_EQ(result.result.size(), truth);
    checkpoints = result.stats.checkpoints;
  }
  ASSERT_GE(checkpoints, 2);
  // The first checkpoint that holds tasks caught the job mid-spawn.
  int64_t epoch = 0;
  for (int64_t e = 1; e <= checkpoints && epoch == 0; ++e) {
    uint64_t spawn_next = 0;
    size_t records = 0;
    for (int w = 0; w < 2; ++w) {
      std::string blob;
      ASSERT_TRUE(dfs.Get("ckpt/" + std::to_string(e) + "/worker_" +
                              std::to_string(w),
                          &blob)
                      .ok());
      WorkerCheckpoint ckpt;
      ASSERT_TRUE(ckpt.Decode(blob).ok());
      spawn_next += ckpt.spawn_next;
      records += ckpt.records.size();
    }
    if (records == 0) continue;
    epoch = e;
    EXPECT_LT(spawn_next, g.NumVertices()) << "epoch " << e;
  }
  ASSERT_GT(epoch, 0) << "no checkpoint holds a task";
  // Resuming a *completed* job's checkpoint must still converge to the
  // right answer (it redoes the work from that epoch on).
  {
    Job<MaxCliqueComper> job;
    job.config.num_workers = 2;
    job.config.compers_per_worker = 1;
    job.config.enable_stealing = false;
    job.graph = &g;
    job.checkpoint_dfs = &dfs;
    job.resume_epoch = epoch;
    job.comper_factory = [] { return std::make_unique<MaxCliqueComper>(30); };
    job.trimmer = TrimToGreater;
    auto result = Cluster<MaxCliqueComper>::Run(job);
    EXPECT_EQ(result.result.size(), truth);
    EXPECT_GT(result.stats.ledger.restored, 0);
  }
  RemoveTree(dir);
}

// A checkpoint copies L_file without popping it: written batches from their
// files, the rest from memory. With C = 4, D = 8 and τ = 4 the MCF compers
// spill throughout the job, and spawn-first refill leaves the spilled
// batches in L_file, so checkpoints every millisecond land while it holds
// both kinds; a missed batch trips DoCheckpoint's fatal live-task
// self-check. Resuming the last checkpoint with tasks restores them
// through L_file and must reproduce the answer.
TEST(Checkpoint, SnapshotsCoverSpilledBatches) {
  Graph g = Generator::PowerLaw(1500, 16.0, 2.4, 95);
  const size_t truth = MaxCliqueSerial(g).size();
  const std::string dir = MakeTempDir("ckpt");
  MiniDfs dfs(dir);
  auto spilling_job = [&] {
    Job<MaxCliqueComper> job;
    job.config.num_workers = 2;
    job.config.compers_per_worker = 2;
    job.config.enable_stealing = false;
    job.config.task_batch_size = 4;
    job.config.task_queue_capacity_batches = 2;
    job.config.inflight_task_cap = 8;
    job.config.refill_spawn_first = true;
    job.graph = &g;
    job.checkpoint_dfs = &dfs;
    job.comper_factory = [] { return std::make_unique<MaxCliqueComper>(4); };
    job.trimmer = TrimToGreater;
    return job;
  };

  int64_t checkpoints = 0;
  {
    Job<MaxCliqueComper> job = spilling_job();
    job.config.checkpoint_interval_us = 1'000;
    auto result = Cluster<MaxCliqueComper>::Run(job);
    EXPECT_EQ(result.result.size(), truth);
    ASSERT_GT(result.stats.spilled_batches, 0);
    checkpoints = result.stats.checkpoints;
  }
  ASSERT_GE(checkpoints, 1);
  int64_t epoch = 0;
  for (int64_t e = checkpoints; e >= 1 && epoch == 0; --e) {
    for (int w = 0; w < 2; ++w) {
      std::string blob;
      ASSERT_TRUE(dfs.Get("ckpt/" + std::to_string(e) + "/worker_" +
                              std::to_string(w),
                          &blob)
                      .ok());
      WorkerCheckpoint ckpt;
      ASSERT_TRUE(ckpt.Decode(blob).ok());
      if (!ckpt.records.empty()) epoch = e;
    }
  }
  ASSERT_GT(epoch, 0) << "no checkpoint holds a task";
  {
    Job<MaxCliqueComper> job = spilling_job();
    job.resume_epoch = epoch;
    auto result = Cluster<MaxCliqueComper>::Run(job);
    EXPECT_EQ(result.result.size(), truth);
    EXPECT_GT(result.stats.ledger.restored, 0);
  }
  RemoveTree(dir);
}

// The layout flag comes last in ckpt/<epoch>/meta, so a meta written before
// it existed, a truncated one, or one with trailing bytes fails to decode
// with a Status instead of decoding shifted bytes.
TEST(Checkpoint, MetaDecodeIsTotalAndNeedsTheLayoutFlag) {
  const CheckpointMeta<uint64_t> meta{7, 3, 42, true};
  const std::string blob = meta.Encode();
  CheckpointMeta<uint64_t> back;
  ASSERT_TRUE(back.Decode(blob).ok());
  EXPECT_EQ(back.epoch, 7u);
  EXPECT_EQ(back.num_workers, 3);
  EXPECT_EQ(back.global, 42u);
  EXPECT_TRUE(back.hub_last);

  Serializer pre_flag;  // epoch, worker count, aggregate: the old layout
  pre_flag.Write<uint64_t>(7);
  pre_flag.Write<int32_t>(3);
  pre_flag.Write<uint64_t>(42);
  EXPECT_FALSE(back.Decode(pre_flag.Release()).ok());
  for (size_t n = 0; n < blob.size(); ++n) {
    EXPECT_FALSE(back.Decode(blob.substr(0, n)).ok()) << "prefix " << n;
  }
  std::string bad_flag = blob;
  bad_flag.back() = 2;
  EXPECT_FALSE(back.Decode(bad_flag).ok());
  EXPECT_FALSE(back.Decode(blob + "x").ok());
}

// Task contexts and pulls in a checkpoint are vertex IDs of the ID space it
// was taken in. Resuming it with the other layout setting is refused with a
// message naming both settings; the same setting resumes to the right answer.
TEST(CheckpointDeathTest, ResumeInAnotherIdSpaceIsRefused) {
  Graph g = Generator::PowerLaw(600, 10.0, 2.4, 95);
  const uint64_t truth = CountTrianglesSerial(g);
  for (const bool taken_hub_last : {true, false}) {
    const std::string dir = MakeTempDir("ckpt");
    MiniDfs dfs(dir);
    Job<TriangleComper> job;
    job.config.num_workers = 2;
    job.config.compers_per_worker = 1;
    job.config.enable_stealing = false;
    job.config.layout.reorder = taken_hub_last;
    job.config.flight_dump_dir = dir + "/flight";
    // Wire latency keeps the job alive across several checkpoint periods.
    job.config.checkpoint_interval_us = 2'000;
    job.config.comm.net.latency_us = 300;
    job.graph = &g;
    job.checkpoint_dfs = &dfs;
    job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
    job.trimmer = TrimToGreater;
    const auto first = Cluster<TriangleComper>::Run(job);
    ASSERT_EQ(first.result, truth);
    ASSERT_GT(first.stats.checkpoints, 0);

    job.config.checkpoint_interval_us = 0;
    job.resume_epoch = 1;
    job.config.layout.reorder = !taken_hub_last;
    EXPECT_DEATH(Cluster<TriangleComper>::Run(job),
                 taken_hub_last
                     ? "was taken in hub-last IDs.*but this job runs in "
                       "input IDs"
                     : "was taken in input IDs.*but this job runs in "
                       "hub-last IDs");
    job.config.layout.reorder = taken_hub_last;
    EXPECT_EQ(Cluster<TriangleComper>::Run(job).result, truth);
    RemoveTree(dir);
  }
}

}  // namespace
}  // namespace gthinker
