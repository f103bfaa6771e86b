// Master tests without workers: Master::Run runs on its own thread over a
// bare in-process hub, and the test thread plays the workers. It sends
// scripted progress reports from the worker endpoints and reads the master's
// batches off them, as a worker's comm loop would.
//
// The master handles one batch per loop pass and pops the next one only
// after the rest of that pass (snapshot, report requests, budget,
// checkpoint) ran. So once it popped a later report, every step the earlier
// one triggered is on the wire: Fence() uses that to make "nothing was sent"
// checks exact.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "apps/triangle_app.h"
#include "core/master.h"
#include "net/comm_hub.h"
#include "obs/flight_recorder.h"
#include "storage/mini_dfs.h"

namespace gthinker {
namespace {

using MasterT = Master<TriangleComper>;

std::string Delta(uint64_t v) {
  Serializer ser;
  Codec<uint64_t>::Encode(ser, v);
  return ser.Release();
}

JobConfig RigConfig(int n) {
  JobConfig config;
  config.num_workers = n;
  config.task_batch_size = 10;  // a donor must report more than 2C = 20
  config.progress_interval_us = 1'000;
  return config;
}

/// A Master over `n` worker endpoints, and the test thread's worker side.
class Rig {
 public:
  explicit Rig(const JobConfig& config, MiniDfs* dfs = nullptr)
      : n_(config.num_workers),
        hub_(n_ + 1),
        recorder_(obs::kFlightEvents),
        master_(config, &hub_, &recorder_, dfs, /*hub_last=*/false,
                TriangleComper::AggZero(), /*next_checkpoint_epoch=*/1),
        state_(n_),
        terminated_(n_, false) {
    for (int w = 0; w < n_; ++w) state_[w].worker_id = w;
  }

  ~Rig() {
    if (thread_.joinable()) thread_.join();
  }

  void Start() {
    thread_ = std::thread([this] { master_.Run(); });
  }
  void Join() { thread_.join(); }

  MasterT& master() { return master_; }
  CommHub& hub() { return hub_; }
  obs::FlightRecorder& recorder() { return recorder_; }

  /// Worker `w`'s next report; Send() repeats it.
  ProgressReport& state(int w) { return state_[w]; }

  /// Sets worker `w` idle with `sent` data batches sent and processed and a
  /// balanced ledger of `finished` tasks.
  void Idle(int w, int64_t sent, int64_t finished = 4) {
    ProgressReport& r = state_[w];
    r.idle = 1;
    r.remaining_estimate = 0;
    r.data_sent = r.data_processed = sent;
    r.ledger.spawned = r.ledger.finished = finished;
    r.tasks_live = 0;
  }

  void Busy(int w, int64_t remaining) {
    state_[w].idle = 0;
    state_[w].remaining_estimate = remaining;
    state_[w].tasks_live = 1;
    state_[w].ledger.spawned = state_[w].ledger.finished + 1;
  }

  /// Sends worker `w`'s report carrying aggregate delta `delta`.
  void Send(int w, uint64_t delta = 0) {
    ProgressReport r = state_[w];
    r.agg_delta = Delta(delta);
    sent_total_ += delta;
    SendFrom(w, r);
  }

  void SendFrom(int endpoint, const ProgressReport& r) {
    MessageBatch mb;
    mb.src_worker = endpoint;
    mb.dst_worker = n_;
    mb.type = MsgType::kProgressReport;
    mb.payload = r.Encode();
    hub_.Send(std::move(mb));
  }

  /// Every worker sends its report.
  void Round() {
    for (int w = 0; w < n_; ++w) Send(w);
  }

  /// Re-sends worker `w`'s report twice and waits until the master popped
  /// the second, which it does only once it handled the first: every step
  /// the earlier reports triggered has been sent. A fence counts toward the
  /// next snapshot like any report.
  void Fence(int w) {
    Send(w);
    Send(w);
    while (hub_.InboxDepth(n_) != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  /// The next batch the master sent worker `w` (waits up to 5 s).
  MessageBatch Next(int w) {
    MessageBatch mb;
    EXPECT_TRUE(hub_.Receive(w, 5'000'000, &mb)) << "worker " << w;
    if (mb.type == MsgType::kTerminate) terminated_[w] = true;
    return mb;
  }

  /// The types of the next `count` batches to worker `w`.
  std::vector<MsgType> NextTypes(int w, int count) {
    std::vector<MsgType> types;
    for (int i = 0; i < count; ++i) types.push_back(Next(w).type);
    return types;
  }

  /// True if the master has sent worker `w` nothing unread.
  bool InboxEmpty(int w) { return hub_.InboxDepth(w) == 0; }

  /// Plays every worker to the end of the job as idle, answering whatever
  /// the master sends: a checkpoint request with an epoch report, a report
  /// request with a report, kTerminate with a quiesced report, the release
  /// with a final report. Returns once Run did.
  void Finish() {
    for (int w = 0; w < n_; ++w) {
      Idle(w, state_[w].data_sent, state_[w].ledger.finished);
      if (terminated_[w]) state_[w].quiesced = 1;
    }
    Round();
    int finals = 0;
    while (finals < n_) {
      for (int w = 0; w < n_; ++w) {
        MessageBatch mb;
        while (hub_.Receive(w, 1'000, &mb)) {
          ProgressReport& r = state_[w];
          switch (mb.type) {
            case MsgType::kCheckpointRequest: {
              CheckpointRequest req;
              EXPECT_TRUE(req.Decode(mb.payload).ok());
              r.checkpoint_epoch = req.epoch;
              Send(w);
              break;
            }
            case MsgType::kReportRequest:
              Send(w);
              break;
            case MsgType::kTerminate:
              r.quiesced = 1;
              Send(w);
              break;
            case MsgType::kDrainBarrier:
              r.final_report = 1;
              Send(w);
              ++finals;
              break;
            default:
              break;
          }
        }
      }
    }
    Join();
  }

  /// Sum of every delta sent.
  uint64_t sent_total() const { return sent_total_; }

  /// Quiet snapshots and kTerminate decisions the master recorded.
  int Detects(int64_t a) const {
    int count = 0;
    for (const obs::SpanEvent& e : recorder_.Snapshot()) {
      count += e.kind == obs::EventKind::kDetect && e.a == a;
    }
    return count;
  }

 private:
  const int n_;
  CommHub hub_;
  obs::FlightRecorder recorder_;
  MasterT master_;
  std::vector<ProgressReport> state_;
  std::vector<bool> terminated_;  // kTerminate read by Next()
  uint64_t sent_total_ = 0;
  std::thread thread_;
};

using Types = std::vector<MsgType>;
constexpr MsgType kSync = MsgType::kAggregatorSync;
constexpr MsgType kAsk = MsgType::kReportRequest;

TEST(Master, TwoQuietSnapshotsTerminateAndQuiescedReportsRelease) {
  Rig rig(RigConfig(2));
  rig.Start();
  // Sent and processed balance only in the sum.
  rig.Idle(0, 5);
  rig.Idle(1, 5);
  rig.state(0).data_processed = 3;
  rig.state(1).data_processed = 7;
  rig.Send(0, 10);
  rig.Send(1, 20);
  // The first quiet snapshot asks every worker for the confirming report.
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(rig.NextTypes(w, 2), (Types{kSync, kAsk}));
  }
  rig.Send(0, 1);
  rig.Send(1, 2);
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(rig.NextTypes(w, 2), (Types{kSync, MsgType::kTerminate}));
  }
  EXPECT_EQ(rig.Detects(0), 2);
  EXPECT_EQ(rig.Detects(1), 1);

  // Reports keep flowing after kTerminate; the release waits for every
  // worker's quiesced report.
  rig.state(0).quiesced = 1;
  rig.Send(0, 100);
  rig.Send(1, 200);
  rig.Fence(1);
  EXPECT_TRUE(rig.InboxEmpty(0));
  EXPECT_TRUE(rig.InboxEmpty(1));
  rig.state(1).quiesced = 1;
  rig.Send(1);
  rig.Send(0);  // a repeated quiesced report releases nobody again
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(rig.Next(w).type, MsgType::kDrainBarrier);
  }
  for (int w = 0; w < 2; ++w) rig.state(w).final_report = 1;
  rig.Send(0, 1000);
  rig.Send(1, 2000);
  rig.Join();
  for (int w = 0; w < 2; ++w) EXPECT_TRUE(rig.InboxEmpty(w));
  EXPECT_EQ(rig.master().TakeGlobal(), rig.sent_total());
  EXPECT_EQ(rig.sent_total(), 3333u);
  EXPECT_FALSE(rig.master().timed_out());
  for (const ProgressReport& r : rig.master().LatestCopy()) {
    EXPECT_EQ(r.final_report, 1);
  }
}

/// Two quiet snapshots of `rig`'s 2 idle workers: the master sends
/// kTerminate.
void Terminate(Rig& rig) {
  rig.Idle(0, 2);
  rig.Idle(1, 2);
  rig.Round();
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(rig.NextTypes(w, 2), (Types{kSync, kAsk}));
  }
  rig.Round();
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(rig.NextTypes(w, 2), (Types{kSync, MsgType::kTerminate}));
  }
}

TEST(Master, CleanJobsLastQuiescedReportReleases) {
  Rig rig(RigConfig(2));
  rig.Start();
  Terminate(rig);
  rig.state(1).quiesced = 1;
  rig.Send(1);
  rig.Fence(0);
  EXPECT_TRUE(rig.InboxEmpty(0));
  EXPECT_TRUE(rig.InboxEmpty(1));
  // No report follows the last quiesced one.
  rig.state(0).quiesced = 1;
  rig.Send(0);
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(rig.Next(w).type, MsgType::kDrainBarrier);
  }
  for (int w = 0; w < 2; ++w) rig.state(w).final_report = 1;
  rig.Round();
  rig.Join();
}

TEST(Master, ReleaseWaitsForUnansweredRequestsAndUndeliveredTasks) {
  Rig rig(RigConfig(2));
  rig.Start();
  Terminate(rig);
  // Everyone quiesced, but worker 0 still awaits two responses.
  rig.state(0).quiesced = 1;
  rig.state(0).requests_unanswered = 2;
  rig.state(1).quiesced = 1;
  rig.Round();
  rig.Fence(1);
  EXPECT_TRUE(rig.InboxEmpty(0));
  EXPECT_TRUE(rig.InboxEmpty(1));
  // Answered, but worker 1 donated three tasks that worker 0 has not
  // received yet.
  rig.state(1).ledger.donated = 3;
  rig.Send(1);
  rig.state(0).requests_unanswered = 0;
  rig.Send(0);
  rig.Fence(1);
  EXPECT_TRUE(rig.InboxEmpty(0));
  EXPECT_TRUE(rig.InboxEmpty(1));
  rig.state(0).ledger.received = 2;
  rig.Send(0);
  rig.Fence(1);
  EXPECT_TRUE(rig.InboxEmpty(0));
  EXPECT_TRUE(rig.InboxEmpty(1));
  // The report that clears the predicate brings one release per worker, and
  // later reports bring no other.
  rig.state(0).ledger.received = 3;
  rig.Send(0);
  rig.Fence(0);
  rig.Fence(1);
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(rig.hub().InboxDepth(w), 1) << "worker " << w;
    EXPECT_EQ(rig.Next(w).type, MsgType::kDrainBarrier);
  }
  for (int w = 0; w < 2; ++w) rig.state(w).final_report = 1;
  rig.Round();
  rig.Join();
  for (int w = 0; w < 2; ++w) EXPECT_TRUE(rig.InboxEmpty(w));
}

TEST(Master, CountsThatMovedBetweenQuietSnapshotsNeedAThird) {
  Rig rig(RigConfig(2));
  rig.Start();
  rig.Idle(0, 3);
  rig.Idle(1, 2);
  rig.Round();
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(rig.NextTypes(w, 2), (Types{kSync, kAsk}));
  }
  // Quiet again, but a data batch was sent and processed in between.
  rig.Idle(1, 4);
  rig.Round();
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(rig.NextTypes(w, 2), (Types{kSync, kAsk}));
  }
  rig.Round();
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(rig.NextTypes(w, 2), (Types{kSync, MsgType::kTerminate}));
  }
  EXPECT_EQ(rig.Detects(0), 3);
  rig.Finish();
}

TEST(Master, UnbalancedLedgerIsNotQuiet) {
  Rig rig(RigConfig(2));
  rig.Start();
  rig.Idle(0, 3);
  rig.Idle(1, 3);
  // Worker 1 reports no live task, but its ledger expects one.
  rig.state(1).ledger.spawned = 5;
  rig.Round();
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(rig.NextTypes(w, 2), (Types{kSync, kAsk}));
  }
  rig.Round();
  // Not quiet: no confirming request, no kTerminate.
  for (int w = 0; w < 2; ++w) EXPECT_EQ(rig.NextTypes(w, 1), (Types{kSync}));
  rig.Fence(0);
  EXPECT_TRUE(rig.InboxEmpty(0));
  EXPECT_TRUE(rig.InboxEmpty(1));
  EXPECT_EQ(rig.Detects(0), 0);
  rig.Finish();
}

TEST(Master, ReportRequestsGoOnlyToStaleWorkersOnce) {
  Rig rig(RigConfig(3));
  rig.Start();
  // Nobody is asked while any latest report says busy.
  rig.Busy(0, 5);
  rig.Busy(1, 5);
  rig.Idle(2, 0);
  rig.Round();
  for (int w = 0; w < 3; ++w) EXPECT_EQ(rig.NextTypes(w, 1), (Types{kSync}));
  rig.Idle(0, 0);
  rig.Send(0);
  rig.Fence(0);
  for (int w = 0; w < 3; ++w) EXPECT_TRUE(rig.InboxEmpty(w));
  // Every latest report says idle: only worker 2, which has not reported
  // since the snapshot, is asked, and only once.
  rig.Idle(1, 0);
  rig.Send(1);
  rig.Fence(0);
  rig.Fence(1);
  EXPECT_EQ(rig.Next(2).type, kAsk);
  for (int w = 0; w < 3; ++w) EXPECT_TRUE(rig.InboxEmpty(w));
  // A busy report re-arms the request, once every report is idle again.
  rig.Busy(0, 5);
  rig.Send(0);
  rig.Fence(1);
  EXPECT_TRUE(rig.InboxEmpty(2));
  rig.Idle(0, 0);
  rig.Send(0);
  rig.Fence(1);
  EXPECT_EQ(rig.Next(2).type, kAsk);
  for (int w = 0; w < 3; ++w) EXPECT_TRUE(rig.InboxEmpty(w));
  rig.Finish();
}

TEST(Master, IdleThiefAndLoadedDonorBringAStealOrder) {
  Rig rig(RigConfig(2));
  rig.Start();
  rig.Idle(0, 0);
  rig.Busy(1, 21);
  rig.Round();
  EXPECT_EQ(rig.Next(0).type, kSync);
  EXPECT_EQ(rig.Next(1).type, kSync);
  const MessageBatch order = rig.Next(1);
  ASSERT_EQ(order.type, MsgType::kStealOrder);
  int32_t thief = -1;
  int64_t order_t_us = 0;
  ASSERT_TRUE(DecodeStealOrder(order.payload, &thief, &order_t_us).ok());
  EXPECT_EQ(thief, 0);
  // A donor at 2C gets no order.
  rig.Busy(1, 20);
  rig.Round();
  EXPECT_EQ(rig.Next(1).type, kSync);
  rig.Fence(0);
  EXPECT_TRUE(rig.InboxEmpty(1));
  rig.Finish();
}

TEST(Master, CheckpointWaitsForStealTrafficAndCutsTheAggregateAtEachAck) {
  const std::string dir = MakeTempDir("master_ckpt");
  MiniDfs dfs(dir);
  JobConfig config = RigConfig(2);
  config.checkpoint_interval_us = 200'000;
  Rig rig(config, &dfs);
  rig.Start();
  rig.Idle(0, 0);
  rig.Busy(1, 30);
  rig.Round();
  EXPECT_EQ(rig.Next(0).type, kSync);
  EXPECT_EQ(rig.Next(1).type, kSync);
  // Worker 1 reports no handled steal order past the checkpoint period.
  ASSERT_EQ(rig.Next(1).type, MsgType::kStealOrder);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  // Quiescing: every worker is asked for a report, no request goes out, and
  // a snapshot plans no steal.
  for (int w = 0; w < 2; ++w) EXPECT_EQ(rig.Next(w).type, kAsk);
  rig.Round();
  EXPECT_EQ(rig.Next(0).type, kSync);
  EXPECT_EQ(rig.Next(1).type, kSync);
  rig.Fence(0);
  EXPECT_TRUE(rig.InboxEmpty(0));
  EXPECT_TRUE(rig.InboxEmpty(1));
  // The donor's report counts the order handled and its task donated; the
  // request still waits for the recipient's report of the task.
  rig.state(1).steal_orders_handled = 1;
  rig.state(1).ledger.donated = 1;
  rig.Send(1);  // completes a snapshot
  EXPECT_EQ(rig.Next(0).type, kSync);
  EXPECT_EQ(rig.Next(1).type, kSync);
  rig.Fence(0);
  EXPECT_TRUE(rig.InboxEmpty(0));
  EXPECT_TRUE(rig.InboxEmpty(1));
  rig.state(0).ledger.received = 1;
  rig.Send(0);
  for (int w = 0; w < 2; ++w) {
    const MessageBatch req = rig.Next(w);
    ASSERT_EQ(req.type, MsgType::kCheckpointRequest);
    CheckpointRequest decoded;
    ASSERT_TRUE(decoded.Decode(req.payload).ok());
    EXPECT_EQ(decoded.epoch, 1u);
  }

  // Deltas merge into the checkpoint up to each worker's epoch report and
  // never after it; a snapshot while the acks are pending plans no steal.
  rig.Send(0, 1);
  rig.state(0).checkpoint_epoch = 1;
  rig.Send(0, 2);
  rig.Send(0, 4);
  rig.Send(1, 8);  // completes a snapshot
  EXPECT_EQ(rig.Next(0).type, kSync);
  EXPECT_EQ(rig.Next(1).type, kSync);
  rig.Fence(0);
  EXPECT_TRUE(rig.InboxEmpty(1));
  EXPECT_FALSE(dfs.Exists("ckpt/1/meta"));
  rig.state(1).checkpoint_epoch = 1;
  rig.Send(1, 16);
  rig.Send(1, 32);
  rig.Fence(0);
  std::string blob;
  ASSERT_TRUE(dfs.Get("ckpt/1/meta", &blob).ok());
  CheckpointMeta<uint64_t> meta;
  ASSERT_TRUE(meta.Decode(blob).ok());
  EXPECT_EQ(meta.epoch, 1u);
  EXPECT_EQ(meta.num_workers, 2);
  EXPECT_EQ(meta.global, 1u + 2 + 8 + 16);
  rig.Finish();
  EXPECT_GE(rig.master().checkpoints(), 1);
  EXPECT_EQ(rig.master().TakeGlobal(), rig.sent_total());
  RemoveTree(dir);
}

TEST(Master, CheckpointPendingAtTerminateNeverCommits) {
  const std::string dir = MakeTempDir("master_ckpt_budget");
  MiniDfs dfs(dir);
  JobConfig config = RigConfig(2);
  config.checkpoint_interval_us = 1'000;
  config.time_budget_s = 0.2;
  Rig rig(config, &dfs);
  rig.Start();
  // No steal order went out, so the quiesce's report requests settle
  // nothing: the checkpoint request follows at once.
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(rig.NextTypes(w, 2),
              (Types{kAsk, MsgType::kCheckpointRequest}));
  }
  // Nobody acks before the budget ends the job; the acks come after it.
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(rig.Next(w).type, MsgType::kTerminate);
    rig.state(w).checkpoint_epoch = 1;
  }
  rig.Finish();
  EXPECT_TRUE(rig.master().timed_out());
  EXPECT_EQ(rig.master().checkpoints(), 0);
  EXPECT_FALSE(dfs.Exists("ckpt/1/meta"));
  RemoveTree(dir);
}

TEST(Master, TimeBudgetSetsTimedOutAndTerminates) {
  JobConfig config = RigConfig(2);
  config.time_budget_s = 0.2;
  Rig rig(config);
  rig.Start();
  rig.Busy(0, 5);
  rig.Busy(1, 5);
  rig.Round();
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(rig.NextTypes(w, 2), (Types{kSync, MsgType::kTerminate}));
  }
  EXPECT_EQ(rig.Detects(1), 0);
  rig.Finish();
  EXPECT_TRUE(rig.master().timed_out());
}

// -- the master's own checks --

void ReportNamingAnotherWorker() {
  Rig rig(RigConfig(2));
  rig.Start();
  ProgressReport r;
  r.worker_id = 1;
  r.agg_delta = Delta(0);
  rig.SendFrom(0, r);
  rig.Join();
}

void QuiescedReportBeforeTerminate() {
  Rig rig(RigConfig(2));
  rig.Start();
  rig.state(0).quiesced = 1;
  rig.Send(0);
  rig.Join();
}

void SilentWorker() {
  JobConfig config = RigConfig(2);
  config.drain_timeout_us = 50'000;
  Rig rig(config);
  rig.Start();
  for (;;) {  // worker 0 heartbeats, worker 1 never reports
    rig.Send(0);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

TEST(MasterDeathTest, ReportNamingAnotherWorkerIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(ReportNamingAnotherWorker(),
               "progress_report from endpoint 0 names worker 1");
}

TEST(MasterDeathTest, QuiescedReportBeforeTerminateIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(QuiescedReportBeforeTerminate(),
               "quiesced report from worker 0 before kTerminate");
}

TEST(MasterDeathTest, SilentWorkerTripsTheBoundAndIsNamed) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(SilentWorker(),
               "master: worker 1 silent for 50000 us before kTerminate");
}

}  // namespace
}  // namespace gthinker
