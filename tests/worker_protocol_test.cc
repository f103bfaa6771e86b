// The worker's side of the progress-report protocol, without a master: one
// real Worker runs over a hub in the test's process, and the test thread plays
// the master (endpoint 2) and worker 1 (endpoint 1). It sends the master's
// control messages and a peer's pulls, and reads the worker's reports and
// batches off those endpoints, as Master::Run and a peer's comm loop would.
//
// The worker's comm thread handles one batch per loop pass and sends what
// that pass owes before it takes the next one. A pull it answers is sent
// while the pass handles it, and it owes no report. So once the answer to a
// later pull is back, every report and batch an earlier message triggered
// is on the wire: Fence() uses that to make "nothing else was sent" checks
// exact. Progress reports have a long period here, so no heartbeat lands in
// between. A check that must see the worker's state at the instant it sends
// a batch, not when the test reads it, runs as a send hook on the worker's
// own thread (HookedTransport).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "storage/mini_dfs.h"
#include "worker_zero.h"

namespace gthinker {
namespace {

using PlainTask = Task<AdjList, VertexId>;

constexpr int kPeer = 1;    // stands in for worker 1
constexpr int kMaster = 2;  // the master's endpoint

/// Spawns nothing: the worker turns idle once its comper finds the spawn
/// order exhausted.
class IdleComper : public Comper<PlainTask, uint64_t> {
 public:
  void TaskSpawn(const VertexT&) override {}
  bool Compute(TaskT*, const Frontier&) override { return false; }
  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }
};

/// One task per vertex, whose Compute blocks until the test opens the
/// latch.
class LatchComper : public Comper<PlainTask, uint64_t> {
 public:
  static std::atomic<int> entered;
  static std::atomic<bool> open;

  void TaskSpawn(const VertexT& v) override {
    auto task = std::make_unique<TaskT>();
    task->context() = v.id;
    AddTask(std::move(task));
  }
  bool Compute(TaskT*, const Frontier&) override {
    entered.fetch_add(1);
    while (!open.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return false;
  }
  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }
};
std::atomic<int> LatchComper::entered{0};
std::atomic<bool> LatchComper::open{false};

/// Vertex 0's task pulls vertex 1, which worker 1 owns.
class PullOneComper : public Comper<PlainTask, uint64_t> {
 public:
  void TaskSpawn(const VertexT& v) override {
    if (v.id != 0) return;
    auto task = std::make_unique<TaskT>();
    task->Pull(1);
    AddTask(std::move(task));
  }
  bool Compute(TaskT*, const Frontier&) override { return false; }
  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }
};

/// Vertex 0's task outputs kRecords records, fewer than one output flush
/// batch, so they stay buffered until the worker's final flush.
class OutputComper : public Comper<PlainTask, uint64_t> {
 public:
  static constexpr int kRecords = 100;

  void TaskSpawn(const VertexT& v) override {
    if (v.id == 0) AddTask(std::make_unique<TaskT>());
  }
  bool Compute(TaskT*, const Frontier&) override {
    for (int i = 0; i < kRecords; ++i) Output(std::to_string(i));
    return false;
  }
  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }
};

using SendHook = std::function<void(const MessageBatch&)>;

/// The rig's wire: Send runs the hook on the sending thread, then delivers
/// the batch to the hub, unstamped, as a socket backend delivers a batch
/// from another process.
class HookedTransport final : public net::Transport {
 public:
  explicit HookedTransport(SendHook hook) : hook_(std::move(hook)) {}

  const char* name() const override { return "hooked"; }
  Status Start(Deliver deliver) override {
    deliver_ = std::move(deliver);
    return Status::Ok();
  }
  void Stop() override {}
  void Send(MessageBatch batch) override {
    if (hook_) hook_(batch);
    deliver_(std::move(batch));
  }
  void CheckLinks() const override {}
  void AppendMetrics(obs::MetricsSnapshot*) const override {}

 private:
  const SendHook hook_;
  Deliver deliver_;
};

/// How the rig's hub delivers: through a HookedTransport, or by itself on
/// the in-process wire, which stamps every batch with the hub clock.
enum class Wire { kTransport, kInProcess };

/// Worker 0 of 2 with one comper, and the test thread as its master and
/// its peer.
template <typename ComperT>
class Rig {
 public:
  using WorkerT = Worker<ComperT>;

  explicit Rig(const std::function<void(WorkerT*)>& setup = nullptr,
               SendHook hook = nullptr, Wire wire = Wire::kTransport)
      : hub_(wire == Wire::kInProcess
                 ? std::make_unique<CommHub>(3)
                 : std::make_unique<CommHub>(
                       3, std::make_unique<HookedTransport>(std::move(hook)))) {
    GT_CHECK_OK(hub_->Start());
    worker_ = LoadWorkerZero<ComperT>(hub_.get(), Config(), setup);
    worker_->Start();
  }

  /// Releases the worker if the test did not, skipping the reports the
  /// test left unread up to the final one, and joins.
  ~Rig() {
    if (!released_) {
      FromMaster(MsgType::kTerminate);
      FromMaster(MsgType::kDrainBarrier);
      while (true) {
        const ProgressReport r = NextReport();
        if (r.final_report == 1 || r.worker_id < 0) break;
      }
    }
    Join();
  }

  static JobConfig Config() {
    JobConfig config;
    config.num_workers = 2;
    config.compers_per_worker = 1;
    config.task_batch_size = 1;
    // No heartbeat within a test: every report answers a scripted step.
    config.progress_interval_us = 600'000'000;
    return config;
  }

  CommHub& hub() { return *hub_; }
  WorkerT& worker() { return *worker_; }

  void FromMaster(MsgType type, Payload payload = {}) {
    if (type == MsgType::kDrainBarrier) released_ = true;
    Send(kMaster, type, std::move(payload));
  }

  void FromPeer(MsgType type, Payload payload) {
    Send(kPeer, type, std::move(payload));
  }

  void Join() { worker_.reset(); }

  /// The worker's next progress report (waits up to 5 s).
  ProgressReport NextReport() {
    MessageBatch mb;
    ProgressReport report;
    report.worker_id = -1;
    if (!hub_->Receive(kMaster, 5'000'000, &mb)) {
      ADD_FAILURE() << "no progress report within 5 s";
      return report;
    }
    EXPECT_EQ(mb.type, MsgType::kProgressReport);
    EXPECT_TRUE(report.Decode(mb.payload).ok());
    EXPECT_EQ(report.worker_id, 0);
    return report;
  }

  /// Reports queued for the master.
  int64_t Reports() const { return hub_->InboxDepth(kMaster); }

  /// Has the peer pull vertex 0 and waits for the answer; see the file
  /// comment. Returns the batches the peer got before it.
  std::vector<MessageBatch> Fence() {
    FromPeer(MsgType::kVertexRequest, EncodeVertexRequest({0}));
    std::vector<MessageBatch> before;
    while (true) {
      MessageBatch mb;
      if (!hub_->Receive(kPeer, 5'000'000, &mb)) {
        ADD_FAILURE() << "the fence pull was not answered within 5 s";
        return before;
      }
      if (mb.type == MsgType::kVertexResponse) return before;
      before.push_back(std::move(mb));
    }
  }

 private:
  void Send(int src, MsgType type, Payload payload) {
    MessageBatch mb;
    mb.src_worker = src;
    mb.dst_worker = 0;
    mb.type = type;
    mb.payload = std::move(payload);
    hub_->Send(std::move(mb));
  }

  std::unique_ptr<CommHub> hub_;
  std::unique_ptr<WorkerT> worker_;
  bool released_ = false;
};

/// Waits until a LatchComper sits in Compute.
void AwaitCompute() {
  while (LatchComper::entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

/// Call before the rig starts its comper.
void ResetLatch() {
  LatchComper::entered = 0;
  LatchComper::open = false;
}

/// Opens the latch when the test ends, so that a failed assertion cannot
/// leave the comper in Compute while the rig joins it. Declare it after the
/// rig.
struct OpenLatchAtExit {
  ~OpenLatchAtExit() { LatchComper::open = true; }
};

TEST(WorkerProtocol, OneReportPerReportRequest) {
  Rig<IdleComper> rig;
  // The comper's exhausted spawn order turns the worker idle, which it
  // reports at once.
  EXPECT_EQ(rig.NextReport().idle, 1);
  rig.Fence();
  EXPECT_EQ(rig.Reports(), 0);
  for (int i = 0; i < 3; ++i) rig.FromMaster(MsgType::kReportRequest);
  rig.Fence();
  EXPECT_EQ(rig.Reports(), 3);
  for (int i = 0; i < 3; ++i) {
    const ProgressReport r = rig.NextReport();
    EXPECT_EQ(r.idle, 1);
    EXPECT_EQ(r.final_report, 0);
    EXPECT_EQ(r.quiesced, 0);
  }
}

TEST(WorkerProtocol, StealOrderWithNothingToDonateSendsNoBatch) {
  Rig<IdleComper> rig;
  EXPECT_EQ(rig.NextReport().steal_orders_handled, 0);
  rig.FromMaster(MsgType::kStealOrder, EncodeStealOrder(kPeer, 1));
  EXPECT_TRUE(rig.Fence().empty()) << "a batch went to the thief";
  EXPECT_EQ(rig.Reports(), 0);
  rig.FromMaster(MsgType::kReportRequest);
  const ProgressReport r = rig.NextReport();
  EXPECT_EQ(r.steal_orders_handled, 1);
  EXPECT_EQ(r.ledger.donated, 0);
  EXPECT_EQ(r.ledger.disk_donated, 0);
}

TEST(WorkerProtocol, StealOrderDonatesUnspawnedRootsToTheThief) {
  ResetLatch();
  Rig<LatchComper> rig;
  OpenLatchAtExit open_at_exit;
  // The comper's first refill claims 2C = 2 of the 5 slots, and it holds
  // the first task in Compute, so 3 roots stay unspawned.
  AwaitCompute();
  rig.FromMaster(MsgType::kStealOrder, EncodeStealOrder(kPeer, 1));
  const std::vector<MessageBatch> sent = rig.Fence();
  ASSERT_EQ(sent.size(), 1u);
  ASSERT_EQ(sent[0].type, MsgType::kTaskBatch);
  std::vector<std::string> records;
  int64_t order_t_us = 0;
  ASSERT_TRUE(DecodeTaskBatch(sent[0].payload, &records, &order_t_us).ok());
  EXPECT_EQ(records.size(), 1u);  // one spawn batch of C = 1 root
  EXPECT_EQ(order_t_us, 1);
  EXPECT_EQ(rig.Reports(), 0);
  rig.FromMaster(MsgType::kReportRequest);
  const ProgressReport r = rig.NextReport();
  EXPECT_EQ(r.steal_orders_handled, 1);
  EXPECT_EQ(r.ledger.donated, static_cast<int64_t>(records.size()));
  EXPECT_EQ(r.ledger.disk_donated, 0);
  EXPECT_EQ(r.idle, 0);
}

// After kTerminate the worker reports once when its compers have exited,
// then after every batch that moves a term of the master's release
// predicate: a response to its pull, a donated task batch.
TEST(WorkerProtocol, QuiescedWorkerReportsEveryDrainTermThatMoves) {
  Rig<PullOneComper> rig;
  MessageBatch request;
  ASSERT_TRUE(rig.hub().Receive(kPeer, 5'000'000, &request));
  ASSERT_EQ(request.type, MsgType::kVertexRequest);
  rig.FromMaster(MsgType::kTerminate);
  ProgressReport r = rig.NextReport();
  EXPECT_EQ(r.quiesced, 1);
  EXPECT_EQ(r.requests_unanswered, 1);
  EXPECT_EQ(r.data_sent, 1);
  rig.Fence();
  EXPECT_EQ(rig.Reports(), 0);

  PlainTask::VertexT one;
  one.id = 1;
  rig.FromPeer(MsgType::kVertexResponse,
               EncodeVertexResponse<PlainTask::VertexT>({&one}));
  r = rig.NextReport();
  EXPECT_EQ(r.quiesced, 1);
  EXPECT_EQ(r.requests_unanswered, 0);
  rig.Fence();
  EXPECT_EQ(rig.Reports(), 0);

  const std::vector<std::string> donated = {
      ComperEngine<PullOneComper>::Tasks::Encode(PlainTask())};
  rig.FromPeer(MsgType::kTaskBatch, EncodeTaskBatch(donated, 0));
  r = rig.NextReport();
  EXPECT_EQ(r.quiesced, 1);
  EXPECT_EQ(r.ledger.received, 1);
  rig.Fence();
  EXPECT_EQ(rig.Reports(), 0);
}

TEST(WorkerProtocol, ReleaseFlushesOutputBeforeTheOneFinalReport) {
  const std::string dir = MakeTempDir("worker_protocol_output");
  // The output on disk at the instant the final report is sent.
  std::atomic<int64_t> flushed_at_final{-1};
  auto on_send = [&dir, &flushed_at_final](const MessageBatch& mb) {
    ProgressReport r;
    if (mb.type != MsgType::kProgressReport || !r.Decode(mb.payload).ok() ||
        r.final_report == 0) {
      return;
    }
    std::vector<std::string> records;
    if (ReadOutputRecords(dir, &records).ok()) {
      flushed_at_final = static_cast<int64_t>(records.size());
    }
  };
  {
    Rig<OutputComper> rig(
        [&dir](Worker<OutputComper>* w) { w->SetOutputDir(dir); }, on_send);
    EXPECT_EQ(rig.NextReport().idle, 1);  // the task has run
    std::vector<std::string> records;
    ASSERT_TRUE(ReadOutputRecords(dir, &records).ok());
    EXPECT_TRUE(records.empty()) << "output flushed before the release";
    rig.FromMaster(MsgType::kTerminate);
    EXPECT_EQ(rig.NextReport().quiesced, 1);
    rig.FromMaster(MsgType::kDrainBarrier);
    const ProgressReport r = rig.NextReport();
    EXPECT_EQ(flushed_at_final.load(), OutputComper::kRecords);
    EXPECT_EQ(r.final_report, 1);
    EXPECT_EQ(r.quiesced, 1);
    rig.Join();
    EXPECT_EQ(rig.Reports(), 0) << "more than one report after the release";
    EXPECT_EQ(rig.hub().InboxDepth(kPeer), 0);
  }
  RemoveTree(dir);
}

TEST(WorkerProtocol, CheckpointParksTheCompersAndAcksWithTheEpoch) {
  ResetLatch();
  MiniDfs dfs(MakeTempDir("worker_protocol_ckpt"));
  {
    Rig<LatchComper> rig(
        [&dfs](Worker<LatchComper>* w) { w->SetCheckpointDfs(&dfs); });
    OpenLatchAtExit open_at_exit;
    AwaitCompute();
    CheckpointRequest req;
    req.epoch = 3;
    rig.FromMaster(MsgType::kCheckpointRequest, req.Encode());
    // A comper parks only between iterations, so no snapshot and no ack
    // while it sits in Compute.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(rig.Reports(), 0);
    EXPECT_FALSE(dfs.Exists("ckpt/3/worker_0"));
    LatchComper::open = true;
    const ProgressReport ack = rig.NextReport();
    EXPECT_EQ(ack.checkpoint_epoch, 3u);
    std::string blob;
    ASSERT_TRUE(dfs.Get("ckpt/3/worker_0", &blob).ok());
    WorkerCheckpoint ckpt;
    ASSERT_TRUE(ckpt.Decode(blob).ok());
    // The ack is cut while the compers are parked: the snapshot holds
    // exactly the tasks it reports live.
    EXPECT_EQ(static_cast<int64_t>(ckpt.records.size()), ack.tasks_live);
    EXPECT_LE(ckpt.spawn_next, 5u);
    // Later reports repeat the epoch.
    rig.FromMaster(MsgType::kReportRequest);
    EXPECT_EQ(rig.NextReport().checkpoint_epoch, 3u);
  }
  ASSERT_TRUE(dfs.Clear().ok());
}

// steal.rtt_us subtracts the master's order stamp from this hub's clock,
// so a sample is taken only for a batch this hub stamped. A transport
// delivers batches unstamped: one from another process would carry a stamp
// from that process's clock.
TEST(WorkerProtocol, StealRttIsSampledOnlyForHubStampedBatches) {
  for (const Wire wire : {Wire::kTransport, Wire::kInProcess}) {
    SCOPED_TRACE(wire == Wire::kTransport ? "transport" : "in-process");
    Rig<IdleComper> rig(nullptr, nullptr, wire);
    EXPECT_EQ(rig.NextReport().idle, 1);
    const std::vector<std::string> donated = {
        ComperEngine<IdleComper>::Tasks::Encode(PlainTask())};
    // An order the master stamped 1 µs into the hub clock.
    rig.FromPeer(MsgType::kTaskBatch, EncodeTaskBatch(donated, 1));
    rig.Fence();
    const obs::MetricsSnapshot snap = rig.worker().MetricsSnapshot();
    const obs::HistogramSnapshot* rtt = snap.FindHistogram("steal.rtt_us");
    ASSERT_NE(rtt, nullptr);
    EXPECT_EQ(rtt->count, wire == Wire::kInProcess ? 1 : 0);
  }
}

}  // namespace
}  // namespace gthinker
