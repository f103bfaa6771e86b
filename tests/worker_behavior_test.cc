// Deep framework-semantics tests using purpose-built test compers: frontier
// ordering, duplicate pulls, multi-iteration tasks, deep decomposition, and
// root bundling.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "graph/generator.h"
#include "graph/layout.h"
#include "worker_zero.h"

namespace gthinker {
namespace {

using PlainTask = Task<AdjList, VertexId>;

/// Pulls every neighbor and asserts frontier[i] corresponds to pulls()[i]
/// with the right vertex id and value.
class FrontierOrderComper : public Comper<PlainTask, uint64_t> {
 public:
  explicit FrontierOrderComper(const Graph* truth) : truth_(truth) {}

  void TaskSpawn(const VertexT& v) override {
    if (v.value.empty()) return;
    auto task = std::make_unique<TaskT>();
    task->context() = v.id;
    for (VertexId u : v.value) task->Pull(u);
    expected_.push_back(v.value);  // remember order per spawned task
    AddTask(std::move(task));
  }

  bool Compute(TaskT* task, const Frontier& frontier) override {
    const AdjList& adj = truth_->Neighbors(task->context());
    EXPECT_EQ(frontier.size(), adj.size());
    uint64_t ok = 1;
    for (size_t i = 0; i < frontier.size(); ++i) {
      if (frontier[i]->id != adj[i]) ok = 0;
      if (frontier[i]->value != truth_->Neighbors(adj[i])) ok = 0;
    }
    Aggregate(ok);
    return false;
  }

  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }

 private:
  const Graph* truth_;
  std::vector<AdjList> expected_;
};

TEST(WorkerBehavior, FrontierMatchesPullOrderAndValues) {
  Graph g = Generator::ErdosRenyi(150, 700, 401);
  uint64_t tasks_with_pulls = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (!g.Neighbors(v).empty()) ++tasks_with_pulls;
  }
  // Compers see vertex IDs and rows in the load-time layout (hub-last by
  // default), so the truth is the graph the engine actually loads.
  const Graph loaded = VertexLayout::HubLast(g).Apply(g);
  Job<FrontierOrderComper> job;
  job.config.num_workers = 3;
  job.config.compers_per_worker = 2;
  job.graph = &g;
  job.comper_factory = [&loaded] {
    return std::make_unique<FrontierOrderComper>(&loaded);
  };
  auto result = Cluster<FrontierOrderComper>::Run(job);
  // Every task must have validated its whole frontier.
  EXPECT_EQ(result.result, tasks_with_pulls);
}

/// Pulls the SAME vertex several times in one iteration; the frontier must
/// repeat it and lock counting must stay balanced (job must terminate).
class DuplicatePullComper : public Comper<PlainTask, uint64_t> {
 public:
  void TaskSpawn(const VertexT& v) override {
    if (v.value.empty()) return;
    auto task = std::make_unique<TaskT>();
    task->context() = v.id;
    const VertexId target = v.value[0];
    task->Pull(target);
    task->Pull(target);
    task->Pull(target);
    AddTask(std::move(task));
  }

  bool Compute(TaskT* /*task*/, const Frontier& frontier) override {
    EXPECT_EQ(frontier.size(), 3u);
    EXPECT_EQ(frontier[0], frontier[1]);  // same cached object
    EXPECT_EQ(frontier[1], frontier[2]);
    Aggregate(1);
    return false;
  }

  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }
};

TEST(WorkerBehavior, DuplicatePullsAreSatisfiedAndBalanced) {
  Graph g = Generator::ErdosRenyi(120, 500, 402);
  uint64_t expected = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (!g.Neighbors(v).empty()) ++expected;
  }
  Job<DuplicatePullComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 2;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<DuplicatePullComper>(); };
  auto result = Cluster<DuplicatePullComper>::Run(job);
  EXPECT_EQ(result.result, expected);
}

/// Walks `hops` pull iterations before finishing: iteration i pulls one
/// vertex derived from the previous frontier. Verifies multi-iteration
/// suspend/resume bookkeeping.
class MultiHopComper : public Comper<PlainTask, uint64_t> {
 public:
  explicit MultiHopComper(int hops) : hops_(hops) {}

  void TaskSpawn(const VertexT& v) override {
    if (v.value.empty()) return;
    auto task = std::make_unique<TaskT>();
    task->context() = v.id;
    task->Pull(v.value[0]);
    AddTask(std::move(task));
  }

  bool Compute(TaskT* task, const Frontier& frontier) override {
    EXPECT_EQ(frontier.size(), 1u);
    if (static_cast<int>(task->iteration()) + 1 < hops_ &&
        !frontier[0]->value.empty()) {
      task->Pull(frontier[0]->value[0]);
      return true;  // another iteration
    }
    Aggregate(task->iteration() + 1);  // count hops completed
    return false;
  }

  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }

 private:
  const int hops_;
};

TEST(WorkerBehavior, MultiIterationTasksResumeCorrectly) {
  Graph g = Generator::ErdosRenyi(100, 600, 403);
  Job<MultiHopComper> job;
  job.config.num_workers = 3;
  job.config.compers_per_worker = 2;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<MultiHopComper>(4); };
  auto result = Cluster<MultiHopComper>::Run(job);
  // Every non-isolated vertex contributes between 1 and 4 hops.
  uint64_t spawned = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (!g.Neighbors(v).empty()) ++spawned;
  }
  EXPECT_GE(result.result, spawned);
  EXPECT_LE(result.result, 4 * spawned);
}

/// Every task pulls only remote vertices, duplicates included, from a pool
/// of kPool vertices per worker that all compers share, for kIters
/// iterations. With a cache of 2 the pool's vertices keep getting evicted
/// and pulled again, so a task's pulls mix T_cache hits, joins on another
/// task's open request and, now and then, responses that land while the
/// task is still registering its pulls. Sums the IDs of every frontier.
class SharedPoolComper : public Comper<PlainTask, uint64_t> {
 public:
  static constexpr VertexId kPool = 16;
  static constexpr uint32_t kIters = 3;

  /// Pull list of the task rooted at v in `iteration`: worker v % 2 owns v,
  /// so pool vertex k is 2k + 1 - v % 2 on the other worker.
  static std::vector<VertexId> PullsOf(VertexId v, uint32_t iteration) {
    std::vector<VertexId> pulls;
    for (VertexId j = 0; j < 5; ++j) {
      const VertexId k = (7 * v + 3 * iteration + j * j) % kPool;
      pulls.push_back(2 * k + 1 - v % 2);
    }
    pulls.push_back(pulls.front());  // at least one duplicate
    return pulls;
  }

  void TaskSpawn(const VertexT& v) override {
    auto task = std::make_unique<TaskT>();
    task->context() = v.id;
    for (VertexId u : PullsOf(v.id, 0)) task->Pull(u);
    AddTask(std::move(task));
  }

  bool Compute(TaskT* task, const Frontier& frontier) override {
    const std::vector<VertexId> pulls =
        PullsOf(task->context(), task->iteration());
    EXPECT_EQ(frontier.size(), pulls.size());
    uint64_t sum = 0;
    for (size_t i = 0; i < frontier.size(); ++i) {
      EXPECT_EQ(frontier[i]->id, pulls[i]);
      sum += frontier[i]->id;
    }
    Aggregate(sum);
    if (task->iteration() + 1 == kIters) return false;
    for (VertexId u : PullsOf(task->context(), task->iteration() + 1)) {
      task->Pull(u);
    }
    return true;
  }

  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }
};

TEST(WorkerBehavior, SharedRemotePullsRunEachIterationOnce) {
  constexpr VertexId kVertices = 400;
  uint64_t expected = 0;
  for (VertexId v = 0; v < kVertices; ++v) {
    for (uint32_t i = 0; i < SharedPoolComper::kIters; ++i) {
      for (VertexId u : SharedPoolComper::PullsOf(v, i)) expected += u;
    }
  }
  Graph g(kVertices);
  g.Finalize();
  Job<SharedPoolComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 4;
  job.config.cache_capacity = 2;
  job.config.cache_overflow_alpha = 0.0;
  job.config.enable_stealing = false;  // a task's pulls stay remote
  job.config.layout.reorder = false;
  job.config.time_budget_s = 20.0;  // a hang fails the test, not the lane
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<SharedPoolComper>(); };
  auto result = Cluster<SharedPoolComper>::Run(job);
  ASSERT_FALSE(result.stats.timed_out);
  EXPECT_EQ(result.result, expected);
  // A task run twice, or never, would move the iteration count.
  EXPECT_EQ(result.stats.task_iterations,
            static_cast<int64_t>(kVertices * SharedPoolComper::kIters));
}

/// Decomposes each spawned task into a chain of `depth` children (each
/// AddTask'ed without pulls), counting leaves. Exercises AddTask-from-
/// Compute, queue spilling of decomposed tasks, and termination with purely
/// local work.
class DeepDecomposeComper : public Comper<Task<AdjList, uint32_t>, uint64_t> {
 public:
  explicit DeepDecomposeComper(uint32_t depth, uint32_t fanout)
      : depth_(depth), fanout_(fanout) {}

  void TaskSpawn(const VertexT& v) override {
    if (v.id % 16 != 0) return;  // a sparse set of roots
    auto task = std::make_unique<TaskT>();
    task->context() = 0;  // depth so far
    AddTask(std::move(task));
  }

  bool Compute(TaskT* task, const Frontier& frontier) override {
    EXPECT_TRUE(frontier.empty());
    if (task->context() == depth_) {
      Aggregate(1);
      return false;
    }
    for (uint32_t i = 0; i < fanout_; ++i) {
      auto child = std::make_unique<TaskT>();
      child->context() = task->context() + 1;
      AddTask(std::move(child));
    }
    return false;
  }

  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }

 private:
  const uint32_t depth_;
  const uint32_t fanout_;
};

TEST(WorkerBehavior, DeepDecompositionCountsLeaves) {
  Graph g(64);
  g.Finalize();
  Job<DeepDecomposeComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 2;
  job.config.task_batch_size = 8;  // force spills of the task tree
  job.graph = &g;
  job.comper_factory = [] {
    return std::make_unique<DeepDecomposeComper>(5, 3);
  };
  auto result = Cluster<DeepDecomposeComper>::Run(job);
  // 4 roots (ids 0,16,32,48), each expanding 3^5 leaves.
  EXPECT_EQ(result.result, 4u * 243u);
  EXPECT_GT(result.stats.spilled_batches, 0);
  // Every task that went through the spill writer came back and finished.
  EXPECT_EQ(result.stats.tasks_spawned, result.stats.tasks_finished);
}

TEST(WorkerBehavior, SpillingAndNonSpillingQueuesAgree) {
  // A queue that spills the task tree and one large enough to hold all of
  // it must give the same count and conserve tasks.
  struct Shape {
    int batch;
    bool spills;
  };
  for (const Shape shape : {Shape{8, true}, Shape{1024, false}}) {
    Graph g(64);
    g.Finalize();
    Job<DeepDecomposeComper> job;
    job.config.num_workers = 2;
    job.config.compers_per_worker = 2;
    job.config.task_batch_size = shape.batch;
    job.config.inflight_task_cap = 8 * shape.batch;
    job.graph = &g;
    job.comper_factory = [] {
      return std::make_unique<DeepDecomposeComper>(5, 3);
    };
    auto result = Cluster<DeepDecomposeComper>::Run(job);
    EXPECT_EQ(result.result, 4u * 243u) << "batch=" << shape.batch;
    // 4 * (1 + 3 + ... + 243) = 1456 tasks fit in one 3 * 1024 queue.
    EXPECT_EQ(result.stats.spilled_batches > 0, shape.spills)
        << "batch=" << shape.batch;
    EXPECT_EQ(result.stats.tasks_spawned, result.stats.tasks_finished)
        << "batch=" << shape.batch;
  }
}

/// Bundles every local vertex as a root and records each bundle's roots
/// (in-process runs only: the record is process-global). Roots whose vertex
/// has neighbors nap in Compute, so the worker owning them stays busy long
/// enough for the others to steal its unspawned roots.
class RecordBundlesComper : public Comper<Task<AdjList, RootBundle>, uint64_t> {
 public:
  static std::mutex mu;
  static std::vector<std::vector<VertexId>> bundles;

  void TaskSpawn(const VertexT& v) override { AddRoot(v.id, v.value); }

  bool Compute(TaskT* task, const Frontier& frontier) override {
    std::vector<VertexId> roots;
    uint64_t edges = 0;
    ForEachRoot(task->context(), frontier,
                [&](const VertexT& root, const Frontier& candidates) {
                  roots.push_back(root.id);
                  EXPECT_EQ(candidates.size(), root.value.size());
                  for (size_t i = 0; i < candidates.size(); ++i) {
                    EXPECT_EQ(candidates[i]->id, root.value[i]);
                  }
                  edges += root.value.size();
                });
    if (edges > 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::lock_guard<std::mutex> lock(mu);
    bundles.push_back(std::move(roots));
    return false;
  }

  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }
};

std::mutex RecordBundlesComper::mu;
std::vector<std::vector<VertexId>> RecordBundlesComper::bundles;

TEST(WorkerBehavior, RootBundlesCoverEveryVertexOncePerSpawnBatch) {
  // Only multiples of 3 have edges, so worker 0 of 3 owns all the napping
  // roots and the idle workers steal spawn batches from it.
  constexpr int kWorkers = 3;
  constexpr int kBatch = 4;
  const Graph base = Generator::ErdosRenyi(600, 2400, 406);
  Graph g(kWorkers * base.NumVertices());
  for (VertexId u = 0; u < base.NumVertices(); ++u) {
    for (VertexId v : base.GreaterNeighbors(u)) g.AddEdge(3 * u, 3 * v);
  }
  g.Finalize();
  RecordBundlesComper::bundles.clear();
  Job<RecordBundlesComper> job;
  job.config.num_workers = kWorkers;
  job.config.compers_per_worker = 2;
  job.config.enable_stealing = true;
  job.config.task_batch_size = kBatch;
  job.config.progress_interval_us = 500;  // plan steals early and often
  job.config.layout.reorder = false;  // keep roots in input IDs
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<RecordBundlesComper>(); };
  auto result = Cluster<RecordBundlesComper>::Run(job);
  ASSERT_GT(result.stats.stolen_batches, 0);
  EXPECT_EQ(result.stats.ledger.disk_donated, 0);  // donations were spawns

  // A spawn batch is C consecutive roots of one worker's sorted vertices:
  // with v % kWorkers owning v, root v sits at v / kWorkers in that order.
  std::vector<int> seen(g.NumVertices(), 0);
  for (const std::vector<VertexId>& roots : RecordBundlesComper::bundles) {
    ASSERT_FALSE(roots.empty());
    EXPECT_LE(roots.size(), static_cast<size_t>(kBatch));
    const VertexId first = roots.front();
    for (VertexId v : roots) {
      ++seen[v];
      EXPECT_EQ(v % kWorkers, first % kWorkers) << "bundle spans workers";
      EXPECT_EQ(v / kWorkers / kBatch, first / kWorkers / kBatch)
          << "bundle spans two spawn batches";
    }
  }
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(seen[v], 1) << "vertex " << v;
  }
  EXPECT_EQ(result.stats.tasks_spawned,
            static_cast<int64_t>(RecordBundlesComper::bundles.size()));
}

/// Spawns one task, at vertex 0, whose Compute grows its subgraph by a
/// vertex with 2^20 neighbors (about 4 MB) and records the grown size.
class GrowInComputeComper : public Comper<PlainTask, uint64_t> {
 public:
  static std::atomic<int64_t> grown_bytes;

  void TaskSpawn(const VertexT& v) override {
    if (v.id == 0) AddTask(std::make_unique<TaskT>());
  }

  bool Compute(TaskT* task, const Frontier& /*frontier*/) override {
    VertexT big;
    big.id = 0;
    big.value.resize(1 << 20);
    for (size_t i = 0; i < big.value.size(); ++i) {
      big.value[i] = static_cast<VertexId>(i);
    }
    task->subgraph().AddVertex(std::move(big));
    grown_bytes.store(task->MemoryBytes());
    Aggregate(1);
    return false;
  }

  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }
};
std::atomic<int64_t> GrowInComputeComper::grown_bytes{0};

// A task is charged at its current size while its comper holds it, so what
// Compute grows reaches the worker's tracked peak.
TEST(WorkerBehavior, TaskGrowthInComputeReachesTrackedPeak) {
  Graph g = Generator::ErdosRenyi(20, 40, 409);
  Job<GrowInComputeComper> job;
  job.config.num_workers = 1;
  job.config.compers_per_worker = 1;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<GrowInComputeComper>(); };
  auto result = Cluster<GrowInComputeComper>::Run(job);
  EXPECT_EQ(result.result, 1u);
  const int64_t grown = GrowInComputeComper::grown_bytes.load();
  EXPECT_GT(grown, int64_t{4} << 20);
  EXPECT_GE(result.stats.max_peak_mem_bytes, grown);
}

/// Spawns nothing: a worker that only answers pull requests.
class NoTaskComper : public Comper<PlainTask, uint64_t> {
 public:
  void TaskSpawn(const VertexT&) override {}
  bool Compute(TaskT*, const Frontier&) override { return false; }
  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }
};

/// Worker 0's task for vertex 0 pulls vertex 1, which worker 1 owns.
class PullVertexOneComper : public Comper<PlainTask, uint64_t> {
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

/// Has worker 1 request `v` from worker 0, and waits for the comm thread to
/// answer.
[[noreturn]] void RequestFromWorkerZero(VertexId v) {
  CommHub hub(3);
  auto worker = StartWorkerZero<NoTaskComper>(&hub);
  MessageBatch mb;
  mb.src_worker = 1;
  mb.dst_worker = 0;
  mb.type = MsgType::kVertexRequest;
  mb.payload = EncodeVertexRequest({v});
  hub.Send(std::move(mb));
  while (true) std::this_thread::sleep_for(std::chrono::seconds(1));
}

/// Sends worker 0 Γ(1) `times` times, as worker 1 answering a pull would,
/// and waits for the comm thread to install it. With `await_request`, the
/// first response goes out only once worker 0's pull of vertex 1 arrived.
template <typename ComperT>
[[noreturn]] void RespondToWorkerZero(int times, bool await_request) {
  CommHub hub(3);
  auto worker = StartWorkerZero<ComperT>(&hub);
  MessageBatch request;  // endpoint 1 receives only worker 0's pulls
  if (await_request) {
    GT_CHECK(hub.Receive(1, 10'000'000, &request)) << "no pull of vertex 1";
  }
  typename ComperT::VertexT one;
  one.id = 1;
  for (int i = 0; i < times; ++i) {
    MessageBatch mb;
    mb.src_worker = 1;
    mb.dst_worker = 0;
    mb.type = MsgType::kVertexResponse;
    mb.payload = EncodeVertexResponse<typename ComperT::VertexT>({&one});
    hub.Send(std::move(mb));
  }
  while (true) std::this_thread::sleep_for(std::chrono::seconds(1));
}

// A pull request is the one place an ID from another worker becomes a slot
// index: one naming a vertex this worker does not own, by residue or past
// its slot table, must fail naming the sender.
TEST(WorkerBehaviorDeathTest, PullRequestForUnownedVertexDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(RequestFromWorkerZero(3),
               "worker 1 requested vertex 3, which it does not own");
  EXPECT_DEATH(RequestFromWorkerZero(10),
               "worker 1 requested vertex 10, which it does not own");
}

// A response's waiter handles are parked-task addresses, so a response must
// only ever meet an R-table entry this worker's compers opened: one for a
// vertex never requested, or a second one after the first was installed,
// must fail before any handle is read.
TEST(WorkerBehaviorDeathTest, ResponseWithoutAnOpenRequestDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(RespondToWorkerZero<NoTaskComper>(1, false),
               "response for never-requested vertex 1");
  EXPECT_DEATH(RespondToWorkerZero<PullVertexOneComper>(2, true),
               "response for never-requested vertex 1");
}

}  // namespace
}  // namespace gthinker
