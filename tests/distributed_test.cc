// Distributed differentials: Cluster::RunDistributed over loopback TCP —
// rank 0 in the test process, every other rank in a forked child — must
// return the answer in-process Cluster::Run returns for the aggregator-pruned
// maximum clique, labeled triangle and diamond matching (LabeledAdj values
// on the wire), and a 3-rank triangle count batched small enough to spill
// and steal across processes, and a budgeted maximal-clique count whose
// tasks split into range children on both ranks. Every rank must come back
// with its own phase profile. Rank 0's live endpoints and time-series must
// cover every rank, from the progress reports. A rank killed mid-job must make
// every surviving rank fail loudly, naming it, instead of hanging; a stopped
// rank, whose sockets stay open, must trip the master's silence bound. Forks
// happen between jobs, when no job threads are live, so the suite is safe
// under TSan as well.

#include <gtest/gtest.h>

#if defined(__linux__)

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/kernels.h"
#include "apps/match_app.h"
#include "apps/maxclique_app.h"
#include "apps/maximalclique_app.h"
#include "apps/triangle_app.h"
#include "core/cluster.h"
#include "free_ports.h"
#include "graph/generator.h"
#include "http_get.h"
#include "obs/json.h"

namespace gthinker {
namespace {

/// `base` reshaped into a `procs`-rank loopback TCP cluster.
JobConfig TcpConfig(JobConfig base, int procs) {
  base.num_workers = procs;
  base.comm.transport = CommConfig::Transport::kTcp;
  for (int port : PickFreePorts(procs)) {
    base.comm.hosts.push_back("127.0.0.1:" + std::to_string(port));
  }
  base.time_budget_s = 120.0;  // a hung rank must not hang the suite
  return base;
}

/// Runs alongside rank 0 on its own thread, started after the forks;
/// `done` turns true once rank 0 has returned.
using Rank0Probe = std::function<void(const std::atomic<bool>& done)>;

/// Runs `job` on its TCP cluster: ranks 1.. in forked children, rank 0
/// here. A child exits 0 only if its rank returned a non-empty phase
/// profile and no time-series (only the master samples). Returns rank 0's
/// result.
template <typename ComperT>
RunResult<ComperT> RunTcpCluster(const Job<ComperT>& job,
                                 const Rank0Probe& probe = nullptr) {
  std::vector<pid_t> pids;
  for (int r = 1; r < job.config.num_workers; ++r) {
    const pid_t pid = ::fork();
    GT_CHECK_GE(pid, 0);
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the test binary
      const RunResult<ComperT> rank = Cluster<ComperT>::RunDistributed(job, r);
      const bool ok =
          !rank.stats.phases.empty() && rank.stats.timeseries.empty();
      ::_exit(ok ? 0 : 3);
    }
    pids.push_back(pid);
  }
  std::atomic<bool> done{false};
  std::thread prober;
  if (probe) prober = std::thread([&] { probe(done); });
  RunResult<ComperT> rank0 = Cluster<ComperT>::RunDistributed(job, 0);
  done.store(true, std::memory_order_release);
  if (prober.joinable()) prober.join();
  for (size_t i = 0; i < pids.size(); ++i) {
    int status = 0;
    EXPECT_EQ(::waitpid(pids[i], &status, 0), pids[i]);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "rank " << i + 1 << " wait status " << status;
  }
  EXPECT_FALSE(rank0.stats.phases.empty());
  EXPECT_FALSE(rank0.stats.timed_out);
  EXPECT_EQ(rank0.stats.tasks_lost, 0);
  // Rank 0 tracks every worker's peak, from the final reports.
  EXPECT_EQ(rank0.stats.peak_mem_bytes.size(),
            static_cast<size_t>(job.config.num_workers));
  for (int64_t peak : rank0.stats.peak_mem_bytes) EXPECT_GT(peak, 0);
  return rank0;
}

TEST(DistributedDifferential, MaxCliqueMatchesInProcess) {
  Graph g = Generator::ErdosRenyi(300, 6000, 71);
  Job<MaxCliqueComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 2;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<MaxCliqueComper>(30); };
  job.trimmer = TrimToGreater;
  const size_t expected = Cluster<MaxCliqueComper>::Run(job).result.size();
  EXPECT_EQ(expected, MaxCliqueSerial(g).size());

  job.config = TcpConfig(job.config, 2);
  EXPECT_EQ(RunTcpCluster(job).result.size(), expected);
}

TEST(DistributedDifferential, LabeledMatchMatchesInProcess) {
  Graph g = Generator::PowerLaw(400, 10.0, 2.3, 72);
  const std::vector<Label> labels =
      Generator::RandomLabels(g.NumVertices(), 3, 73);
  // A triangle, and a diamond (two triangles sharing edge 1-2): its
  // vertices 2 and 3 each have two backward neighbors, and vertex 3 sits
  // two hops from the root.
  QueryGraph diamond;
  diamond.labels = {0, 1, 2, 0};
  diamond.adj = {{1, 2}, {0, 2, 3}, {0, 1, 3}, {1, 2}};
  for (const QueryGraph& query : {QueryGraph::Triangle(0, 1, 2), diamond}) {
    Job<MatchComper> job;
    job.config.num_workers = 2;
    job.config.compers_per_worker = 2;
    job.graph = &g;
    job.labels = &labels;
    job.comper_factory = [query] {
      return std::make_unique<MatchComper>(query);
    };
    job.trimmer = [query](Vertex<LabeledAdj>& v) {
      MatchComper::TrimByQuery(query, v);
    };
    const uint64_t expected = Cluster<MatchComper>::Run(job).result;
    EXPECT_EQ(expected, CountMatchesSerial(g, labels, query));
    ASSERT_GT(expected, 0u);

    job.config = TcpConfig(job.config, 2);
    EXPECT_EQ(RunTcpCluster(job).result, expected);
  }
}

TEST(DistributedDifferential, ThreeRankTriangleSpillsAndStealsAcrossProcesses) {
  // Every edge joins multiples of 3, so worker 0 owns all the work and
  // ranks 1 and 2 starve until the master has rank 0 donate to them.
  const Graph base = Generator::ErdosRenyi(3000, 300000, 74);
  Graph g(3 * base.NumVertices());
  for (VertexId u = 0; u < base.NumVertices(); ++u) {
    for (VertexId v : base.GreaterNeighbors(u)) g.AddEdge(3 * u, 3 * v);
  }
  g.Finalize();
  Job<TriangleComper> job;
  job.config.num_workers = 3;
  job.config.compers_per_worker = 1;
  job.config.task_batch_size = 4;
  job.config.task_queue_capacity_batches = 2;
  job.config.inflight_task_cap = 8;
  job.config.progress_interval_us = 500;  // plan steals early and often
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
  job.trimmer = TrimToGreater;
  const uint64_t expected = Cluster<TriangleComper>::Run(job).result;
  EXPECT_EQ(expected, CountTrianglesSerial(g));

  job.config = TcpConfig(job.config, 3);
  const RunResult<TriangleComper> got = RunTcpCluster(job);
  EXPECT_EQ(got.result, expected);
  // The master's roll-up spans all three processes.
  EXPECT_GT(got.stats.spilled_batches, 0);
  EXPECT_GT(got.stats.steal_orders, 0);
  EXPECT_GT(got.stats.stolen_batches, 0);
}

TEST(DistributedDifferential, SplittingMaximalCliqueMatchesInProcess) {
  Graph g = Generator::PowerLaw(300, 10.0, 2.3, 931);
  Job<MaximalCliqueComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 2;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<MaximalCliqueComper>(); };
  const RunResult<MaximalCliqueComper> unbudgeted =
      Cluster<MaximalCliqueComper>::Run(job);

  // A 1 us compute budget splits every maximal-clique task that has more
  // than one candidate left after its first.
  job.comper_factory = [] {
    return std::make_unique<MaximalCliqueComper>(/*budget_us=*/1);
  };
  const uint64_t expected = Cluster<MaximalCliqueComper>::Run(job).result;
  EXPECT_EQ(expected, unbudgeted.result);

  job.config = TcpConfig(job.config, 2);
  const RunResult<MaximalCliqueComper> got = RunTcpCluster(job);
  EXPECT_EQ(got.result, expected);
  // The cluster-wide ledger counts the range children of both ranks.
  EXPECT_GT(got.stats.tasks_spawned, unbudgeted.stats.tasks_spawned);
}

// Over TCP the release is event-driven too: the master sends it on the
// report that proves the wire empty, and a quiesced worker reports as soon
// as a drain term moves. At a 1 s progress interval a release that waited
// for the cadence would stretch worker 0's quiesced -> released gap
// (kDrain phase 1 -> 2) to the whole interval.
TEST(DistributedTermination, WokenDrainEndsWellInsideTheProgressInterval) {
  Graph g = Generator::PowerLaw(2000, 10.0, 2.4, 53);
  Job<TriangleComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 2;
  job.config.progress_interval_us = 1'000'000;
  job.config.enable_span_tracing = true;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
  job.trimmer = TrimToGreater;
  job.config = TcpConfig(job.config, 2);
  const RunResult<TriangleComper> rank0 = RunTcpCluster(job);
  EXPECT_EQ(rank0.result, CountTrianglesSerial(g));
  int64_t quiesced_us = -1;
  int64_t released_us = -1;
  for (const obs::SpanEvent& e : rank0.stats.spans) {
    if (e.worker != 0 || e.kind != obs::EventKind::kDrain) continue;
    if (e.a == 1) quiesced_us = e.t_us;
    if (e.a == 2) released_us = e.t_us;
  }
  ASSERT_GE(quiesced_us, 0);
  ASSERT_GE(released_us, quiesced_us);
  EXPECT_LT(released_us - quiesced_us, 250'000);
}

TEST(DistributedObservability, RankZeroLiveSurfacesCoverEveryRank) {
  static Graph g = Generator::PowerLaw(700, 12.0, 2.3, 4203);
  Job<MaxCliqueComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 2;
  job.config.status_port = -1;  // ephemeral; discovered via Current()
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<MaxCliqueComper>(400); };
  job.trimmer = TrimToGreater;
  job.config = TcpConfig(job.config, 2);

  // Scrape rank 0 until the job ends, keeping the last complete pair.
  std::string metrics_body;
  std::string status_body;
  int scrapes = 0;
  const RunResult<MaxCliqueComper> got = RunTcpCluster(
      job, [&](const std::atomic<bool>& done) {
        while (!done.load(std::memory_order_acquire)) {
          const obs::StatusServer* server = obs::StatusServer::Current();
          if (server == nullptr) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            continue;
          }
          const HttpReply metrics = HttpGet(server->port(), "/metrics");
          const HttpReply status = HttpGet(server->port(), "/status.json");
          if (metrics.status == 200 && status.status == 200) {
            metrics_body = metrics.body;
            status_body = status.body;
            ++scrapes;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
  ASSERT_FALSE(got.result.empty());
  ASSERT_GT(scrapes, 0) << "job finished before any scrape landed";

  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonParse(status_body, &root).ok()) << status_body;
  EXPECT_EQ(root.Find("num_workers")->number, 2.0);
  EXPECT_EQ(root.Find("transport")->string, "tcp");
  ASSERT_TRUE(root.Find("workers")->IsArray());
  EXPECT_EQ(root.Find("workers")->array.size(), 2u);
  EXPECT_NE(
      metrics_body.find("gthinker_tasks_live{scope=\"job\",worker=\"1\"}"),
      std::string::npos)
      << metrics_body;

  // One series per gauge per worker, each with points: rank 1's gauges
  // reached rank 0 on its reports.
  ASSERT_EQ(got.stats.timeseries.size(), 2 * obs::kNumWorkerSampledGauges);
  for (const obs::TimeSeries& ts : got.stats.timeseries) {
    EXPECT_FALSE(ts.points.empty()) << ts.name << " worker " << ts.worker;
  }
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(std::count_if(got.stats.timeseries.begin(),
                            got.stats.timeseries.end(),
                            [w](const obs::TimeSeries& ts) {
                              return ts.worker == w;
                            }),
              static_cast<std::ptrdiff_t>(obs::kNumWorkerSampledGauges));
  }
}

/// Triangle comper that kills its own process from its first Compute(): the
/// mesh is up and the job is running by then.
class KillSelfComper : public TriangleComper {
 public:
  bool Compute(TaskT*, const Frontier&) override {
    // Give every rank time to finish its side of the handshake, so it is the
    // running job — not Start() — that observes the death.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ::raise(SIGKILL);
    return false;
  }
};

/// Triangle comper that stops its own process from its first Compute(): a
/// wedged rank whose sockets stay open.
class StopSelfComper : public TriangleComper {
 public:
  bool Compute(TaskT*, const Frontier&) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ::raise(SIGSTOP);
    return false;
  }
};

/// How one surviving rank of a failure run ended.
struct SurvivorExit {
  bool exited = false;  // reaped before the hang deadline
  int status = 0;
  double exit_s = -1.0;          // reap time since the ranks were forked
  double after_victim_s = -1.0;  // exit time minus the victim's death time
  std::string log;               // its stderr
};

/// Forks a `config.num_workers`-rank triangle job, every rank a child, in
/// which rank `victim` runs `VictimComper`. Each survivor's stderr goes to
/// `dir`. Waits up to 60 s for every survivor to exit (ample for sanitizer
/// builds, but a hang is a failure), then SIGKILLs whatever is left.
template <typename VictimComper>
std::vector<SurvivorExit> RunFailureCluster(const JobConfig& config,
                                            int victim,
                                            const std::string& dir) {
  static Graph g = Generator::ErdosRenyi(300, 3000, 75);
  const int procs = config.num_workers;
  std::vector<pid_t> pids;
  for (int r = 0; r < procs; ++r) {
    const pid_t pid = ::fork();
    GT_CHECK_GE(pid, 0);
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (r != victim) {
        const std::string log = dir + "/rank" + std::to_string(r) + ".stderr";
        if (std::freopen(log.c_str(), "w", stderr) == nullptr) ::_exit(4);
      }
      Job<TriangleComper> job;
      job.config = config;
      job.graph = &g;
      job.comper_factory = [r, victim]() -> std::unique_ptr<TriangleComper> {
        if (r == victim) return std::make_unique<VictimComper>();
        return std::make_unique<TriangleComper>();
      };
      job.trimmer = TrimToGreater;
      Cluster<TriangleComper>::RunDistributed(job, r);
      ::_exit(0);  // a survivor must never get here
    }
    pids.push_back(pid);
  }

  const auto start = std::chrono::steady_clock::now();
  auto seconds = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  std::vector<SurvivorExit> exits(procs);
  int survivors_left = procs - 1;
  while (survivors_left > 0 && seconds() < 60.0) {
    const double now_s = seconds();  // one stamp per polling round
    for (int r = 0; r < procs; ++r) {
      if (exits[r].exited) continue;
      int status = 0;
      if (::waitpid(pids[r], &status, WNOHANG) != pids[r]) continue;
      exits[r].exit_s = now_s;
      exits[r].exited = true;
      exits[r].status = status;
      if (r != victim) --survivors_left;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (int r = 0; r < procs; ++r) {
    if (exits[r].exited) continue;
    ::kill(pids[r], SIGKILL);
    ::waitpid(pids[r], nullptr, 0);
  }
  for (int r = 0; r < procs; ++r) {
    if (r == victim) continue;
    if (exits[r].exited && exits[victim].exited) {
      exits[r].after_victim_s = exits[r].exit_s - exits[victim].exit_s;
    }
    std::ifstream in(dir + "/rank" + std::to_string(r) + ".stderr");
    std::stringstream log;
    log << in.rdbuf();
    exits[r].log = log.str();
  }
  return exits;
}

/// True if `log` has a crash-dump line whose reason contains `reason`.
bool DumpedFor(const std::string& log, const std::string& reason) {
  std::istringstream lines(log);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("wrote crash dump") != std::string::npos &&
        line.find(reason) != std::string::npos) {
      return true;
    }
  }
  return false;
}

/// A lost link is fatal on every survivor: it exits nonzero, names the dead
/// rank, and dumps the flight recorder, within `bound_s` of the death.
void ExpectFailedNaming(const SurvivorExit& e, int rank, int dead,
                        double bound_s) {
  const std::string lost = "link to rank " + std::to_string(dead) + " lost";
  ASSERT_TRUE(e.exited) << "rank " << rank << " hung after rank " << dead
                        << " died\n"
                        << e.log;
  EXPECT_FALSE(WIFEXITED(e.status) && WEXITSTATUS(e.status) == 0)
      << "rank " << rank << " returned an answer without rank " << dead;
  EXPECT_GE(e.after_victim_s, 0.0);
  EXPECT_LT(e.after_victim_s, bound_s) << "rank " << rank;
  EXPECT_NE(e.log.find(lost), std::string::npos) << e.log;
  EXPECT_TRUE(DumpedFor(e.log, lost)) << e.log;
}

TEST(DistributedFailure, KilledRankFailsRankZeroWithinBound) {
  JobConfig config;
  config.compers_per_worker = 1;
  config = TcpConfig(config, 2);
  config.time_budget_s = 1.0;
  config.drain_timeout_us = 500'000;
  const std::string dir = MakeTempDir("killed_rank");
  config.flight_dump_dir = dir;
  const std::vector<SurvivorExit> exits =
      RunFailureCluster<KillSelfComper>(config, /*victim=*/1, dir);
  // Rank 0 dies on the lost link, well inside the master's silence bound
  // (3 x drain_timeout_us) that used to be the first to notice.
  ExpectFailedNaming(exits[0], 0, 1, 3 * 0.5);
  EXPECT_EQ(exits[0].log.find("drain stalled"), std::string::npos)
      << exits[0].log;
  RemoveTree(dir);
}

TEST(DistributedFailure, KilledRankFailsEverySurvivor) {
  JobConfig config;
  config.compers_per_worker = 1;
  config = TcpConfig(config, 3);
  config.time_budget_s = 0.0;  // only the lost links can end this job
  const std::string dir = MakeTempDir("killed_rank3");
  config.flight_dump_dir = dir;
  const std::vector<SurvivorExit> exits =
      RunFailureCluster<KillSelfComper>(config, /*victim=*/2, dir);
  for (int r = 0; r < 2; ++r) ExpectFailedNaming(exits[r], r, 2, 10.0);
  RemoveTree(dir);
}

/// A stopped rank keeps its sockets open, so no link is lost: the master's
/// silence bound is what must notice it. Rank 0 fails, names the silent
/// worker and dumps the flight recorder, whether or not kTerminate went out.
void ExpectSilenceFailure(const SurvivorExit& rank0) {
  ASSERT_TRUE(rank0.exited) << "rank 0 hung on a stopped rank 1\n"
                            << rank0.log;
  EXPECT_FALSE(WIFEXITED(rank0.status) && WEXITSTATUS(rank0.status) == 0)
      << "rank 0 returned an answer without rank 1";
  const std::string diagnosis = "master: worker 1 silent for 500000 us";
  EXPECT_NE(rank0.log.find(diagnosis), std::string::npos) << rank0.log;
  EXPECT_TRUE(DumpedFor(rank0.log, diagnosis)) << rank0.log;
}

TEST(DistributedFailure, StoppedRankTripsDrainSilenceBound) {
  JobConfig config;
  config.compers_per_worker = 1;
  config = TcpConfig(config, 2);
  config.time_budget_s = 1.0;
  config.drain_timeout_us = 500'000;
  const std::string dir = MakeTempDir("stopped_rank");
  config.flight_dump_dir = dir;
  const std::vector<SurvivorExit> exits =
      RunFailureCluster<StopSelfComper>(config, /*victim=*/1, dir);
  ExpectSilenceFailure(exits[0]);
  RemoveTree(dir);
}

TEST(DistributedFailure, StoppedRankFailsRankZeroWithoutBudget) {
  JobConfig config;
  config.compers_per_worker = 1;
  config = TcpConfig(config, 2);
  config.time_budget_s = 0.0;  // only the silence bound can end this job
  config.drain_timeout_us = 500'000;
  const std::string dir = MakeTempDir("stopped_rank_no_budget");
  config.flight_dump_dir = dir;
  const std::vector<SurvivorExit> exits =
      RunFailureCluster<StopSelfComper>(config, /*victim=*/1, dir);
  ExpectSilenceFailure(exits[0]);
  // Rank 1 stops ~0.2 s into its first Compute(); 0.5 s of silence later
  // rank 0 must be gone, before any kTerminate.
  EXPECT_LT(exits[0].exit_s, 3.0);
  EXPECT_NE(exits[0].log.find("before kTerminate"), std::string::npos)
      << exits[0].log;
  RemoveTree(dir);
}

}  // namespace
}  // namespace gthinker

#endif  // __linux__
