// Ablation: task bundling (the paper's §VI future-work item, ref [38]).
// Tasks spawned from low-degree vertices "do not generate large enough
// subgraphs to hide IO cost in the computation". TriangleComper, and
// MatchComper on a depth-1 query, bundle roots in the engine: each spawn
// batch of C = task_batch_size roots runs as one task, so C = 1 is one root
// per task. Run TC and GM (the labeled triangle query) on the low-degree
// btc-like graph over a simulated GigE wire, sweeping C. Exits non-zero if
// any C counts differently from the serial kernel.

#include <cstdio>
#include <functional>
#include <string>

#include "bench_util.h"

using namespace gthinker;
using namespace gthinker::bench;

namespace {

constexpr double kBudgetS = 120.0;

/// Runs `run` at each C and prints a row per C; returns the mismatches.
int SweepC(const std::string& app, uint64_t truth,
           const std::function<RunOutcome(const JobConfig&)>& run) {
  int mismatches = 0;
  for (int c : {1, 4, 16, 64, 150}) {
    JobConfig config = DefaultConfig();
    config.time_budget_s = kBudgetS;
    config.task_batch_size = c;
    config.comm.net.latency_us = 100;
    config.comm.net.bandwidth_mbps = 1000.0;
    const RunOutcome o = run(config);
    const bool match = !o.timed_out && o.value == truth;
    if (!match) ++mismatches;
    std::printf("%-5s %-6d %-24s %10lld %12lld %14llu%s\n", app.c_str(), c,
                FormatCell(o, kBudgetS).c_str(),
                static_cast<long long>(o.stats.tasks_finished),
                static_cast<long long>(o.stats.batches_sent),
                static_cast<unsigned long long>(o.value),
                match ? "" : "  !! MISMATCH");
  }
  std::printf("%-5s serial kernel: %llu\n", app.c_str(),
              static_cast<unsigned long long>(truth));
  return mismatches;
}

}  // namespace

int main() {
  Dataset d = MakeDataset("btc", 0.5);
  const auto labels = Generator::RandomLabels(d.graph.NumVertices(), 4,
                                              /*seed=*/d.graph.NumVertices());
  const QueryGraph query = QueryGraph::Triangle(0, 1, 2);
  std::printf("=== Ablation: task bundling (TC and GM on btc-like, GigE "
              "wire) ===\n");
  std::printf("%-5s %-6s %-24s %10s %12s %14s\n", "app", "C", "time / mem",
              "tasks", "batches", "count");

  int mismatches = SweepC("tc", CountTrianglesSerial(d.graph),
                          [&d](const JobConfig& config) {
                            return RunGthinkerTc(d.graph, config);
                          });
  mismatches += SweepC("gm", CountMatchesSerial(d.graph, labels, query),
                       [&](const JobConfig& config) {
                         return RunGthinkerGm(d.graph, labels, query, config);
                       });
  std::printf("\nexpected: identical counts with far fewer tasks; on "
              "low-degree graphs bundling amortizes the per-task pull round "
              "and scheduling overhead (the paper's hypothesis for the weak "
              "8->16 VM scaling).\n");
  return mismatches == 0 ? 0 : 1;
}
