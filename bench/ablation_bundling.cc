// Ablation: task bundling (the paper's §VI future-work item, ref [38]).
// Tasks spawned from low-degree vertices "do not generate large enough
// subgraphs to hide IO cost in the computation". TriangleComper bundles
// roots in the engine: each spawn batch of C = task_batch_size roots runs as
// one task, so C = 1 is one root per task. Run TC on the low-degree btc-like
// graph over a simulated GigE wire, sweeping C. Exits non-zero if any C
// counts differently from the serial kernel.

#include <cstdio>

#include "bench_util.h"

using namespace gthinker;
using namespace gthinker::bench;

int main() {
  constexpr double kBudgetS = 120.0;
  Dataset d = MakeDataset("btc", 0.5);
  const uint64_t truth = CountTrianglesSerial(d.graph);
  std::printf("=== Ablation: task bundling (TC on btc-like, GigE wire) "
              "===\n");
  std::printf("%-10s %-24s %10s %12s %14s\n", "C", "time / mem", "tasks",
              "batches", "triangles");

  int mismatches = 0;
  for (int c : {1, 4, 16, 64, 150}) {
    JobConfig config = DefaultConfig();
    config.time_budget_s = kBudgetS;
    config.task_batch_size = c;
    config.comm.net.latency_us = 100;
    config.comm.net.bandwidth_mbps = 1000.0;
    const RunOutcome o = RunGthinkerTc(d.graph, config);
    const bool match = !o.timed_out && o.value == truth;
    if (!match) ++mismatches;
    std::printf("%-10d %-24s %10lld %12lld %14llu%s\n", c,
                FormatCell(o, kBudgetS).c_str(),
                static_cast<long long>(o.stats.tasks_finished),
                static_cast<long long>(o.stats.batches_sent),
                static_cast<unsigned long long>(o.value),
                match ? "" : "  !! MISMATCH");
  }
  std::printf("\nserial kernel: %llu triangles\n",
              static_cast<unsigned long long>(truth));
  std::printf("expected: identical counts with far fewer tasks; on "
              "low-degree graphs bundling amortizes the per-task pull round "
              "and scheduling overhead (the paper's hypothesis for the weak "
              "8->16 VM scaling).\n");
  return mismatches == 0 ? 0 : 1;
}
