// Ablation: refill priority. The paper's rule — refill Q_task from spilled
// task files BEFORE spawning new tasks — keeps the number of disk-resident
// tasks minimal. Inverting it (spawn-first) lets spilled partially-computed
// tasks pile up on disk, G-Miner style.
//
// Exits 1 if the two policies disagree on the clique size or if either row
// did not spill (the comparison would then say nothing about §V-B).

#include <algorithm>
#include <cstdio>

#include "bench_util.h"

using namespace gthinker;
using namespace gthinker::bench;

namespace {

/// L_file pops over every worker: served from memory (the batch's write
/// was cancelled) and read back from disk.
struct SpillPops {
  int64_t mem_hits = 0;
  int64_t disk_reads = 0;
};

SpillPops CountSpillPops(const JobStats& stats) {
  SpillPops pops;
  for (const obs::MetricsSnapshot& snap : stats.metrics) {
    pops.mem_hits += std::max<int64_t>(0, snap.CounterValue("spill.mem_hits"));
    if (const auto* reads = snap.FindHistogram("spill.read_us")) {
      pops.disk_reads += reads->count;
    }
  }
  return pops;
}

}  // namespace

int main() {
  constexpr double kBudgetS = 120.0;
  Dataset d = MakeDataset("orkut", 0.35);
  std::printf("=== Ablation: Q_task refill priority (MCF on orkut-like) "
              "===\n");
  std::printf("tiny C, Q_task and D so spilling actually happens\n");
  std::printf("%-22s %9s %10s %16s %9s %10s %10s %8s\n", "policy", "time",
              "mem", "spilled batches", "mem hits", "disk reads", "tasks",
              "clique");

  bool ok = true;
  uint64_t clique[2] = {0, 0};
  for (bool spawn_first : {false, true}) {
    JobConfig config = DefaultConfig();
    // Q_task holds 2 batches of 4 tasks and at most 8 tasks are in flight,
    // so a comper whose tasks add children overflows Q_task and spills.
    config.task_batch_size = 4;
    config.task_queue_capacity_batches = 2;
    config.inflight_task_cap = 8;
    config.refill_spawn_first = spawn_first;
    config.time_budget_s = kBudgetS;
    RunOutcome gt = RunGthinkerMcf(d.graph, config, /*tau=*/20);
    clique[spawn_first] = gt.value;
    const SpillPops pops = CountSpillPops(gt.stats);
    std::printf("%-22s %7.3f s %10s %16lld %9lld %10lld %10lld %8llu\n",
                spawn_first ? "spawn-first" : "spilled-first (paper)",
                gt.elapsed_s, FormatBytes(gt.peak_mem_bytes).c_str(),
                static_cast<long long>(gt.stats.spilled_batches),
                static_cast<long long>(pops.mem_hits),
                static_cast<long long>(pops.disk_reads),
                static_cast<long long>(gt.stats.tasks_finished),
                static_cast<unsigned long long>(gt.value));
    if (gt.stats.spilled_batches == 0 || gt.timed_out) ok = false;
  }
  if (clique[0] != clique[1]) ok = false;
  std::printf("\nexpected: spawn-first spills more batches (partially "
              "computed tasks sit on disk while new ones keep arriving), "
              "reproducing why the paper prioritizes spilled files.\n");
  if (!ok) {
    std::fprintf(stderr, "ablation_refill: a row did not spill, timed out, "
                         "or the clique sizes differ\n");
    return 1;
  }
  return 0;
}
