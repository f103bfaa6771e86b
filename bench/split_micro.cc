// Straggler microbenchmark for big-task decomposition: KCliqueComper with a
// compute budget adds its range children with AddTask.
//
// Hub-skewed workload: a handful of hub vertices at the lowest IDs are each
// adjacent to the whole of a shared dense pool, so under the Γ_> orientation
// every hub roots one giant k-clique-counting task (hundreds of candidates,
// heavy per-candidate work) while the pool and background vertices root
// thousands of sub-millisecond tasks — the classic straggler profile the
// paper's decomposition argument targets. The hubs sit at low IDs on
// purpose: the trimmed orientation assigns each clique to its minimum
// member, so that is where the skew lands.
//
// Rows compare the same job, in ID order (layout.reorder off), with
// splitting off (budget 0, the default) vs armed (a per-Compute budget of
// 5 ms passed to KCliqueComper's constructor). The headline metric
// is the p99 of per-iteration compute latency (comper.compute_iter_us
// merged across all workers/compers): the budget slices each straggler into
// ~budget-sized range children, so the p99 collapses from "whole straggler"
// to "one slice" while the total clique count stays bit-identical.
//
// Usage: split_micro [--json PATH]   (writes BENCH_split.json rows)

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "apps/kclique_app.h"
#include "apps/triangle_app.h"
#include "bench_util.h"
#include "util/random.h"

namespace gthinker::bench {
namespace {

constexpr int kHubs = 8;          // straggler roots, IDs [0, kHubs)
constexpr int kPool = 200;        // dense shared pool, IDs [kHubs, kHubs+kPool)
constexpr int kBackground = 100;  // sparse filler vertices
constexpr double kPoolEdgeProb = 0.5;
constexpr int kCliqueK = 5;

Graph MakeHubSkewGraph(uint64_t seed) {
  const VertexId n = kHubs + kPool + kBackground;
  Random rng(seed);
  Graph g(n);
  // Every hub sees the whole pool: kPool top-level candidates per hub task.
  for (VertexId h = 0; h < kHubs; ++h) {
    for (VertexId p = 0; p < kPool; ++p) g.AddEdge(h, kHubs + p);
  }
  // Dense pool: the per-candidate triangle/k-clique work inside a hub task.
  for (VertexId i = 0; i < kPool; ++i) {
    for (VertexId j = i + 1; j < kPool; ++j) {
      if (rng.NextDouble() < kPoolEdgeProb) g.AddEdge(kHubs + i, kHubs + j);
    }
  }
  // Sparse background noise: the sub-millisecond task mass.
  for (VertexId b = 0; b < kBackground; ++b) {
    for (int e = 0; e < 4; ++e) {
      const VertexId v = static_cast<VertexId>(rng.Uniform(n));
      const VertexId u = kHubs + kPool + b;
      if (v != u) g.AddEdge(u, v);
    }
  }
  g.Finalize();
  return g;
}

/// Sums every comper.compute_iter_us histogram (all workers, all compers)
/// into one distribution; power-of-2 buckets merge by elementwise addition.
obs::HistogramSnapshot MergedComputeHist(const JobStats& stats) {
  obs::HistogramSnapshot merged;
  merged.name = "comper.compute_iter_us";
  for (const auto& snap : stats.metrics) {
    for (const auto& h : snap.histograms) {
      if (h.name != merged.name) continue;
      if (merged.buckets.size() < h.buckets.size()) {
        merged.buckets.resize(h.buckets.size(), 0);
      }
      for (size_t i = 0; i < h.buckets.size(); ++i) {
        merged.buckets[i] += h.buckets[i];
      }
      merged.count += h.count;
      merged.sum += h.sum;
      merged.max = std::max(merged.max, h.max);
    }
  }
  return merged;
}

RunOutcome RunKClique(const Graph& graph, const JobConfig& config,
                      int64_t budget_us) {
  Job<KCliqueComper> job;
  job.config = config;
  job.graph = &graph;
  job.comper_factory = [budget_us] {
    return std::make_unique<KCliqueComper>(kCliqueK, budget_us);
  };
  job.trimmer = TrimToGreater;
  auto result = Cluster<KCliqueComper>::Run(job);
  RunOutcome out;
  out.elapsed_s = result.stats.elapsed_s;
  out.peak_mem_bytes = result.stats.max_peak_mem_bytes;
  out.timed_out = result.stats.timed_out;
  out.value = result.result;
  out.stats = result.stats;
  return out;
}

}  // namespace

int Main(int argc, char** argv) {
  const Graph graph = MakeHubSkewGraph(/*seed=*/20260807);

  // Both rows run the default config in the paper's ID order: the hub-last
  // layout would renumber the hubs to the highest IDs and dissolve the
  // stragglers this bench is about.
  JobConfig config = DefaultConfig();
  config.layout.reorder = false;

  BenchJson doc;
  doc.bench = "split_micro";
  doc.EchoConfig(config);

  struct Variant {
    const char* label;
    int64_t budget_us;
  };
  // split-on caps any one Compute call at ~5 ms.
  const Variant variants[] = {{"split-off", 0}, {"split-on", 5000}};

  std::printf("split_micro: hub-skew straggler decomposition (%d-clique)\n",
              kCliqueK);
  std::printf("%-10s %10s %12s %12s %12s %8s %12s\n", "config", "elapsed",
              "p50(us)", "p99(us)", "max(us)", "tasks", "cliques");

  double p99[2] = {0, 0};
  uint64_t values[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    const RunOutcome o = RunKClique(graph, config, variants[i].budget_us);
    const obs::HistogramSnapshot hist = MergedComputeHist(o.stats);
    p99[i] = hist.Percentile(0.99);
    values[i] = o.value;

    BenchJson::Row* row = doc.AddRow(variants[i].label);
    FillRow(row, o);
    row->numbers["compute_p50_us"] = hist.Percentile(0.50);
    row->numbers["compute_p99_us"] = p99[i];
    row->numbers["compute_max_us"] = static_cast<double>(hist.max);
    row->numbers["tasks_spawned"] =
        static_cast<double>(o.stats.ledger.spawned);
    row->numbers["tasks_finished"] =
        static_cast<double>(o.stats.ledger.finished);

    std::printf("%-10s %9.2fs %12.1f %12.1f %12lld %8lld %12llu\n",
                variants[i].label, o.elapsed_s, hist.Percentile(0.50), p99[i],
                static_cast<long long>(hist.max),
                static_cast<long long>(o.stats.ledger.spawned),
                static_cast<unsigned long long>(o.value));
  }

  BenchJson::Row* summary = doc.AddRow("summary");
  summary->numbers["p99_speedup"] = p99[1] > 0 ? p99[0] / p99[1] : 0.0;
  summary->numbers["results_match"] = values[0] == values[1] ? 1.0 : 0.0;
  std::printf("p99 per-iteration compute: %.1fx lower with splitting "
              "(results %s)\n",
              p99[1] > 0 ? p99[0] / p99[1] : 0.0,
              values[0] == values[1] ? "identical" : "MISMATCH");

  const Status st = doc.WriteTo(JsonPathArg(argc, argv));
  if (!st.ok()) {
    std::fprintf(stderr, "json write failed: %s\n", st.message().c_str());
    return 1;
  }
  return values[0] == values[1] ? 0 : 2;
}

}  // namespace gthinker::bench

int main(int argc, char** argv) { return gthinker::bench::Main(argc, argv); }
