// gthinker_cli: run any shipped mining application on any dataset stand-in
// (or a graph file) from the command line.
//
//   gthinker_cli --app=tc|mcf|maxcliques|kclique|gm|qc
//                [--dataset=youtube|skitter|orkut|btc|friendster]
//                [--graph=/path/to/graph.adj] [--scale=0.35]
//                [--workers=4] [--compers=2] [--tau=400]
//                [--gamma=0.6] [--min-size=4] [--labels=4] [--seed=7]
//                [--latency-us=0] [--bandwidth-mbps=0] [--verify]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "apps/kclique_app.h"
#include "apps/kernels.h"
#include "apps/match_app.h"
#include "apps/maxclique_app.h"
#include "apps/maximalclique_app.h"
#include "apps/quasiclique_app.h"
#include "apps/triangle_app.h"
#include "core/cluster.h"
#include "graph/generator.h"
#include "graph/loader.h"

using namespace gthinker;

namespace {

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) continue;
    const char* eq = std::strchr(arg, '=');
    if (eq != nullptr) {
      flags[std::string(arg + 2, eq - arg - 2)] = eq + 1;
    } else {
      flags[arg + 2] = "1";
    }
  }
  return flags;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

void PrintStats(const JobStats& stats) {
  std::printf("elapsed %.3f s%s | tasks %lld (%lld iterations) | "
              "spilled %lld | stolen %lld | requests %lld (hits %lld, "
              "evictions %lld) | wire %.2f MB in %lld batches | "
              "peak mem (max worker) %.2f MB\n",
              stats.elapsed_s, stats.timed_out ? " (TIMED OUT)" : "",
              static_cast<long long>(stats.tasks_finished),
              static_cast<long long>(stats.task_iterations),
              static_cast<long long>(stats.spilled_batches),
              static_cast<long long>(stats.stolen_batches),
              static_cast<long long>(stats.vertex_requests),
              static_cast<long long>(stats.cache_hits),
              static_cast<long long>(stats.cache_evictions),
              stats.bytes_sent / 1048576.0,
              static_cast<long long>(stats.batches_sent),
              stats.max_peak_mem_bytes / 1048576.0);
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = ParseFlags(argc, argv);
  const std::string app = FlagOr(flags, "app", "tc");
  const double scale = std::atof(FlagOr(flags, "scale", "0.35").c_str());
  const uint64_t seed =
      std::strtoull(FlagOr(flags, "seed", "7").c_str(), nullptr, 10);

  Graph graph;
  std::string source;
  if (flags.count("graph") > 0) {
    source = flags["graph"];
    Status s = GraphIo::LoadAdjacency(source, &graph);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", source.c_str(),
                   s.ToString().c_str());
      return 1;
    }
  } else {
    source = FlagOr(flags, "dataset", "youtube") + "-like";
    graph = MakeDataset(FlagOr(flags, "dataset", "youtube"), scale).graph;
  }
  std::printf("graph %s: %u vertices, %llu edges, max degree %u\n",
              source.c_str(), graph.NumVertices(),
              static_cast<unsigned long long>(graph.NumEdges()),
              graph.MaxDegree());

  JobConfig config;
  config.num_workers = std::atoi(FlagOr(flags, "workers", "4").c_str());
  config.compers_per_worker =
      std::atoi(FlagOr(flags, "compers", "2").c_str());
  config.comm.net.latency_us =
      std::atoll(FlagOr(flags, "latency-us", "0").c_str());
  config.comm.net.bandwidth_mbps =
      std::atof(FlagOr(flags, "bandwidth-mbps", "0").c_str());
  const bool verify = flags.count("verify") > 0;

  if (app == "tc") {
    Job<TriangleComper> job;
    job.config = config;
    job.graph = &graph;
    job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
    job.trimmer = TrimToGreater;
    auto result = Cluster<TriangleComper>::Run(job);
    std::printf("triangles: %llu\n",
                static_cast<unsigned long long>(result.result));
    PrintStats(result.stats);
    if (verify) {
      const uint64_t truth = CountTrianglesSerial(graph);
      std::printf("verify: serial=%llu %s\n",
                  static_cast<unsigned long long>(truth),
                  truth == result.result ? "OK" : "MISMATCH");
      return truth == result.result ? 0 : 2;
    }
  } else if (app == "mcf") {
    const size_t tau =
        std::strtoul(FlagOr(flags, "tau", "400").c_str(), nullptr, 10);
    Job<MaxCliqueComper> job;
    job.config = config;
    job.graph = &graph;
    job.comper_factory = [tau] {
      return std::make_unique<MaxCliqueComper>(tau);
    };
    job.trimmer = TrimToGreater;
    auto result = Cluster<MaxCliqueComper>::Run(job);
    std::printf("maximum clique size: %zu\n", result.result.size());
    PrintStats(result.stats);
    if (verify) {
      const size_t truth = MaxCliqueSerial(graph).size();
      std::printf("verify: serial=%zu %s\n", truth,
                  truth == result.result.size() ? "OK" : "MISMATCH");
      return truth == result.result.size() ? 0 : 2;
    }
  } else if (app == "maxcliques") {
    Job<MaximalCliqueComper> job;
    job.config = config;
    job.graph = &graph;
    job.comper_factory = [] {
      return std::make_unique<MaximalCliqueComper>();
    };
    auto result = Cluster<MaximalCliqueComper>::Run(job);
    std::printf("maximal cliques: %llu\n",
                static_cast<unsigned long long>(result.result));
    PrintStats(result.stats);
    if (verify) {
      const uint64_t truth = CountMaximalCliquesSerial(graph);
      std::printf("verify: serial=%llu %s\n",
                  static_cast<unsigned long long>(truth),
                  truth == result.result ? "OK" : "MISMATCH");
      return truth == result.result ? 0 : 2;
    }
  } else if (app == "gm") {
    const Label num_labels = static_cast<Label>(
        std::atoi(FlagOr(flags, "labels", "4").c_str()));
    auto labels =
        Generator::RandomLabels(graph.NumVertices(), num_labels, seed);
    const QueryGraph query = QueryGraph::Triangle(0, 1, 2);
    Job<MatchComper> job;
    job.config = config;
    job.graph = &graph;
    job.labels = &labels;
    job.comper_factory = [&query] {
      return std::make_unique<MatchComper>(query);
    };
    job.trimmer = [&query](Vertex<LabeledAdj>& v) {
      MatchComper::TrimByQuery(query, v);
    };
    auto result = Cluster<MatchComper>::Run(job);
    std::printf("labeled triangle matches: %llu\n",
                static_cast<unsigned long long>(result.result));
    PrintStats(result.stats);
    if (verify) {
      const uint64_t truth = CountMatchesSerial(graph, labels, query);
      std::printf("verify: serial=%llu %s\n",
                  static_cast<unsigned long long>(truth),
                  truth == result.result ? "OK" : "MISMATCH");
      return truth == result.result ? 0 : 2;
    }
  } else if (app == "kclique") {
    const int k = std::atoi(FlagOr(flags, "k", "4").c_str());
    Job<KCliqueComper> job;
    job.config = config;
    job.graph = &graph;
    job.comper_factory = [k] { return std::make_unique<KCliqueComper>(k); };
    job.trimmer = TrimToGreater;
    auto result = Cluster<KCliqueComper>::Run(job);
    std::printf("%d-cliques: %llu\n", k,
                static_cast<unsigned long long>(result.result));
    PrintStats(result.stats);
    if (verify) {
      const uint64_t truth = CountKCliquesSerial(graph, k);
      std::printf("verify: serial=%llu %s\n",
                  static_cast<unsigned long long>(truth),
                  truth == result.result ? "OK" : "MISMATCH");
      return truth == result.result ? 0 : 2;
    }
  } else if (app == "qc") {
    const double gamma = std::atof(FlagOr(flags, "gamma", "0.6").c_str());
    const size_t min_size =
        std::strtoul(FlagOr(flags, "min-size", "4").c_str(), nullptr, 10);
    Job<QuasiCliqueComper> job;
    job.config = config;
    job.graph = &graph;
    job.comper_factory = [gamma, min_size] {
      return std::make_unique<QuasiCliqueComper>(gamma, min_size);
    };
    auto result = Cluster<QuasiCliqueComper>::Run(job);
    std::printf("largest %.2f-quasi-clique: %zu vertices\n", gamma,
                result.result.size());
    PrintStats(result.stats);
  } else {
    std::fprintf(stderr,
                 "unknown --app=%s (tc, mcf, maxcliques, kclique, gm, qc)\n",
                 app.c_str());
    return 1;
  }
  return 0;
}
