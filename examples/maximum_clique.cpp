// Maximum clique finding (paper Fig. 5) on one of the five dataset
// stand-ins, with tunable cluster shape:
//
//   ./maximum_clique [dataset] [workers] [compers] [tau]
//                    [--report <json>] [--trace <json>] [--status-port <p>]
//
// e.g.  ./maximum_clique orkut 4 2 400 --report run.json --trace trace.json
//
// --report writes the obs::JobReport JSON (metrics, histograms, derived
// ratios, per-worker gauge time-series sampled at every progress report);
// --trace enables span tracing and writes a Chrome trace-event file loadable
// in Perfetto / chrome://tracing; --status-port serves /metrics
// (Prometheus), /status.json, and /healthz on 127.0.0.1:<p> while the job
// runs (-1 picks an ephemeral port, printed at startup).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/maxclique_app.h"
#include "apps/triangle_app.h"  // TrimToGreater
#include "core/cluster.h"
#include "graph/generator.h"

using namespace gthinker;

int main(int argc, char** argv) {
  // Split flag arguments ("--name value") from positional ones so the
  // original positional interface keeps working unchanged.
  std::string report_path;
  std::string trace_path;
  int status_port = 0;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--status-port") == 0 && i + 1 < argc) {
      status_port = std::atoi(argv[++i]);
    } else {
      positional.push_back(argv[i]);
    }
  }
  const std::string dataset = positional.size() > 0 ? positional[0] : "youtube";
  const int workers = positional.size() > 1 ? std::atoi(positional[1]) : 4;
  const int compers = positional.size() > 2 ? std::atoi(positional[2]) : 2;
  const size_t tau =
      positional.size() > 3 ? std::strtoul(positional[3], nullptr, 10) : 400;

  Dataset data = MakeDataset(dataset, /*scale=*/0.5);
  const Graph& graph = data.graph;
  std::printf("%s-like graph: %u vertices, %llu edges, max degree %u\n",
              data.name.c_str(), graph.NumVertices(),
              static_cast<unsigned long long>(graph.NumEdges()),
              graph.MaxDegree());

  Job<MaxCliqueComper> job;
  job.config.num_workers = workers;
  job.config.compers_per_worker = compers;
  job.config.report_path = report_path;
  job.config.trace_path = trace_path;
  job.config.enable_span_tracing = !trace_path.empty();
  job.config.status_port = status_port;
  job.graph = &graph;
  job.comper_factory = [tau] {
    return std::make_unique<MaxCliqueComper>(tau);
  };
  job.trimmer = TrimToGreater;

  RunResult<MaxCliqueComper> result = Cluster<MaxCliqueComper>::Run(job);

  std::printf("maximum clique size: %zu\nvertices:", result.result.size());
  for (VertexId v : result.result) std::printf(" %u", v);
  std::printf("\n%s", result.stats.Summary().c_str());
  if (!report_path.empty()) {
    std::printf("report written to %s\n", report_path.c_str());
  }
  if (!trace_path.empty()) {
    std::printf("trace written to %s\n", trace_path.c_str());
  }

  // Validate the answer really is a clique.
  for (size_t i = 0; i < result.result.size(); ++i) {
    for (size_t j = i + 1; j < result.result.size(); ++j) {
      if (!graph.HasEdge(result.result[i], result.result[j])) {
        std::fprintf(stderr, "NOT A CLIQUE: %u !~ %u\n", result.result[i],
                     result.result[j]);
        return 2;
      }
    }
  }
  std::printf("verified: answer is a clique\n");
  return 0;
}
