// Live-introspection tests: the status server must serve lint-clean
// Prometheus text and parseable JSON progress while a real job is running,
// and the generic HTTP layer must get the protocol basics right.

#include "obs/status_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/maxclique_app.h"
#include "apps/triangle_app.h"  // TrimToGreater
#include "core/cluster.h"
#include "graph/generator.h"
#include "http_get.h"
#include "net/http_server.h"
#include "obs/json.h"
#include "obs/prometheus.h"

namespace gthinker {
namespace {

TEST(HttpServer, ServesRoutesAndProtocolErrors) {
  net::HttpServer server;
  server.Route("/hello", [] {
    net::HttpResponse resp;
    resp.body = "hi";
    return resp;
  });
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.port(), 0);

  EXPECT_EQ(HttpGet(server.port(), "/hello").status, 200);
  EXPECT_EQ(HttpGet(server.port(), "/hello").body, "hi");
  // Query strings are stripped before route matching.
  EXPECT_EQ(HttpGet(server.port(), "/hello?x=1").status, 200);
  EXPECT_EQ(HttpGet(server.port(), "/nope").status, 404);

  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(StatusServer, ServesMetricsStatusAndHealth) {
  obs::MetricsRegistry registry("worker0");
  registry.GetCounter("tasks.spawned")->Add(42);
  registry.GetHistogram("task.wait_us")->Record(100);
  registry.GetHistogram("task.wait_us")->Record(3000);

  obs::StatusServer server(
      [&] {
        std::vector<obs::MetricsSnapshot> snaps;
        snaps.push_back(registry.Snapshot());
        return snaps;
      },
      [] { return std::string("{\"job\":\"unit\",\"tasks\":{\"live\":3}}"); });
  ASSERT_TRUE(server.Start(-1).ok());
  const int port = server.port();
  ASSERT_GT(port, 0);
  EXPECT_EQ(obs::StatusServer::Current(), &server);

  const HttpReply health = HttpGet(port, "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  const HttpReply metrics = HttpGet(port, "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("gthinker_tasks_spawned_total"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("_bucket{"), std::string::npos) << metrics.body;
  EXPECT_NE(metrics.body.find("le=\"+Inf\""), std::string::npos);
  const Status lint = obs::PrometheusLint(metrics.body);
  EXPECT_TRUE(lint.ok()) << lint.ToString() << "\n" << metrics.body;

  const HttpReply status = HttpGet(port, "/status.json");
  ASSERT_EQ(status.status, 200);
  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonParse(status.body, &root).ok()) << status.body;
  EXPECT_EQ(root.Find("job")->string, "unit");

  server.Stop();
  EXPECT_EQ(obs::StatusServer::Current(), nullptr);
}

/// Max-clique comper whose Compute waits (up to 10 s) until `scrapes` is
/// non-zero, so the job is still running when the first scrape lands
/// however fast it would otherwise end.
class WaitForScrapeComper : public MaxCliqueComper {
 public:
  explicit WaitForScrapeComper(const std::atomic<int>* scrapes)
      : MaxCliqueComper(400), scrapes_(scrapes) {}
  bool Compute(TaskT* task, const Frontier& frontier) override {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (scrapes_->load(std::memory_order_relaxed) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return MaxCliqueComper::Compute(task, frontier);
  }

 private:
  const std::atomic<int>* scrapes_;
};

// The acceptance-criterion path: scrape /metrics and /status.json from a
// job that is actually running, then lint/parse what came back.
TEST(StatusServerE2E, ScrapesLiveJob) {
  static Graph g = Generator::PowerLaw(700, 12.0, 2.3, 4203);

  std::atomic<bool> job_done{false};
  std::string metrics_body;
  std::string status_body;
  std::atomic<int> scrapes{0};

  // Scraper thread: discover the ephemeral port via Current(), then keep
  // scraping until the job finishes so at least one scrape lands mid-run.
  std::thread scraper([&] {
    while (!job_done.load(std::memory_order_acquire)) {
      obs::StatusServer* server = obs::StatusServer::Current();
      if (server == nullptr) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      const int port = server->port();
      const HttpReply metrics = HttpGet(port, "/metrics");
      const HttpReply status = HttpGet(port, "/status.json");
      if (metrics.status == 200 && status.status == 200) {
        metrics_body = metrics.body;
        status_body = status.body;
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  Job<MaxCliqueComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 2;
  job.config.status_port = -1;  // ephemeral; discovered via Current()
  job.graph = &g;
  job.comper_factory = [&scrapes] {
    return std::make_unique<WaitForScrapeComper>(&scrapes);
  };
  job.trimmer = TrimToGreater;
  auto result = Cluster<MaxCliqueComper>::Run(job);
  job_done.store(true, std::memory_order_release);
  scraper.join();

  ASSERT_FALSE(result.result.empty());
  EXPECT_GT(result.stats.status_port, 0);
  ASSERT_GT(scrapes.load(), 0) << "job finished before any scrape landed";

  // The scraped Prometheus text passes the lint and carries per-scope series.
  const Status lint = obs::PrometheusLint(metrics_body);
  EXPECT_TRUE(lint.ok()) << lint.ToString();
  EXPECT_NE(metrics_body.find("scope=\"worker0\""), std::string::npos);
  EXPECT_NE(metrics_body.find("scope=\"hub\""), std::string::npos);
  EXPECT_NE(metrics_body.find("scope=\"job\""), std::string::npos);

  // The progress JSON parses with the in-repo parser and has the headline
  // sections.
  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonParse(status_body, &root).ok()) << status_body;
  EXPECT_EQ(root.Find("job")->string, "gthinker");
  EXPECT_EQ(root.Find("num_workers")->number, 2.0);
  ASSERT_NE(root.Find("tasks"), nullptr);
  ASSERT_NE(root.Find("cache"), nullptr);
  ASSERT_NE(root.Find("activity"), nullptr);
  ASSERT_TRUE(root.Find("workers")->IsArray());
  EXPECT_EQ(root.Find("workers")->array.size(), 2u);

  // The server is torn down with the run; the port no longer answers.
  EXPECT_EQ(obs::StatusServer::Current(), nullptr);
}

TEST(StatusServer, OffByDefault) {
  static Graph g = Generator::ErdosRenyi(80, 300, 991);
  Job<TriangleComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 1;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
  job.trimmer = TrimToGreater;
  auto result = Cluster<TriangleComper>::Run(job);
  EXPECT_EQ(result.stats.status_port, 0);
}

TEST(Prometheus, RenderAndLintCoverMetricShapes) {
  obs::MetricsRegistry registry("worker1");
  registry.GetCounter("cache.hits")->Add(7);
  registry.GetCounter("phase.compute_us", "comper=1")->Add(1234);
  registry.GetGauge("live_tasks")->Set(5);
  registry.GetHistogram("comper.compute_iter_us")->Record(0);
  registry.GetHistogram("comper.compute_iter_us")->Record(17);

  std::vector<obs::MetricsSnapshot> snaps;
  snaps.push_back(registry.Snapshot());
  const std::string body = obs::RenderPrometheus(snaps);

  // Names are sanitized and prefixed; labels carry scope + registry labels.
  EXPECT_NE(body.find("gthinker_cache_hits_total{scope=\"worker1\"} 7"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("comper=\"1\""), std::string::npos) << body;
  EXPECT_NE(body.find("gthinker_live_tasks{scope=\"worker1\"} 5"),
            std::string::npos)
      << body;
  // Histograms render the cumulative triplet.
  EXPECT_NE(body.find("gthinker_comper_compute_iter_us_sum"),
            std::string::npos);
  EXPECT_NE(body.find("gthinker_comper_compute_iter_us_count"),
            std::string::npos);
  EXPECT_NE(body.find("le=\"+Inf\""), std::string::npos);
  const Status lint = obs::PrometheusLint(body);
  EXPECT_TRUE(lint.ok()) << lint.ToString() << "\n" << body;

  // The lint actually rejects malformed text.
  EXPECT_FALSE(obs::PrometheusLint("not{a=metric\n").ok());
}

// The live surfaces are pure functions of the per-worker progress reports:
// every worker gets a row and a labeled gauge, and the totals sum them.
TEST(StatusJson, RendersEveryWorkerFromReports) {
  std::vector<ProgressReport> reports(3);
  for (int w = 0; w < 3; ++w) {
    ProgressReport& r = reports[w];
    r.worker_id = w;
    r.tasks_live = 10 * (w + 1);
    r.queue_depth = w + 1;
    r.tasks_on_disk = 2 * w;
    r.spill_queue_depth = w;
    r.cache_size = 100 + w;
    r.inbox_depth = 3;
    r.cache_hits = 30;
    r.cache_requests = 40;
    r.comper_idle_rounds = 1;
    r.comper_rounds = 4;
    r.ledger.spawned = 7;
    r.ledger.finished = 5;
  }
  // Worker 2 has not reported yet: all zeros, still listed.
  reports[2] = ProgressReport{};

  obs::JsonValue root;
  ASSERT_TRUE(
      obs::JsonParse(StatusJson(reports, 1.5, "tcp", 4), &root).ok());
  EXPECT_EQ(root.Find("num_workers")->number, 3.0);
  EXPECT_EQ(root.Find("transport")->string, "tcp");
  const obs::JsonValue* workers = root.Find("workers");
  ASSERT_TRUE(workers->IsArray());
  ASSERT_EQ(workers->array.size(), 3u);
  for (int w = 0; w < 3; ++w) {
    EXPECT_EQ(workers->array[w].Find("worker")->number, w);
  }
  const obs::JsonValue& w1 = workers->array[1];
  EXPECT_EQ(w1.Find("tasks_live")->number, 20.0);
  EXPECT_EQ(w1.Find("queue_depth")->number, 2.0);
  EXPECT_EQ(w1.Find("disk_tasks")->number, 2.0);
  EXPECT_EQ(w1.Find("spill_queue_depth")->number, 1.0);
  EXPECT_EQ(w1.Find("cache_size")->number, 101.0);
  EXPECT_EQ(w1.Find("inbox_depth")->number, 3.0);
  EXPECT_DOUBLE_EQ(w1.Find("comper_utilization")->number, 0.75);
  EXPECT_EQ(workers->array[2].Find("tasks_live")->number, 0.0);

  EXPECT_EQ(root.Find("tasks")->Find("live")->number, 30.0);
  EXPECT_EQ(root.Find("tasks")->Find("pending")->number, 3.0);
  EXPECT_EQ(root.Find("cache")->Find("entries")->number, 201.0);
  EXPECT_DOUBLE_EQ(root.Find("cache")->Find("hit_rate")->number, 0.75);
  const obs::JsonValue* activity = root.Find("activity");
  EXPECT_EQ(activity->Find("tasks_spawned")->number, 14.0);
  EXPECT_EQ(activity->Find("tasks_finished")->number, 10.0);
  EXPECT_EQ(activity->Find("splits"), nullptr);
  EXPECT_EQ(activity->Find("steal_orders")->number, 4.0);

  const obs::MetricsSnapshot job = JobScopeMetrics(reports, 250);
  EXPECT_EQ(job.scope, "job");
  auto gauge = [&job](const std::string& name) -> int64_t {
    for (const auto& [n, v] : job.gauges) {
      if (n == name) return v;
    }
    return -1;
  };
  EXPECT_EQ(gauge("uptime_us"), 250);
  EXPECT_EQ(gauge("tasks_live{worker=1}"), 20);
  EXPECT_EQ(gauge("cache_size{worker=0}"), 100);
  EXPECT_EQ(gauge("disk_tasks{worker=2}"), 0);
  const std::string prom = obs::RenderPrometheus({job});
  EXPECT_NE(prom.find("gthinker_tasks_live{scope=\"job\",worker=\"1\"} 20"),
            std::string::npos)
      << prom;
  EXPECT_TRUE(obs::PrometheusLint(prom).ok());
}

}  // namespace
}  // namespace gthinker
