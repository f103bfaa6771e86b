// Property: the answer of a G-thinker job is invariant under the execution
// configuration. Each instance draws a random (but seeded) JobConfig —
// cluster shape, batch sizes, cache capacity/buckets/alpha, wire latency,
// stealing and refill policies, kernel dense/sparse threshold — and must
// still produce the serial TC count and the serial MCF size.

#include <gtest/gtest.h>

#include <memory>

#include "apps/kernels.h"
#include "apps/maxclique_app.h"
#include "apps/triangle_app.h"
#include "core/cluster.h"
#include "graph/generator.h"
#include "util/random.h"

namespace gthinker {
namespace {

/// Runs the kernels under threshold `n` for one job, then restores the
/// previous (process-global) threshold.
class ThresholdGuard {
 public:
  explicit ThresholdGuard(int n) : saved_(KernelBitsetMaxVertices()) {
    SetKernelBitsetMaxVertices(n);
  }
  ~ThresholdGuard() { SetKernelBitsetMaxVertices(saved_); }

 private:
  const int saved_;
};

/// Draws a JobConfig and, into *bitset_max, the kernel dense/sparse
/// threshold to run it under.
JobConfig RandomConfig(uint64_t seed, int* bitset_max) {
  Random rng(seed);
  JobConfig config;
  config.num_workers = 1 + static_cast<int>(rng.Uniform(6));
  config.compers_per_worker = 1 + static_cast<int>(rng.Uniform(4));
  config.task_batch_size = 4 + static_cast<int>(rng.Uniform(200));
  config.task_queue_capacity_batches = 2 + static_cast<int>(rng.Uniform(3));
  config.inflight_task_cap =
      config.task_batch_size * (1 + static_cast<int>(rng.Uniform(8)));
  config.cache_capacity = 32 + static_cast<int64_t>(rng.Uniform(5000));
  config.cache_num_buckets = 1 + static_cast<int>(rng.Uniform(512));
  config.cache_overflow_alpha = 0.01 + rng.NextDouble() * 2.0;
  config.enable_stealing = rng.Bernoulli(0.5);
  config.refill_spawn_first = rng.Bernoulli(0.3);
  // Exercise both kernel paths: bitset disabled, a tiny threshold that
  // splits task subgraphs across it, or the default.
  const int kernel_modes[] = {0, 8, 2048};
  *bitset_max = kernel_modes[rng.Uniform(3)];
  if (rng.Bernoulli(0.4)) {
    config.comm.net.latency_us = static_cast<int64_t>(rng.Uniform(300));
    config.comm.net.bandwidth_mbps = 50.0 + rng.NextDouble() * 2000.0;
  }
  return config;
}

class ConfigPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConfigPropertyTest, TriangleCountInvariant) {
  Graph g = Generator::PowerLaw(350, 9.0, 2.4, 301);
  static const uint64_t truth = CountTrianglesSerial(g);
  Job<TriangleComper> job;
  int bitset_max = 0;
  job.config = RandomConfig(GetParam(), &bitset_max);
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
  job.trimmer = TrimToGreater;
  ThresholdGuard guard(bitset_max);
  auto result = Cluster<TriangleComper>::Run(job);
  EXPECT_EQ(result.result, truth)
      << "workers=" << job.config.num_workers
      << " compers=" << job.config.compers_per_worker
      << " C=" << job.config.task_batch_size
      << " cache=" << job.config.cache_capacity
      << " buckets=" << job.config.cache_num_buckets
      << " steal=" << job.config.enable_stealing
      << " bitset_max=" << bitset_max;
}

TEST_P(ConfigPropertyTest, MaxCliqueInvariant) {
  Graph g = Generator::ErdosRenyi(200, 2200, 302);
  static const size_t truth = MaxCliqueSerial(g).size();
  Job<MaxCliqueComper> job;
  int bitset_max = 0;
  job.config = RandomConfig(GetParam() + 1000, &bitset_max);
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<MaxCliqueComper>(30); };
  job.trimmer = TrimToGreater;
  ThresholdGuard guard(bitset_max);
  auto result = Cluster<MaxCliqueComper>::Run(job);
  EXPECT_EQ(result.result.size(), truth) << "bitset_max=" << bitset_max;
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, ConfigPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace gthinker
