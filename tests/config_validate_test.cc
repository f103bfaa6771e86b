// Tests for JobConfig::Validate.

#include "core/config.h"

#include <gtest/gtest.h>

#include <limits>

namespace gthinker {
namespace {

TEST(ConfigValidate, DefaultsAreValid) {
  EXPECT_TRUE(JobConfig{}.Validate().ok());
}

TEST(ConfigValidate, RejectsBadWorkerCounts) {
  JobConfig c;
  c.num_workers = 0;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c.num_workers = -3;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c.num_workers = 1 << 17;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
}

TEST(ConfigValidate, RejectsBadComperCounts) {
  JobConfig c;
  c.compers_per_worker = 0;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c.compers_per_worker = (1 << 16) + 1;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
}

// Event records (obs::SpanEvent) carry worker and comper IDs as int16, with
// -1 for master / worker-level events, so neither count may pass 32767.
TEST(ConfigValidate, RejectsCountsTheEventRecordCannotHold) {
  JobConfig c;
  c.num_workers = 32768;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c = JobConfig{};
  c.compers_per_worker = 32768;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c.num_workers = 32767;
  c.compers_per_worker = 32767;
  EXPECT_TRUE(c.Validate().ok());
}

TEST(ConfigValidate, RejectsBadCacheParameters) {
  JobConfig c;
  c.cache_capacity = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = JobConfig{};
  c.cache_overflow_alpha = -0.1;
  EXPECT_FALSE(c.Validate().ok());
  c = JobConfig{};
  c.cache_num_buckets = 0;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(ConfigValidate, RejectsBadTaskParameters) {
  JobConfig c;
  c.task_batch_size = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = JobConfig{};
  c.task_queue_capacity_batches = 1;
  EXPECT_FALSE(c.Validate().ok());
  c = JobConfig{};
  c.inflight_task_cap = c.task_batch_size - 1;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(ConfigValidate, RejectsNegativeBudgetsAndWire) {
  JobConfig c;
  c.comm.net.latency_us = -1;
  EXPECT_FALSE(c.Validate().ok());
  c = JobConfig{};
  c.comm.net.bandwidth_mbps = -5.0;
  EXPECT_FALSE(c.Validate().ok());
  c = JobConfig{};
  c.time_budget_s = -1.0;
  EXPECT_FALSE(c.Validate().ok());
  c = JobConfig{};
  c.checkpoint_interval_us = -2;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(ConfigValidate, RejectsNonFiniteDoubles) {
  // NaN slips past every `< 0` check: a NaN alpha never closes the cache
  // pop gate, and a NaN budget silently means no budget.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    JobConfig c;
    c.cache_overflow_alpha = bad;
    EXPECT_TRUE(c.Validate().IsInvalidArgument()) << bad;
    c = JobConfig{};
    c.time_budget_s = bad;
    EXPECT_TRUE(c.Validate().IsInvalidArgument()) << bad;
    c = JobConfig{};
    c.comm.net.bandwidth_mbps = bad;
    EXPECT_TRUE(c.Validate().IsInvalidArgument()) << bad;
  }
}

TEST(ConfigValidate, RejectsBadPeriodsAndPaths) {
  JobConfig c;
  c.progress_interval_us = 0;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c = JobConfig{};
  c.drain_timeout_us = 0;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c = JobConfig{};
  c.drain_timeout_us = c.progress_interval_us;  // no heartbeat fits the bound
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c = JobConfig{};
  c.trace_path = "/tmp/trace.json";  // requires span tracing on
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c.enable_span_tracing = true;
  EXPECT_TRUE(c.Validate().ok());
}

// No rank of a TCP job can resume from a checkpoint, so a TCP job may not
// take one.
TEST(ConfigValidate, RejectsCheckpointsUnderTcp) {
  JobConfig c;
  c.num_workers = 2;
  c.comm.transport = CommConfig::Transport::kTcp;
  c.comm.hosts = {"127.0.0.1:7001", "127.0.0.1:7002"};
  EXPECT_TRUE(c.Validate().ok());
  c.checkpoint_interval_us = 1'000'000;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
}

TEST(ConfigValidate, AcceptsAggressiveButLegalValues) {
  JobConfig c;
  c.num_workers = 16;
  c.compers_per_worker = 16;
  c.task_batch_size = 1;
  c.inflight_task_cap = 1;
  c.cache_capacity = 1;
  c.cache_num_buckets = 1;
  c.cache_overflow_alpha = 0.0;
  EXPECT_TRUE(c.Validate().ok());
}

}  // namespace
}  // namespace gthinker
