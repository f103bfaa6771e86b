#ifndef GTHINKER_OBS_METRICS_H_
#define GTHINKER_OBS_METRICS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace gthinker::obs {

/// Monotonic event counter. Recording is one relaxed fetch_add — safe and
/// cheap from any thread, including the compers' hot loops.
class Counter {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time level (queue depth, cache occupancy). Written by samplers,
/// read by snapshots; both sides are single relaxed atomics.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time view of one histogram, with quantile estimation.
struct HistogramSnapshot {
  std::string name;
  std::string labels;
  int64_t count = 0;
  int64_t sum = 0;
  int64_t max = 0;
  std::vector<int64_t> buckets;  // indexed like Histogram::BucketIndex

  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }

  /// Estimated p-quantile (p in [0,1]): finds the bucket holding the target
  /// rank and interpolates linearly inside its [lower, upper] value range.
  /// Power-of-2 buckets bound the relative error of the estimate by 2x.
  double Percentile(double p) const {
    if (count == 0) return 0.0;
    p = std::min(1.0, std::max(0.0, p));
    const double target = p * static_cast<double>(count);
    int64_t cumulative = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i] == 0) continue;
      const int64_t before = cumulative;
      cumulative += buckets[i];
      if (static_cast<double>(cumulative) >= target) {
        const double lo = static_cast<double>(BucketLowerBound(i));
        const double hi = static_cast<double>(BucketUpperBound(i));
        const double frac =
            buckets[i] == 0
                ? 0.0
                : (target - static_cast<double>(before)) /
                      static_cast<double>(buckets[i]);
        return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
      }
    }
    return static_cast<double>(max);
  }

  /// Bucket 0 holds exactly the value 0 (and clamped negatives); bucket
  /// i >= 1 holds values in [2^(i-1), 2^i - 1].
  static int64_t BucketLowerBound(size_t index) {
    return index == 0 ? 0 : int64_t{1} << (index - 1);
  }
  static int64_t BucketUpperBound(size_t index) {
    return index == 0 ? 0 : (int64_t{1} << index) - 1;
  }
};

/// Fixed-bucket latency/size histogram with power-of-2 bucket boundaries
/// (bucket i >= 1 covers [2^(i-1), 2^i - 1]; bucket 0 covers <= 0). Record
/// is three relaxed atomic RMWs and one comparison loop for the max — no
/// locks, no allocation, safe from any thread while a snapshot is taken.
class Histogram {
 public:
  /// 2^47 microseconds is ~4.5 years; the last bucket absorbs anything above.
  static constexpr int kNumBuckets = 48;

  static int BucketIndex(int64_t value) {
    if (value <= 0) return 0;
    int index = 0;
    while (value > 0 && index < kNumBuckets - 1) {
      value >>= 1;
      ++index;
    }
    return index;
  }

  void Record(int64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Safe while Record runs. The buckets are read one by one, so the
  /// snapshot's count is their sum, not count_: a rendered +Inf bucket
  /// (the count) then never reads below the cumulative bucket before it.
  HistogramSnapshot Snapshot() const {
    HistogramSnapshot snap;
    snap.sum = sum_.load(std::memory_order_relaxed);
    snap.max = max_.load(std::memory_order_relaxed);
    snap.buckets.resize(kNumBuckets);
    for (int i = 0; i < kNumBuckets; ++i) {
      snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
      snap.count += snap.buckets[i];
    }
    return snap;
  }

 private:
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
};

/// One registry's full state at a point in time, JSON-serializable by the
/// report layer. `scope` identifies whose registry this is ("worker0",
/// "hub", ...).
struct MetricsSnapshot {
  std::string scope;
  std::vector<std::pair<std::string, int64_t>> counters;  // name|labels
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Counter lookup by full name (labels included when registered with any);
  /// -1 when absent, so ratios of missing counters read as invalid.
  int64_t CounterValue(const std::string& name) const {
    for (const auto& [n, v] : counters) {
      if (n == name) return v;
    }
    return -1;
  }

  const HistogramSnapshot* FindHistogram(const std::string& name) const {
    for (const HistogramSnapshot& h : histograms) {
      if (h.name == name) return &h;
    }
    return nullptr;
  }
};

/// Registry of named metrics for one scope (one worker, the hub, ...).
/// Registration (Get*) takes a mutex and is expected at setup time; the
/// returned pointers are stable for the registry's lifetime and recording
/// through them is lock-free. Labels are a free-form "key=value,..." suffix
/// distinguishing instances of the same metric (e.g. per-comper).
class MetricsRegistry {
 public:
  explicit MetricsRegistry(std::string scope = "") : scope_(std::move(scope)) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& labels = "") {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::string key = Key(name, labels);
    auto it = counter_index_.find(key);
    if (it != counter_index_.end()) return &counters_[it->second].metric;
    counter_index_.emplace(key, counters_.size());
    counters_.emplace_back();  // in place: metrics hold atomics, no moves
    counters_.back().name = name;
    counters_.back().labels = labels;
    return &counters_.back().metric;
  }

  Gauge* GetGauge(const std::string& name, const std::string& labels = "") {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::string key = Key(name, labels);
    auto it = gauge_index_.find(key);
    if (it != gauge_index_.end()) return &gauges_[it->second].metric;
    gauge_index_.emplace(key, gauges_.size());
    gauges_.emplace_back();
    gauges_.back().name = name;
    gauges_.back().labels = labels;
    return &gauges_.back().metric;
  }

  Histogram* GetHistogram(const std::string& name,
                          const std::string& labels = "") {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::string key = Key(name, labels);
    auto it = histogram_index_.find(key);
    if (it != histogram_index_.end()) return &histograms_[it->second].metric;
    histogram_index_.emplace(key, histograms_.size());
    histograms_.emplace_back();
    histograms_.back().name = name;
    histograms_.back().labels = labels;
    return &histograms_.back().metric;
  }

  /// Consistent-enough snapshot: each metric is read atomically; the set of
  /// metrics is frozen under the registration mutex. Safe to call while
  /// other threads record.
  MetricsSnapshot Snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    snap.scope = scope_;
    snap.counters.reserve(counters_.size());
    for (const auto& entry : counters_) {
      snap.counters.emplace_back(Key(entry.name, entry.labels),
                                 entry.metric.value());
    }
    snap.gauges.reserve(gauges_.size());
    for (const auto& entry : gauges_) {
      snap.gauges.emplace_back(Key(entry.name, entry.labels),
                               entry.metric.value());
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& entry : histograms_) {
      HistogramSnapshot h = entry.metric.Snapshot();
      h.name = entry.name;
      h.labels = entry.labels;
      snap.histograms.push_back(std::move(h));
    }
    return snap;
  }

  const std::string& scope() const { return scope_; }

 private:
  template <typename MetricT>
  struct Entry {
    std::string name;
    std::string labels;
    MetricT metric;
  };

  static std::string Key(const std::string& name, const std::string& labels) {
    return labels.empty() ? name : name + "{" + labels + "}";
  }

  const std::string scope_;
  mutable std::mutex mutex_;
  // Deques: stable addresses across registration (metrics are not movable
  // anyway — they hold atomics).
  std::deque<Entry<Counter>> counters_;
  std::deque<Entry<Gauge>> gauges_;
  std::deque<Entry<Histogram>> histograms_;
  std::unordered_map<std::string, size_t> counter_index_;
  std::unordered_map<std::string, size_t> gauge_index_;
  std::unordered_map<std::string, size_t> histogram_index_;
};

}  // namespace gthinker::obs

#endif  // GTHINKER_OBS_METRICS_H_
