#ifndef GTHINKER_OBS_SAMPLER_H_
#define GTHINKER_OBS_SAMPLER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gthinker::obs {

/// Gauge names the master samples from every worker's progress reports,
/// one point per report. This is the single source of truth for the
/// sampled set: the master indexes its series buffers by position here
/// (SampledGauges in core/job_report.h reads a report in this order), and
/// tests derive the expected `timeseries` count (workers x this) from its
/// size instead of hardcoding it.
inline constexpr const char* kWorkerSampledGauges[] = {
    "cache_size",  "live_tasks",  "queue_depth",
    "disk_tasks",  "inbox_depth", "spill_queue_depth",
};
inline constexpr size_t kNumWorkerSampledGauges =
    sizeof(kWorkerSampledGauges) / sizeof(kWorkerSampledGauges[0]);

/// One sampled time-series: (t_us, value) points for a named gauge of one
/// worker (worker -1 = cluster/hub scope).
struct TimeSeries {
  std::string name;
  int worker = -1;
  /// Effective sampling stride: points were kept every `stride` samples
  /// (grows by decimation; see BoundedSeries).
  int64_t stride = 1;
  std::vector<std::pair<int64_t, int64_t>> points;
};

/// Bounded gauge time-series. Appends are O(1); when the buffer fills, the
/// series is decimated — every other retained point is dropped and the
/// effective stride doubles — so a run of any length keeps full temporal
/// coverage at degrading resolution instead of truncating its tail. Single
/// writer (the master thread); readers take the finished series after the
/// job ends.
class BoundedSeries {
 public:
  BoundedSeries(std::string name, int worker, size_t max_points = 2048)
      : max_points_(max_points < 2 ? 2 : max_points) {
    series_.name = std::move(name);
    series_.worker = worker;
  }

  void Append(int64_t t_us, int64_t value) {
    if (++tick_ % series_.stride != 0) return;
    if (series_.points.size() >= max_points_) {
      // Keep every other point (the older half thins evenly), double stride.
      size_t kept = 0;
      for (size_t i = 0; i < series_.points.size(); i += 2) {
        series_.points[kept++] = series_.points[i];
      }
      series_.points.resize(kept);
      series_.stride *= 2;
    }
    series_.points.emplace_back(t_us, value);
  }

  const TimeSeries& series() const { return series_; }
  TimeSeries Take() { return std::move(series_); }

 private:
  const size_t max_points_;
  int64_t tick_ = 0;
  TimeSeries series_;
};

}  // namespace gthinker::obs

#endif  // GTHINKER_OBS_SAMPLER_H_
