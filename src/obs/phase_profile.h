#ifndef GTHINKER_OBS_PHASE_PROFILE_H_
#define GTHINKER_OBS_PHASE_PROFILE_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span_trace.h"

namespace gthinker::obs {

/// Where a comper's wall time went, the decomposition the paper's evaluation
/// (and follow-ups like the quasi-clique codesign work) diagnose with:
///   compute    — inside UDF Compute() iterations
///   pull_wait  — idle with tasks parked waiting on remote vertex pulls
///   queue_wait — idle with nothing runnable (load imbalance / drain / park)
///   spill      — writing or reloading spill files on the comper thread
///   steal      — packing donation batches (worker rows only; comm thread)
///   other      — loop overhead not attributed above (queue ops, bookkeeping)
/// Parts are measured directly with disjoint timers on the comper loop, so
/// per comper they sum exactly to total_us (= the loop's wall time).
struct PhaseBreakdown {
  int worker = -1;
  int comper = -1;  // -1 = whole-worker row
  int64_t compute_us = 0;
  int64_t pull_wait_us = 0;
  int64_t queue_wait_us = 0;
  int64_t spill_us = 0;
  int64_t steal_us = 0;
  int64_t other_us = 0;
  int64_t total_us = 0;

  int64_t NamedSum() const {
    return compute_us + pull_wait_us + queue_wait_us + spill_us + steal_us;
  }

  /// Fraction of total_us attributed to a named phase (not `other`);
  /// -1 when the row is empty.
  double Coverage() const {
    if (total_us <= 0) return -1.0;
    return static_cast<double>(NamedSum()) / static_cast<double>(total_us);
  }
};

/// A comper's phase.*_us counter, fed in nanoseconds by that comper's thread.
/// It adds only whole microseconds and carries the sub-µs remainder into the
/// next interval, so a phase made of many short intervals sums to its true
/// time instead of losing up to 1 µs per interval to `other`. The counter
/// never runs ahead of the time measured, so the disjoint phases still sum
/// to at most the loop's wall time.
class PhaseCounter {
 public:
  explicit PhaseCounter(Counter* us) : us_(us) {}

  void AddNanos(int64_t ns) {
    carry_ns_ += ns;
    us_->Add(carry_ns_ / 1000);
    carry_ns_ %= 1000;
  }

 private:
  Counter* us_;  // owned by the worker's metrics registry
  int64_t carry_ns_ = 0;
};

/// One row of the straggler table: a task that monopolized compute, with its
/// lineage (the task whose Compute added it) so oversized tasks that were
/// (or weren't) decomposed are visible.
struct Straggler {
  uint64_t task_id = 0;
  uint64_t parent_task_id = 0;  // 0 = not added from a Compute
  int worker = -1;
  int comper = -1;
  int64_t compute_us = 0;
  int64_t iterations = 0;
};

struct PhaseProfile {
  std::vector<PhaseBreakdown> per_comper;  // sorted by (worker, comper)
  std::vector<PhaseBreakdown> per_worker;  // sorted by worker
  std::vector<Straggler> stragglers;       // top-k by compute, descending

  bool empty() const { return per_comper.empty() && per_worker.empty(); }

  /// Writes the profile as one JSON object value (the report's "phases"
  /// section).
  void WriteJson(JsonWriter* w) const {
    auto write_row = [w](const PhaseBreakdown& row) {
      w->BeginObject();
      w->Key("worker");
      w->Int(row.worker);
      if (row.comper >= 0) {
        w->Key("comper");
        w->Int(row.comper);
      }
      w->Key("compute_us");
      w->Int(row.compute_us);
      w->Key("pull_wait_us");
      w->Int(row.pull_wait_us);
      w->Key("queue_wait_us");
      w->Int(row.queue_wait_us);
      w->Key("spill_us");
      w->Int(row.spill_us);
      w->Key("steal_us");
      w->Int(row.steal_us);
      w->Key("other_us");
      w->Int(row.other_us);
      w->Key("total_us");
      w->Int(row.total_us);
      w->Key("coverage");
      w->Double(row.Coverage());
      w->EndObject();
    };
    w->BeginObject();
    w->Key("per_worker");
    w->BeginArray();
    for (const PhaseBreakdown& row : per_worker) write_row(row);
    w->EndArray();
    w->Key("per_comper");
    w->BeginArray();
    for (const PhaseBreakdown& row : per_comper) write_row(row);
    w->EndArray();
    w->Key("stragglers");
    w->BeginArray();
    for (const Straggler& s : stragglers) {
      w->BeginObject();
      w->Key("task");
      w->UInt(s.task_id);
      if (s.parent_task_id != 0) {
        w->Key("parent");
        w->UInt(s.parent_task_id);
      }
      w->Key("worker");
      w->Int(s.worker);
      w->Key("comper");
      w->Int(s.comper);
      w->Key("compute_us");
      w->Int(s.compute_us);
      w->Key("iterations");
      w->Int(s.iterations);
      w->EndObject();
    }
    w->EndArray();
    w->EndObject();
  }

  /// Human-readable table for JobStats::Summary().
  std::string HumanTable() const {
    std::string out;
    char line[220];
    if (!per_worker.empty()) {
      out += "  phase profile (ms):\n";
      std::snprintf(line, sizeof(line),
                    "    %-10s %9s %9s %10s %7s %7s %7s %9s %6s\n", "scope",
                    "compute", "pullwait", "queuewait", "spill", "steal",
                    "other", "total", "cover");
      out += line;
      auto emit = [&](const PhaseBreakdown& row, const std::string& scope) {
        std::snprintf(line, sizeof(line),
                      "    %-10s %9.1f %9.1f %10.1f %7.1f %7.1f %7.1f %9.1f "
                      "%5.1f%%\n",
                      scope.c_str(), row.compute_us / 1e3,
                      row.pull_wait_us / 1e3, row.queue_wait_us / 1e3,
                      row.spill_us / 1e3, row.steal_us / 1e3,
                      row.other_us / 1e3, row.total_us / 1e3,
                      100.0 * std::max(0.0, row.Coverage()));
        out += line;
      };
      for (const PhaseBreakdown& row : per_worker) {
        emit(row, "w" + std::to_string(row.worker));
      }
      for (const PhaseBreakdown& row : per_comper) {
        emit(row, "w" + std::to_string(row.worker) + ".c" +
                      std::to_string(row.comper));
      }
    }
    if (!stragglers.empty()) {
      out += "  top tasks by compute:\n";
      std::snprintf(line, sizeof(line), "    %-14s %-14s %6s %6s %6s %12s\n",
                    "task", "parent", "worker", "comper", "iters",
                    "compute_ms");
      out += line;
      for (const Straggler& s : stragglers) {
        std::snprintf(line, sizeof(line),
                      "    %-14llu %-14llu %6d %6d %6lld %12.1f\n",
                      static_cast<unsigned long long>(s.task_id),
                      static_cast<unsigned long long>(s.parent_task_id),
                      s.worker, s.comper, static_cast<long long>(s.iterations),
                      s.compute_us / 1e3);
        out += line;
      }
    }
    return out;
  }
};

namespace internal_phase {

/// Extracts the comper index from a registry key's label suffix
/// ("phase.compute_us{comper=3}" -> 3); -1 when there is none.
inline int ComperFromKey(const std::string& key) {
  const size_t pos = key.find("{comper=");
  if (pos == std::string::npos) return -1;
  return std::atoi(key.c_str() + pos + 8);
}

/// Extracts the worker index from a snapshot scope ("worker3" -> 3);
/// -1 for non-worker scopes ("hub").
inline int WorkerFromScope(const std::string& scope) {
  if (scope.rfind("worker", 0) != 0 || scope.size() <= 6) return -1;
  return std::atoi(scope.c_str() + 6);
}

}  // namespace internal_phase

/// Aggregates the per-comper phase counters (recorded by the comper loops,
/// see ComperEngine) and worker-level steal timing into the
/// breakdown, and mines span events for the straggler table. Rows appear
/// only for scopes that carry phase counters (worker registries do; the
/// hub's does not).
inline PhaseProfile BuildPhaseProfile(
    const std::vector<MetricsSnapshot>& metrics,
    const std::vector<SpanEvent>& spans, size_t top_k = 8) {
  PhaseProfile profile;
  for (const MetricsSnapshot& snap : metrics) {
    const int worker = internal_phase::WorkerFromScope(snap.scope);
    if (worker < 0) continue;
    std::map<int, PhaseBreakdown> compers;
    int64_t worker_steal_us = 0;
    for (const auto& [key, value] : snap.counters) {
      if (key.rfind("phase.", 0) != 0) continue;
      if (key.rfind("phase.steal_us", 0) == 0) {
        worker_steal_us += value;
        continue;
      }
      const int comper = internal_phase::ComperFromKey(key);
      PhaseBreakdown& row = compers[comper];
      row.worker = worker;
      row.comper = comper;
      if (key.rfind("phase.compute_us", 0) == 0) {
        row.compute_us = value;
      } else if (key.rfind("phase.pull_wait_us", 0) == 0) {
        row.pull_wait_us = value;
      } else if (key.rfind("phase.queue_wait_us", 0) == 0) {
        row.queue_wait_us = value;
      } else if (key.rfind("phase.spill_us", 0) == 0) {
        row.spill_us = value;
      } else if (key.rfind("phase.loop_us", 0) == 0) {
        row.total_us = value;
      }
    }
    if (compers.empty() && worker_steal_us == 0) continue;
    PhaseBreakdown worker_row;
    worker_row.worker = worker;
    for (auto& [comper, row] : compers) {
      // Disjoint timers truncate downward independently, so the named sum
      // can undershoot (never legitimately overshoot) the loop total; the
      // remainder is unattributed loop overhead.
      row.other_us = std::max<int64_t>(0, row.total_us - row.NamedSum());
      worker_row.compute_us += row.compute_us;
      worker_row.pull_wait_us += row.pull_wait_us;
      worker_row.queue_wait_us += row.queue_wait_us;
      worker_row.spill_us += row.spill_us;
      worker_row.other_us += row.other_us;
      worker_row.total_us += row.total_us;
      profile.per_comper.push_back(row);
    }
    // The comm thread's donation packing runs beside the comper loops; fold
    // it into the worker row as its own named part of the worker total.
    worker_row.steal_us = worker_steal_us;
    worker_row.total_us += worker_steal_us;
    profile.per_worker.push_back(worker_row);
  }
  std::sort(profile.per_worker.begin(), profile.per_worker.end(),
            [](const PhaseBreakdown& a, const PhaseBreakdown& b) {
              return a.worker < b.worker;
            });
  std::sort(profile.per_comper.begin(), profile.per_comper.end(),
            [](const PhaseBreakdown& a, const PhaseBreakdown& b) {
              return a.worker != b.worker ? a.worker < b.worker
                                          : a.comper < b.comper;
            });

  // Straggler table: per-task compute from execute spans, lineage from the
  // spawn events' parent links. Requires span tracing; empty otherwise.
  struct TaskAgg {
    int64_t compute_us = 0;
    int64_t iterations = 0;
    int worker = -1;
    int comper = -1;
    uint64_t parent = 0;
  };
  std::unordered_map<uint64_t, TaskAgg> by_task;
  for (const SpanEvent& e : spans) {
    if (e.id == 0) continue;
    if (e.kind == EventKind::kExecute) {
      TaskAgg& agg = by_task[e.id];
      agg.compute_us += e.dur_us;
      ++agg.iterations;
      agg.worker = e.worker;
      agg.comper = e.comper;
    } else if (e.parent != 0 && e.kind == EventKind::kSpawn) {
      by_task[e.id].parent = e.parent;
    }
  }
  std::vector<Straggler> all;
  all.reserve(by_task.size());
  for (const auto& [task_id, agg] : by_task) {
    if (agg.compute_us <= 0) continue;
    Straggler s;
    s.task_id = task_id;
    s.parent_task_id = agg.parent;
    s.worker = agg.worker;
    s.comper = agg.comper;
    s.compute_us = agg.compute_us;
    s.iterations = agg.iterations;
    all.push_back(s);
  }
  std::sort(all.begin(), all.end(), [](const Straggler& a, const Straggler& b) {
    return a.compute_us != b.compute_us ? a.compute_us > b.compute_us
                                        : a.task_id < b.task_id;
  });
  if (all.size() > top_k) all.resize(top_k);
  profile.stragglers = std::move(all);
  return profile;
}

}  // namespace gthinker::obs

#endif  // GTHINKER_OBS_PHASE_PROFILE_H_
