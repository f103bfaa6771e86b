#ifndef GTHINKER_OBS_PROMETHEUS_H_
#define GTHINKER_OBS_PROMETHEUS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace gthinker::obs {

/// Prometheus text exposition (format version 0.0.4) rendered straight from
/// `MetricsSnapshot`s, dependency-free. Naming conventions:
///   - every metric is prefixed `gthinker_` and dots become underscores
///     (`cache.lock_contention` -> `gthinker_cache_lock_contention`);
///   - counters get the conventional `_total` suffix;
///   - the snapshot scope ("worker0", "hub") becomes a `scope` label and
///     registry labels ("comper=3,kind=task-batch") become ordinary labels;
///   - histograms map to cumulative `_bucket{le="..."}` series using the
///     power-of-2 bucket upper bounds, plus `_sum` and `_count`.

/// Sanitizes a registry metric name into a legal Prometheus metric name
/// ([a-zA-Z0-9_:]) with the library prefix.
inline std::string PrometheusName(const std::string& raw) {
  std::string out = "gthinker_";
  out.reserve(out.size() + raw.size());
  for (char c : raw) {
    const bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(legal ? c : '_');
  }
  return out;
}

/// Escapes a label value per the exposition format: backslash, double quote
/// and newline must be backslash-escaped.
inline std::string PrometheusEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Parses a registry label suffix "k=v,k2=v2" into pairs. A token without
/// '=' keeps the whole token as the value under the key "label".
inline std::vector<std::pair<std::string, std::string>> ParseRegistryLabels(
    const std::string& labels) {
  std::vector<std::pair<std::string, std::string>> out;
  size_t start = 0;
  while (start <= labels.size() && !labels.empty()) {
    size_t end = labels.find(',', start);
    if (end == std::string::npos) end = labels.size();
    const std::string token = labels.substr(start, end - start);
    if (!token.empty()) {
      const size_t eq = token.find('=');
      if (eq == std::string::npos) {
        out.emplace_back("label", token);
      } else {
        out.emplace_back(token.substr(0, eq), token.substr(eq + 1));
      }
    }
    if (end == labels.size()) break;
    start = end + 1;
  }
  return out;
}

/// Splits a snapshot key "name{labels}" (see MetricsRegistry::Key) back into
/// its parts.
inline void SplitMetricKey(const std::string& key, std::string* name,
                           std::string* labels) {
  const size_t brace = key.find('{');
  if (brace == std::string::npos) {
    *name = key;
    labels->clear();
    return;
  }
  *name = key.substr(0, brace);
  const size_t close = key.rfind('}');
  *labels = key.substr(brace + 1,
                       close == std::string::npos ? std::string::npos
                                                  : close - brace - 1);
}

/// Renders the `{scope="...",k="v",...}` label block (always non-empty:
/// scope is always present). `extra` appends one final label (used for le).
inline std::string PrometheusLabelBlock(
    const std::string& scope,
    const std::vector<std::pair<std::string, std::string>>& labels,
    const std::string& extra_key = "", const std::string& extra_value = "") {
  std::string out = "{scope=\"" + PrometheusEscape(scope) + "\"";
  for (const auto& [k, v] : labels) {
    out += "," + PrometheusName(k).substr(9) /* strip gthinker_ prefix */ +
           "=\"" + PrometheusEscape(v) + "\"";
  }
  if (!extra_key.empty()) {
    out += "," + extra_key + "=\"" + PrometheusEscape(extra_value) + "\"";
  }
  out += "}";
  return out;
}

/// Renders a full scrape body from per-scope snapshots. All series of one
/// metric family are grouped under a single `# TYPE` line, families are
/// emitted in sorted order, so output is deterministic given the snapshots.
inline std::string RenderPrometheus(
    const std::vector<MetricsSnapshot>& snapshots) {
  struct Family {
    std::string type;
    std::vector<std::string> lines;
  };
  std::map<std::string, Family> families;
  auto family = [&families](const std::string& name,
                            const char* type) -> Family& {
    Family& f = families[name];
    if (f.type.empty()) f.type = type;
    return f;
  };

  char buf[64];
  std::string name, labels;
  for (const MetricsSnapshot& snap : snapshots) {
    for (const auto& [key, value] : snap.counters) {
      SplitMetricKey(key, &name, &labels);
      const std::string fam = PrometheusName(name) + "_total";
      std::snprintf(buf, sizeof(buf), " %lld",
                    static_cast<long long>(value));
      family(fam, "counter")
          .lines.push_back(
              fam + PrometheusLabelBlock(snap.scope, ParseRegistryLabels(labels)) +
              buf);
    }
    for (const auto& [key, value] : snap.gauges) {
      SplitMetricKey(key, &name, &labels);
      const std::string fam = PrometheusName(name);
      std::snprintf(buf, sizeof(buf), " %lld",
                    static_cast<long long>(value));
      family(fam, "gauge")
          .lines.push_back(
              fam + PrometheusLabelBlock(snap.scope, ParseRegistryLabels(labels)) +
              buf);
    }
    for (const HistogramSnapshot& h : snap.histograms) {
      const std::string fam = PrometheusName(h.name);
      Family& f = family(fam, "histogram");
      const auto parsed = ParseRegistryLabels(h.labels);
      // Cumulative buckets; empty power-of-2 buckets are skipped (legal —
      // bucket series are cumulative so any subset of boundaries is valid),
      // the mandatory +Inf bucket always closes the series.
      int64_t cumulative = 0;
      for (size_t i = 0; i < h.buckets.size(); ++i) {
        if (h.buckets[i] == 0) continue;
        cumulative += h.buckets[i];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(
                          HistogramSnapshot::BucketUpperBound(i)));
        f.lines.push_back(fam + "_bucket" +
                          PrometheusLabelBlock(snap.scope, parsed, "le", buf) +
                          " " + std::to_string(cumulative));
      }
      f.lines.push_back(fam + "_bucket" +
                        PrometheusLabelBlock(snap.scope, parsed, "le", "+Inf") +
                        " " + std::to_string(h.count));
      f.lines.push_back(fam + "_sum" + PrometheusLabelBlock(snap.scope, parsed) +
                        " " + std::to_string(h.sum));
      f.lines.push_back(fam + "_count" +
                        PrometheusLabelBlock(snap.scope, parsed) + " " +
                        std::to_string(h.count));
    }
  }

  std::string out;
  for (const auto& [fam, f] : families) {
    out += "# TYPE " + fam + " " + f.type + "\n";
    for (const std::string& line : f.lines) {
      out += line;
      out.push_back('\n');
    }
  }
  return out;
}

/// Structural lint of a rendered scrape body, used by tests and available to
/// callers that want a self-check: every line must be a comment or a
/// `name{labels} value` sample with balanced quotes/braces, every histogram
/// family must close with a `le="+Inf"` bucket, and `_bucket` series must be
/// cumulative (non-decreasing within a family).
inline Status PrometheusLint(const std::string& body) {
  auto is_name_char = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == ':';
  };
  size_t pos = 0;
  int line_no = 0;
  std::string current_hist_family;
  bool saw_inf = true;
  int64_t last_bucket = -1;
  std::string last_bucket_scope;
  while (pos < body.size()) {
    ++line_no;
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) {
      return Status::Corruption("line " + std::to_string(line_no) +
                                ": missing trailing newline");
    }
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // New TYPE block: if we were inside a histogram family, it must have
      // been closed by +Inf buckets.
      if (!saw_inf) {
        return Status::Corruption("histogram " + current_hist_family +
                                  " missing le=\"+Inf\" bucket");
      }
      if (line.rfind("# TYPE ", 0) == 0 &&
          line.find(" histogram") != std::string::npos) {
        current_hist_family = line.substr(7, line.find(' ', 7) - 7);
        saw_inf = false;
        last_bucket = -1;
        last_bucket_scope.clear();
      } else {
        current_hist_family.clear();
      }
      continue;
    }
    // Sample line: name, optional {..}, space, value.
    size_t i = 0;
    while (i < line.size() && is_name_char(line[i])) ++i;
    if (i == 0) {
      return Status::Corruption("line " + std::to_string(line_no) +
                                ": bad metric name");
    }
    const std::string sample_name = line.substr(0, i);
    std::string label_block;
    if (i < line.size() && line[i] == '{') {
      const size_t close = line.find('}', i);
      if (close == std::string::npos) {
        return Status::Corruption("line " + std::to_string(line_no) +
                                  ": unbalanced label braces");
      }
      label_block = line.substr(i, close - i + 1);
      i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ') {
      return Status::Corruption("line " + std::to_string(line_no) +
                                ": missing value separator");
    }
    const std::string value = line.substr(i + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
      return Status::Corruption("line " + std::to_string(line_no) +
                                ": non-numeric value '" + value + "'");
    }
    if (!current_hist_family.empty() &&
        sample_name == current_hist_family + "_bucket") {
      const size_t le = label_block.find("le=\"");
      if (le == std::string::npos) {
        return Status::Corruption("line " + std::to_string(line_no) +
                                  ": bucket sample without le label");
      }
      // A new scope/label set restarts the cumulative check.
      const std::string scope_part = label_block.substr(0, le);
      if (scope_part != last_bucket_scope) {
        last_bucket = -1;
        last_bucket_scope = scope_part;
      }
      const long long v = std::strtoll(value.c_str(), nullptr, 10);
      if (v < last_bucket) {
        return Status::Corruption("line " + std::to_string(line_no) +
                                  ": non-cumulative bucket series");
      }
      last_bucket = v;
      if (label_block.find("le=\"+Inf\"") != std::string::npos) saw_inf = true;
    }
  }
  if (!saw_inf) {
    return Status::Corruption("histogram " + current_hist_family +
                              " missing le=\"+Inf\" bucket");
  }
  return Status::Ok();
}

}  // namespace gthinker::obs

#endif  // GTHINKER_OBS_PROMETHEUS_H_
