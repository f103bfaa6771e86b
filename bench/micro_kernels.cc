// Compute-kernel microbenchmarks backing the CSR/bitset kernel layer
// (BENCH_kernels.json). Each experiment times the pre-CSR reference
// implementation (kept verbatim in the `legacy` namespace below: vector-of-
// vectors compact graphs, branchy merge intersections, per-pair HasEdge in
// the recursion inner loops) against the shipping kernels from
// apps/kernels.cc, checking result equality before reporting the ratio.
//
//   tc_intersect: the triangle-count intersection loop — legacy re-allocates
//                 Γ_>(u) per edge and merges with the branchy two-pointer
//                 loop; the new path intersects in-place spans through the
//                 adaptive merge/gallop/HitBits toolkit.
//   intersect_*:  the raw intersection variants on synthetic sorted lists,
//                 balanced and skewed.
//   maxclique, kclique, maximalclique: branch-and-bound kernels, legacy vs
//                 the CSR sorted path vs the bitset path.
//   quasiclique:  bitset vs CSR sorted path (the pre-CSR code is the sorted
//                 path modulo the CSR layout), toggled through
//                 SetKernelBitsetMaxVertices.
//   compact_build: task-subgraph → CompactGraph construction, the per-entry
//                 lookup builder vs the sorted-intersection builder, on MCF-
//                 shaped tasks. Exits 1 if any CSR differs.
//   match/gm_ego: per-task labeled-triangle counting on R-MAT ego networks,
//                 the labeled compact view + backtracking matcher vs the
//                 generic-join matcher on the task's rows. Exits 1 if any
//                 task's count differs.
//   bundle_close/tc_rmat: closing TC's root bundles (the tc-rmat-inproc
//                 spawn batches, C = 150) into tasks, the comparison sort
//                 the engine used to run vs its radix close
//                 (RootBundleBuilder::Close). Exits 1 if any bundle's pulls,
//                 slots or ends differ.

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/kernel_simd.h"
#include "apps/kernels.h"
#include "apps/triangle_app.h"
#include "bench_util.h"
#include "core/root_bundle.h"
#include "core/task.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace gthinker::bench {
namespace legacy {

// ---------------------------------------------------------------------------
// Pre-CSR reference implementations, verbatim from the old kernels.cc.
// ---------------------------------------------------------------------------

uint64_t SortedIntersectionCount(const AdjList& a, const AdjList& b) {
  uint64_t count = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++count;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return count;
}

uint64_t CountTrianglesSerial(const Graph& g) {
  uint64_t total = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const AdjList gt_v = g.GreaterNeighbors(v);
    for (VertexId u : gt_v) {
      total += SortedIntersectionCount(gt_v, g.GreaterNeighbors(u));
    }
  }
  return total;
}

struct CompactGraph {
  std::vector<VertexId> ids;
  std::vector<std::vector<int>> adj;

  int NumVertices() const { return static_cast<int>(ids.size()); }
  bool HasEdge(int a, int b) const {
    const auto& row = adj[a].size() <= adj[b].size() ? adj[a] : adj[b];
    const int target = adj[a].size() <= adj[b].size() ? b : a;
    return std::binary_search(row.begin(), row.end(), target);
  }
};

CompactGraph FromGraph(const Graph& g) {
  CompactGraph out;
  const VertexId n = g.NumVertices();
  out.ids.resize(n);
  out.adj.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    out.ids[v] = v;
    out.adj[v].assign(g.Neighbors(v).begin(), g.Neighbors(v).end());
  }
  return out;
}

class CliqueSearcher {
 public:
  CliqueSearcher(const CompactGraph& g, size_t lower_bound)
      : g_(g), best_size_(lower_bound) {}

  std::vector<VertexId> Run() {
    std::vector<int> candidates(g_.NumVertices());
    for (int i = 0; i < g_.NumVertices(); ++i) candidates[i] = i;
    std::sort(candidates.begin(), candidates.end(), [this](int a, int b) {
      return g_.adj[a].size() > g_.adj[b].size();
    });
    Expand(candidates);
    std::vector<VertexId> out;
    for (int v : best_) out.push_back(g_.ids[v]);
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  void ColorSort(const std::vector<int>& p, std::vector<int>* order,
                 std::vector<int>* bound) {
    std::vector<std::vector<int>> classes;
    for (int v : p) {
      size_t c = 0;
      for (; c < classes.size(); ++c) {
        bool conflict = false;
        for (int u : classes[c]) {
          if (g_.HasEdge(v, u)) {
            conflict = true;
            break;
          }
        }
        if (!conflict) break;
      }
      if (c == classes.size()) classes.emplace_back();
      classes[c].push_back(v);
    }
    for (size_t c = 0; c < classes.size(); ++c) {
      for (int v : classes[c]) {
        order->push_back(v);
        bound->push_back(static_cast<int>(c) + 1);
      }
    }
  }

  void Expand(const std::vector<int>& p) {
    std::vector<int> order, bound;
    ColorSort(p, &order, &bound);
    for (int i = static_cast<int>(order.size()) - 1; i >= 0; --i) {
      if (r_.size() + bound[i] <= best_size_) return;
      const int v = order[i];
      r_.push_back(v);
      std::vector<int> next;
      for (int j = 0; j < i; ++j) {
        if (g_.HasEdge(v, order[j])) next.push_back(order[j]);
      }
      if (next.empty()) {
        if (r_.size() > best_size_) {
          best_size_ = r_.size();
          best_ = r_;
        }
      } else {
        Expand(next);
      }
      r_.pop_back();
    }
  }

  const CompactGraph& g_;
  size_t best_size_;
  std::vector<int> r_;
  std::vector<int> best_;
};

uint64_t CountCliquesRec(const CompactGraph& g, const std::vector<int>& cands,
                         int remaining) {
  if (remaining == 0) return 1;
  if (static_cast<int>(cands.size()) < remaining) return 0;
  if (remaining == 1) return cands.size();
  uint64_t count = 0;
  for (size_t i = 0; i < cands.size(); ++i) {
    const int v = cands[i];
    std::vector<int> next;
    for (size_t j = i + 1; j < cands.size(); ++j) {
      if (g.HasEdge(v, cands[j])) next.push_back(cands[j]);
    }
    count += CountCliquesRec(g, next, remaining - 1);
  }
  return count;
}

uint64_t CountCliquesOfSize(const CompactGraph& g, int k) {
  std::vector<int> all(g.NumVertices());
  for (int i = 0; i < g.NumVertices(); ++i) all[i] = i;
  return CountCliquesRec(g, all, k);
}

class MaximalCliqueCounter {
 public:
  explicit MaximalCliqueCounter(const CompactGraph& g) : g_(g) {}

  uint64_t CountFrom(int root) {
    count_ = 0;
    std::vector<int> p, x;
    for (int u : g_.adj[root]) {
      if (g_.ids[u] > g_.ids[root]) {
        p.push_back(u);
      } else {
        x.push_back(u);
      }
    }
    Recurse(p, x);
    return count_;
  }

 private:
  std::vector<int> IntersectAdj(const std::vector<int>& s, int v) {
    std::vector<int> out;
    for (int u : s) {
      if (g_.HasEdge(u, v)) out.push_back(u);
    }
    return out;
  }

  void Recurse(std::vector<int> p, std::vector<int> x) {
    if (p.empty() && x.empty()) {
      ++count_;
      return;
    }
    int pivot = -1;
    size_t best_cover = 0;
    for (const std::vector<int>* side : {&p, &x}) {
      for (int u : *side) {
        size_t cover = 0;
        for (int w : p) {
          if (g_.HasEdge(u, w)) ++cover;
        }
        if (pivot < 0 || cover > best_cover) {
          pivot = u;
          best_cover = cover;
        }
      }
    }
    std::vector<int> candidates;
    for (int v : p) {
      if (!g_.HasEdge(pivot, v)) candidates.push_back(v);
    }
    for (int v : candidates) {
      Recurse(IntersectAdj(p, v), IntersectAdj(x, v));
      p.erase(std::find(p.begin(), p.end(), v));
      x.push_back(v);
    }
  }

  const CompactGraph& g_;
  uint64_t count_ = 0;
};

uint64_t CountMaximalCliquesSerial(const Graph& g) {
  const CompactGraph cg = FromGraph(g);
  MaximalCliqueCounter counter(cg);
  uint64_t total = 0;
  for (int v = 0; v < cg.NumVertices(); ++v) total += counter.CountFrom(v);
  return total;
}

// ---------------------------------------------------------------------------
// The per-entry-lookup compact-view builder, verbatim from the kernels.cc
// that preceded the sorted-intersection builder.
// ---------------------------------------------------------------------------

void FlattenRows(const std::vector<std::vector<int32_t>>& rows,
                 std::vector<uint32_t>* offsets, std::vector<int32_t>* nbrs) {
  const size_t n = rows.size();
  size_t total = 0;
  for (const auto& row : rows) total += row.size();
  offsets->resize(n + 1);
  nbrs->clear();
  nbrs->reserve(total);
  for (size_t i = 0; i < n; ++i) {
    (*offsets)[i] = static_cast<uint32_t>(nbrs->size());
    nbrs->insert(nbrs->end(), rows[i].begin(), rows[i].end());
  }
  (*offsets)[n] = static_cast<uint32_t>(nbrs->size());
}

gthinker::CompactGraph CompactFromSubgraph(
    const Subgraph<Vertex<AdjList>>& g) {
  gthinker::CompactGraph out;
  out.ids.reserve(g.NumVertices());
  for (const auto& v : g.vertices()) out.ids.push_back(v.id);
  std::vector<std::pair<VertexId, int32_t>> index;
  index.reserve(out.ids.size());
  for (size_t k = 0; k < out.ids.size(); ++k) {
    index.emplace_back(out.ids[k], static_cast<int32_t>(k));
  }
  std::sort(index.begin(), index.end());
  const auto find = [&index](VertexId u) -> int32_t {
    auto it = std::lower_bound(
        index.begin(), index.end(), u,
        [](const std::pair<VertexId, int32_t>& p, VertexId x) {
          return p.first < x;
        });
    return it != index.end() && it->first == u ? it->second : -1;
  };
  std::vector<std::vector<int32_t>> rows(out.ids.size());
  int32_t i = 0;
  for (const auto& v : g.vertices()) {
    for (VertexId u : v.value) {
      const int32_t j = find(u);
      if (j >= 0) {
        rows[i].push_back(j);
        rows[j].push_back(i);
      }
    }
    ++i;
  }
  for (auto& row : rows) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  FlattenRows(rows, &out.offsets, &out.nbrs);
  return out;
}

// ---------------------------------------------------------------------------
// The GM path before matching moved onto rows, verbatim from the kernels.cc
// that preceded it: the sorted-walk labeled compact view and the
// backtracking matcher with its bitset conflict checks.
// ---------------------------------------------------------------------------

struct CompactLabeledGraph {
  std::vector<VertexId> ids;
  std::vector<Label> labels;
  std::vector<uint32_t> offsets;
  std::vector<int32_t> nbrs;

  int NumVertices() const { return static_cast<int>(ids.size()); }
  int Degree(int v) const {
    return static_cast<int>(offsets[v + 1] - offsets[v]);
  }
  NbrSpan Neigh(int v) const {
    return {nbrs.data() + offsets[v], Degree(v)};
  }
  bool HasEdge(int a, int b) const {
    if (Degree(a) > Degree(b)) std::swap(a, b);
    const NbrSpan row = Neigh(a);
    return std::binary_search(row.begin(), row.end(), static_cast<int32_t>(b));
  }
};

void PrefixSum(std::vector<uint32_t>* offsets) {
  for (size_t i = 1; i < offsets->size(); ++i) {
    (*offsets)[i] += (*offsets)[i - 1];
  }
}

CompactLabeledGraph CompactFromLabeledSubgraph(
    const Subgraph<Vertex<LabeledAdj>>& g) {
  CompactLabeledGraph out;
  const std::vector<Vertex<LabeledAdj>>& members = g.vertices();
  const size_t n = members.size();
  std::vector<std::pair<VertexId, int32_t>> by_id(n);
  out.ids.resize(n);
  for (size_t k = 0; k < n; ++k) {
    out.ids[k] = members[k].id;
    by_id[k] = {members[k].id, static_cast<int32_t>(k)};
  }
  std::sort(by_id.begin(), by_id.end());

  std::vector<uint32_t> fwd_off(n + 1, 0);
  std::vector<int32_t> fwd;
  for (size_t k = 0; k < n; ++k) {
    const std::vector<LabeledNbr>& row = members[k].value.adj;
    simd::IntersectAdaptiveForEach(
        row.data(), row.size(), by_id.data(), n,
        [](const LabeledNbr& nbr) { return nbr.id; },
        [](const std::pair<VertexId, int32_t>& p) { return p.first; },
        [&](size_t, size_t r) { fwd.push_back(by_id[r].second); });
    fwd_off[k + 1] = static_cast<uint32_t>(fwd.size());
  }

  std::vector<uint32_t> rev_off(n + 1, 0);
  for (int32_t t : fwd) ++rev_off[t + 1];
  PrefixSum(&rev_off);
  std::vector<int32_t> rev(fwd.size());
  std::vector<uint32_t> cursor(rev_off.begin(), rev_off.end() - 1);
  for (size_t k = 0; k < n; ++k) {
    for (uint32_t e = fwd_off[k]; e < fwd_off[k + 1]; ++e) {
      rev[cursor[fwd[e]]++] = static_cast<int32_t>(k);
    }
  }

  const auto for_each_edge = [&](auto&& emit) {
    for (size_t t = 0; t < n; ++t) {
      const auto tt = static_cast<int32_t>(t);
      for (uint32_t e = rev_off[t]; e < rev_off[t + 1]; ++e) emit(rev[e], tt);
      for (uint32_t e = fwd_off[t]; e < fwd_off[t + 1]; ++e) emit(fwd[e], tt);
    }
  };
  out.offsets.assign(n + 1, 0);
  std::vector<int32_t> last(n, -1);
  for_each_edge([&](int32_t s, int32_t t) {
    if (last[s] == t) return;
    last[s] = t;
    ++out.offsets[s + 1];
  });
  PrefixSum(&out.offsets);
  out.nbrs.resize(out.offsets.back());
  cursor.assign(out.offsets.begin(), out.offsets.end() - 1);
  for_each_edge([&](int32_t s, int32_t t) {
    uint32_t& c = cursor[s];
    if (c > out.offsets[s] && out.nbrs[c - 1] == t) return;
    out.nbrs[c++] = t;
  });

  out.labels.reserve(n);
  for (const auto& v : members) out.labels.push_back(v.value.label);
  return out;
}

class Matcher {
 public:
  Matcher(const CompactLabeledGraph& g, const QueryGraph& q) : g_(g), q_(q) {
    const int n = g.NumVertices();
    if (n > 0 && n <= KernelBitsetMaxVertices()) {
      adj_bits_.Reset(n);
      for (int v = 0; v < n; ++v) {
        for (int32_t u : g.Neigh(v)) adj_bits_.Set(v, u);
      }
    }
  }

  uint64_t CountFrom(int root) {
    if (g_.labels[root] != q_.labels[0]) return 0;
    mapping_.assign(q_.NumVertices(), -1);
    used_.assign(g_.NumVertices(), false);
    mapping_[0] = root;
    used_[root] = true;
    const uint64_t count = Extend(1);
    used_[root] = false;
    return count;
  }

 private:
  bool Adjacent(int a, int b) const {
    if (!adj_bits_.empty()) return adj_bits_.Test(a, b);
    return g_.HasEdge(a, b);
  }

  uint64_t Extend(int qi) {
    if (qi == q_.NumVertices()) return 1;
    int anchor = -1;
    for (int u : q_.adj[qi]) {
      if (u < qi && (anchor < 0 || g_.Degree(mapping_[u]) <
                                       g_.Degree(mapping_[anchor]))) {
        anchor = u;
      }
    }
    uint64_t count = 0;
    for (int32_t cand : g_.Neigh(mapping_[anchor])) {
      if (used_[cand] || g_.labels[cand] != q_.labels[qi]) continue;
      bool ok = true;
      for (int u : q_.adj[qi]) {
        if (u < qi && u != anchor && !Adjacent(mapping_[u], cand)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      mapping_[qi] = cand;
      used_[cand] = true;
      count += Extend(qi + 1);
      used_[cand] = false;
      mapping_[qi] = -1;
    }
    return count;
  }

  const CompactLabeledGraph& g_;
  const QueryGraph& q_;
  simd::BitMatrix adj_bits_;
  std::vector<int> mapping_;
  std::vector<bool> used_;
};

/// The root-bundle close before the radix sort: one packed (id << 32 |
/// occurrence) word per root and candidate, std::sort, then one walk that
/// dedups the pull list and writes every slot.
template <typename TaskT>
std::unique_ptr<TaskT> SortCloseBundle(const std::vector<VertexId>& ids,
                                       const std::vector<uint32_t>& ends) {
  auto task = std::make_unique<TaskT>();
  RootBundle& bundle = task->context();
  std::vector<uint64_t> keyed(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    keyed[i] = (static_cast<uint64_t>(ids[i]) << 32) | i;
  }
  std::sort(keyed.begin(), keyed.end());
  size_t distinct = 0;
  for (size_t k = 0; k < keyed.size(); ++k) {
    distinct += k == 0 || (keyed[k] >> 32) != (keyed[k - 1] >> 32);
  }
  std::vector<VertexId> pulls;
  pulls.reserve(distinct);
  bundle.slots.resize(keyed.size());
  for (uint64_t key : keyed) {
    const auto id = static_cast<VertexId>(key >> 32);
    if (pulls.empty() || pulls.back() != id) pulls.push_back(id);
    bundle.slots[key & 0xffffffffu] = static_cast<uint32_t>(pulls.size() - 1);
  }
  bundle.ends = ends;
  task->SetPulls(std::move(pulls));
  return task;
}

}  // namespace legacy

namespace {

/// Wall-time of fn()'s best run out of `reps` (short kernels; one scheduler
/// hiccup would swamp a single run). fn returns a checksum, checked equal
/// across reps.
template <typename Fn>
double BestOf(int reps, uint64_t* checksum, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    const uint64_t sum = fn();
    const double elapsed = t.ElapsedSeconds();
    if (r == 0) {
      *checksum = sum;
      best = elapsed;
    } else {
      GT_CHECK_EQ(sum, *checksum);
      best = std::min(best, elapsed);
    }
  }
  return best;
}

/// Scoped override of the process-global dense/sparse kernel switch.
class ThresholdGuard {
 public:
  explicit ThresholdGuard(int n) : saved_(KernelBitsetMaxVertices()) {
    SetKernelBitsetMaxVertices(n);
  }
  ~ThresholdGuard() { SetKernelBitsetMaxVertices(saved_); }

 private:
  const int saved_;
};

struct Variant {
  const char* name;
  double elapsed_s = 0.0;
  uint64_t checksum = 0;
};

/// Prints the variant table (speedups relative to variants[0]) and adds one
/// JSON row per variant.
void PrintAndRecord(BenchJson* json, const char* experiment,
                    const std::vector<Variant>& variants, double work_items) {
  for (const Variant& v : variants) {
    const double speedup = variants[0].elapsed_s / v.elapsed_s;
    std::printf("  %-12s %10.3f ms %10.2fx   (checksum %" PRIu64 ")\n",
                v.name, v.elapsed_s * 1e3, speedup, v.checksum);
    auto* row = json->AddRow(std::string(experiment) + "/" + v.name);
    row->numbers["elapsed_s"] = v.elapsed_s;
    row->numbers[std::string("speedup_vs_") + variants[0].name] = speedup;
    if (work_items > 0) {
      row->numbers["items_per_s"] = work_items / v.elapsed_s;
    }
  }
}

/// Order-sensitive digest of a compact view's CSR arrays.
uint64_t CsrDigest(const CompactGraph& cg) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a over 32-bit words
  const auto mix = [&h](uint64_t x) { h = (h ^ x) * 1099511628211ULL; };
  for (VertexId id : cg.ids) mix(id);
  for (uint32_t o : cg.offsets) mix(o);
  for (int32_t u : cg.nbrs) mix(static_cast<uint32_t>(u));
  return h;
}

/// Times the legacy and the shipping builder over every task subgraph and
/// records the compact_build/<shape>/{legacy,sorted} rows. Returns false,
/// naming the task, if any pair of CSRs differs.
template <typename SubgraphT, typename LegacyFn, typename SortedFn>
bool BenchCompactBuild(BenchJson* json, int reps, const std::string& shape,
                       const std::vector<SubgraphT>& tasks, uint64_t entries,
                       LegacyFn legacy_fn, SortedFn sorted_fn) {
  for (size_t t = 0; t < tasks.size(); ++t) {
    const auto want = legacy_fn(tasks[t]);
    const auto got = sorted_fn(tasks[t]);
    if (got.ids != want.ids || got.offsets != want.offsets ||
        got.nbrs != want.nbrs) {
      std::fprintf(stderr, "%s: task %zu: CSR differs from legacy\n",
                   shape.c_str(), t);
      return false;
    }
  }
  std::printf("%s: %zu tasks, %" PRIu64 " adjacency entries, best of %d\n",
              shape.c_str(), tasks.size(), entries, reps);
  const auto run = [&tasks](const auto& build) {
    uint64_t sum = 0;
    for (const SubgraphT& task : tasks) sum += CsrDigest(build(task));
    return sum;
  };
  std::vector<Variant> v{{"legacy"}, {"sorted"}};
  v[0].elapsed_s = BestOf(reps, &v[0].checksum, [&] { return run(legacy_fn); });
  v[1].elapsed_s = BestOf(reps, &v[1].checksum, [&] { return run(sorted_fn); });
  GT_CHECK_EQ(v[0].checksum, v[1].checksum);
  PrintAndRecord(json, shape.c_str(), v, static_cast<double>(entries));
  return true;
}

int Main(int argc, char** argv) {
  int reps = 5;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0) reps = std::atoi(argv[i + 1]);
  }

  BenchJson json;
  json.bench = "micro_kernels";

  // ---- triangle-count intersection loop --------------------------------
  // Hub-heavy degree distribution: exactly the skewed Γ_>(v) vs Γ_>(u)
  // shape the adaptive toolkit targets.
  {
    const Graph g = Generator::PowerLaw(30'000, 12.0, 2.3, 97);
    std::printf("tc_intersect: PowerLaw n=%u avg_deg=%.1f (%" PRIu64
                " edges), best of %d\n",
                g.NumVertices(), g.AvgDegree(), g.NumEdges(), reps);
    std::vector<Variant> v{{"legacy"}, {"new"}};
    v[0].elapsed_s = BestOf(reps, &v[0].checksum, [&] {
      return legacy::CountTrianglesSerial(g);
    });
    v[1].elapsed_s =
        BestOf(reps, &v[1].checksum, [&] { return CountTrianglesSerial(g); });
    GT_CHECK_EQ(v[0].checksum, v[1].checksum);
    PrintAndRecord(&json, "tc_intersect", v,
                   static_cast<double>(g.NumEdges()));
    json.AddRow("tc_intersect/speedup")->numbers["speedup"] =
        v[0].elapsed_s / v[1].elapsed_s;
  }

  // ---- raw intersection variants ---------------------------------------
  // Balanced (merge regime) and ~64x-skewed (gallop/bitmap regime) pairs;
  // every variant scans the same pair set and must produce the same total.
  {
    Random rng(1234);
    auto make_list = [&rng](size_t len, VertexId domain) {
      AdjList out;
      out.reserve(len);
      for (size_t i = 0; i < len; ++i) {
        out.push_back(static_cast<VertexId>(rng.Uniform(domain)));
      }
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      return out;
    };
    for (const bool skewed : {false, true}) {
      const size_t pairs = 4000;
      std::vector<std::pair<AdjList, AdjList>> inputs;
      inputs.reserve(pairs);
      for (size_t i = 0; i < pairs; ++i) {
        const size_t la =
            skewed ? 24 + rng.Uniform(16) : 300 + rng.Uniform(200);
        const size_t lb =
            skewed ? 2000 + rng.Uniform(2000) : 300 + rng.Uniform(200);
        inputs.emplace_back(make_list(la, 60'000), make_list(lb, 60'000));
      }
      const char* shape = skewed ? "intersect_skewed" : "intersect_balanced";
      std::printf("%s: %zu pairs\n", shape, pairs);
      std::vector<Variant> v{
          {"branchy"}, {"merge"}, {"gallop"}, {"adaptive"}, {"hitbits"}};
      v[0].elapsed_s = BestOf(reps, &v[0].checksum, [&] {
        uint64_t sum = 0;
        for (const auto& [a, b] : inputs) {
          sum += legacy::SortedIntersectionCount(a, b);
        }
        return sum;
      });
      v[1].elapsed_s = BestOf(reps, &v[1].checksum, [&] {
        uint64_t sum = 0;
        for (const auto& [a, b] : inputs) {
          sum += simd::IntersectCountMerge(a.data(), a.size(), b.data(),
                                           b.size());
        }
        return sum;
      });
      v[2].elapsed_s = BestOf(reps, &v[2].checksum, [&] {
        uint64_t sum = 0;
        for (const auto& [a, b] : inputs) {
          const AdjList& s = a.size() <= b.size() ? a : b;
          const AdjList& l = a.size() <= b.size() ? b : a;
          sum += simd::IntersectCountGallop(s.data(), s.size(), l.data(),
                                            l.size());
        }
        return sum;
      });
      v[3].elapsed_s = BestOf(reps, &v[3].checksum, [&] {
        uint64_t sum = 0;
        for (const auto& [a, b] : inputs) {
          sum += simd::IntersectAdaptive(a, b);
        }
        return sum;
      });
      v[4].elapsed_s = BestOf(reps, &v[4].checksum, [&] {
        uint64_t sum = 0;
        simd::HitBits<VertexId> bits;
        for (const auto& [a, b] : inputs) {
          bits.Build(b.data(), b.size());
          sum += bits.CountHits(a);
        }
        return sum;
      });
      for (size_t i = 1; i < v.size(); ++i) {
        GT_CHECK_EQ(v[i].checksum, v[0].checksum);
      }
      PrintAndRecord(&json, shape, v, static_cast<double>(pairs));
    }
  }

  // ---- max clique -------------------------------------------------------
  {
    const Graph g = Generator::ErdosRenyi(110, 3000, 11);
    const legacy::CompactGraph lcg = legacy::FromGraph(g);
    std::printf("maxclique: ER n=%u m=%" PRIu64 "\n", g.NumVertices(),
                g.NumEdges());
    std::vector<Variant> v{{"legacy"}, {"csr_sorted"}, {"bitset"}};
    v[0].elapsed_s = BestOf(reps, &v[0].checksum, [&] {
      return legacy::CliqueSearcher(lcg, 0).Run().size();
    });
    v[1].elapsed_s = BestOf(reps, &v[1].checksum, [&] {
      ThresholdGuard off(0);
      return MaxCliqueSerial(g).size();
    });
    v[2].elapsed_s = BestOf(reps, &v[2].checksum, [&] {
      ThresholdGuard on(1 << 20);
      return MaxCliqueSerial(g).size();
    });
    GT_CHECK_EQ(v[0].checksum, v[1].checksum);
    GT_CHECK_EQ(v[0].checksum, v[2].checksum);
    PrintAndRecord(&json, "maxclique", v, 0.0);
    json.AddRow("maxclique/speedup")->numbers["speedup"] =
        v[0].elapsed_s / v[2].elapsed_s;
  }

  // ---- k-clique ---------------------------------------------------------
  {
    const Graph g = Generator::ErdosRenyi(140, 2400, 13);
    const legacy::CompactGraph lcg = legacy::FromGraph(g);
    const int k = 5;
    std::printf("kclique: ER n=%u m=%" PRIu64 " k=%d\n", g.NumVertices(),
                g.NumEdges(), k);
    std::vector<Variant> v{{"legacy"}, {"csr_sorted"}, {"bitset"}};
    v[0].elapsed_s = BestOf(reps, &v[0].checksum, [&] {
      return legacy::CountCliquesOfSize(lcg, k);
    });
    v[1].elapsed_s = BestOf(reps, &v[1].checksum, [&] {
      ThresholdGuard off(0);
      return CountKCliquesSerial(g, k);
    });
    v[2].elapsed_s = BestOf(reps, &v[2].checksum, [&] {
      ThresholdGuard on(1 << 20);
      return CountKCliquesSerial(g, k);
    });
    GT_CHECK_EQ(v[0].checksum, v[1].checksum);
    GT_CHECK_EQ(v[0].checksum, v[2].checksum);
    PrintAndRecord(&json, "kclique", v, 0.0);
    json.AddRow("kclique/speedup")->numbers["speedup"] =
        v[0].elapsed_s / v[2].elapsed_s;
  }

  // ---- maximal cliques (Bron–Kerbosch) ---------------------------------
  {
    const Graph g = Generator::ErdosRenyi(160, 2100, 17);
    std::printf("maximalclique: ER n=%u m=%" PRIu64 "\n", g.NumVertices(),
                g.NumEdges());
    std::vector<Variant> v{{"legacy"}, {"csr_sorted"}, {"bitset"}};
    v[0].elapsed_s = BestOf(reps, &v[0].checksum, [&] {
      return legacy::CountMaximalCliquesSerial(g);
    });
    v[1].elapsed_s = BestOf(reps, &v[1].checksum, [&] {
      ThresholdGuard off(0);
      return CountMaximalCliquesSerial(g);
    });
    v[2].elapsed_s = BestOf(reps, &v[2].checksum, [&] {
      ThresholdGuard on(1 << 20);
      return CountMaximalCliquesSerial(g);
    });
    GT_CHECK_EQ(v[0].checksum, v[1].checksum);
    GT_CHECK_EQ(v[0].checksum, v[2].checksum);
    PrintAndRecord(&json, "maximalclique", v, 0.0);
    json.AddRow("maximalclique/speedup")->numbers["speedup"] =
        v[0].elapsed_s / v[2].elapsed_s;
  }

  // ---- quasi-clique: bitset vs CSR sorted -------------------------------
  {
    // Set-enumeration explodes combinatorially with n; this stays in the
    // regime the pre-CSR test suite used (n <= ~24).
    const Graph g = Generator::ErdosRenyi(24, 110, 19);
    std::printf("quasiclique: ER n=%u m=%" PRIu64 " gamma=0.85 min=4\n",
                g.NumVertices(), g.NumEdges());
    std::vector<Variant> v{{"csr_sorted"}, {"bitset"}};
    v[0].elapsed_s = BestOf(reps, &v[0].checksum, [&] {
      ThresholdGuard off(0);
      return LargestQuasiCliqueSerial(g, 0.85, 4).size();
    });
    v[1].elapsed_s = BestOf(reps, &v[1].checksum, [&] {
      ThresholdGuard on(1 << 20);
      return LargestQuasiCliqueSerial(g, 0.85, 4).size();
    });
    GT_CHECK_EQ(v[0].checksum, v[1].checksum);
    PrintAndRecord(&json, "quasiclique", v, 0.0);
    json.AddRow("quasiclique/speedup")->numbers["speedup"] =
        v[0].elapsed_s / v[1].elapsed_s;
  }
  // ---- compact-view construction: per-entry lookup vs sorted walk -------
  // MCF shape: ext(S)-induced subgraphs whose Γ_> rows were already filtered
  // to members, in ascending order.
  {
    const Graph g = Generator::Rmat(13, 50'000, 1);
    std::vector<Subgraph<Vertex<AdjList>>> tasks;
    uint64_t entries = 0;
    for (VertexId root = 0; root < g.NumVertices(); ++root) {
      const AdjList ext = g.GreaterNeighbors(root);
      if (ext.size() < 2) continue;
      Subgraph<Vertex<AdjList>>& task = tasks.emplace_back();
      for (VertexId u : ext) {
        const AdjList gt = g.GreaterNeighbors(u);
        Vertex<AdjList> nu;
        nu.id = u;
        std::set_intersection(gt.begin(), gt.end(), ext.begin(), ext.end(),
                              std::back_inserter(nu.value));
        entries += nu.value.size();
        task.AddVertex(std::move(nu));
      }
    }
    if (!BenchCompactBuild(&json, reps, "compact_build/mcf_trimmed", tasks,
                           entries, legacy::CompactFromSubgraph,
                           CompactFromSubgraph)) {
      return 1;
    }
  }

  // ---- GM matching: compact view + backtracking vs rows -----------------
  // The gm-rmat-evict tasks: R-MAT scale 13, 4 labels, a labeled-triangle
  // query, one task per root labeled like query vertex 0, holding the root
  // and its neighbors with TrimByQuery rows. Rows mostly name non-members,
  // and a hub's row dwarfs the member list.
  {
    const Graph g = Generator::Rmat(13, 110'000, 1);
    const auto labels = Generator::RandomLabels(g.NumVertices(), 4, 2);
    const QueryGraph q = QueryGraph::Triangle(0, 1, 2);
    const auto trimmed = [&](VertexId v) {
      Vertex<LabeledAdj> out;
      out.id = v;
      out.value.label = labels[v];
      for (VertexId u : g.Neighbors(v)) {
        if (q.UsesLabel(labels[u])) out.value.adj.push_back({u, labels[u]});
      }
      return out;
    };
    std::vector<Subgraph<Vertex<LabeledAdj>>> tasks;
    uint64_t entries = 0;
    for (VertexId root = 0; root < g.NumVertices(); ++root) {
      if (labels[root] != q.labels[0]) continue;
      const Vertex<LabeledAdj> r = trimmed(root);
      if (r.value.adj.empty()) continue;
      Subgraph<Vertex<LabeledAdj>>& task = tasks.emplace_back();
      task.AddVertex(r);
      for (const LabeledNbr& nbr : r.value.adj) task.AddVertex(trimmed(nbr.id));
      for (const auto& v : task.vertices()) entries += v.value.adj.size();
    }
    const auto compact = [&q](const Subgraph<Vertex<LabeledAdj>>& task) {
      const legacy::CompactLabeledGraph cg =
          legacy::CompactFromLabeledSubgraph(task);
      return legacy::Matcher(cg, q).CountFrom(0);
    };
    const auto rows = [&q](const Subgraph<Vertex<LabeledAdj>>& task) {
      return CountMatchesFromRoot(task, q, task.vertices()[0].id);
    };
    for (size_t t = 0; t < tasks.size(); ++t) {
      if (compact(tasks[t]) != rows(tasks[t])) {
        std::fprintf(stderr, "match/gm_ego: task %zu: count differs\n", t);
        return 1;
      }
    }
    std::printf("match/gm_ego: %zu tasks, %" PRIu64
                " adjacency entries, best of %d\n",
                tasks.size(), entries, reps);
    const auto run = [&tasks](const auto& count) {
      uint64_t sum = 0;
      for (const auto& task : tasks) sum += count(task);
      return sum;
    };
    std::vector<Variant> v{{"compact"}, {"rows"}};
    v[0].elapsed_s = BestOf(reps, &v[0].checksum, [&] { return run(compact); });
    v[1].elapsed_s = BestOf(reps, &v[1].checksum, [&] { return run(rows); });
    GT_CHECK_EQ(v[0].checksum, v[1].checksum);
    PrintAndRecord(&json, "match/gm_ego", v,
                   static_cast<double>(tasks.size()));
  }

  // ---- root-bundle close: comparison sort vs radix ---------------------
  // TC's spawn batches on the tc-rmat-inproc graph: C = 150 vertices a
  // batch, and each vertex with two or more Γ_> neighbors a root that pulls
  // itself and them. Both variants flatten a batch and close it into a task.
  {
    using BundleTask = Task<AdjList, RootBundle>;
    constexpr VertexId kBatch = 150;
    const Graph g = Generator::Rmat(13, 110'000, 1);
    std::vector<std::vector<Vertex<AdjList>>> batches;
    uint64_t occurrences = 0;
    for (VertexId first = 0; first < g.NumVertices(); first += kBatch) {
      std::vector<Vertex<AdjList>>& batch = batches.emplace_back();
      for (VertexId v = first; v < std::min(first + kBatch, g.NumVertices());
           ++v) {
        Vertex<AdjList> root{v, g.Neighbors(v)};
        TrimToGreater(root);
        if (root.value.size() < 2) continue;
        occurrences += 1 + root.value.size();
        batch.push_back(std::move(root));
      }
    }
    const auto digest = [](const BundleTask& task) {
      uint64_t h = 1469598103934665603ULL;  // FNV-1a over 32-bit words
      const auto mix = [&h](uint64_t x) { h = (h ^ x) * 1099511628211ULL; };
      for (VertexId id : task.pulls()) mix(id);
      for (uint32_t slot : task.context().slots) mix(slot);
      for (uint32_t end : task.context().ends) mix(end);
      return h;
    };
    const auto sort_close = [](const std::vector<Vertex<AdjList>>& batch) {
      std::vector<VertexId> ids;
      std::vector<uint32_t> ends;
      for (const Vertex<AdjList>& root : batch) {
        ids.push_back(root.id);
        ids.insert(ids.end(), root.value.begin(), root.value.end());
        ends.push_back(static_cast<uint32_t>(ids.size()));
      }
      return legacy::SortCloseBundle<BundleTask>(ids, ends);
    };
    RootBundleBuilder builder;
    const auto radix_close = [&](const std::vector<Vertex<AdjList>>& batch) {
      for (const Vertex<AdjList>& root : batch) {
        builder.Add(root.id, root.value);
      }
      return builder.Close<BundleTask>();
    };
    for (size_t b = 0; b < batches.size(); ++b) {
      if (digest(*sort_close(batches[b])) != digest(*radix_close(batches[b]))) {
        std::fprintf(stderr, "bundle_close/tc_rmat: bundle %zu differs\n", b);
        return 1;
      }
    }
    std::printf("bundle_close/tc_rmat: %zu bundles, %" PRIu64
                " occurrences, best of %d\n",
                batches.size(), occurrences, reps);
    const auto run = [&](const auto& close) {
      uint64_t sum = 0;
      for (const auto& batch : batches) sum += digest(*close(batch));
      return sum;
    };
    std::vector<Variant> v{{"sort"}, {"radix"}};
    v[0].elapsed_s =
        BestOf(reps, &v[0].checksum, [&] { return run(sort_close); });
    v[1].elapsed_s =
        BestOf(reps, &v[1].checksum, [&] { return run(radix_close); });
    GT_CHECK_EQ(v[0].checksum, v[1].checksum);
    PrintAndRecord(&json, "bundle_close/tc_rmat", v,
                   static_cast<double>(occurrences));
  }

  const Status s = json.WriteTo(JsonPathArg(argc, argv));
  if (!s.ok()) {
    std::fprintf(stderr, "json write failed: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace gthinker::bench

int main(int argc, char** argv) { return gthinker::bench::Main(argc, argv); }
