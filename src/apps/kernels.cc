#include "apps/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <queue>
#include <utility>

#include "apps/kernel_simd.h"
#include "util/logging.h"

namespace gthinker {

namespace {

bool RowContains(const NbrSpan& row, int32_t x) {
  return std::binary_search(row.begin(), row.end(), x);
}

/// Turns per-vertex counts in (*offsets)[1..n] into CSR row starts.
void PrefixSum(std::vector<uint32_t>* offsets) {
  for (size_t i = 1; i < offsets->size(); ++i) {
    (*offsets)[i] += (*offsets)[i - 1];
  }
}

/// Builds the CSR rows of CompactFromRows. Output row i is the ascending,
/// duplicate-free set of members that i's row names or whose rows name i:
/// task subgraphs often carry trimmed (Γ_>) lists, where each edge appears
/// in one endpoint's list only.
///
/// Each row is walked against the ID-sorted members with the adaptive
/// merge/gallop, so a long row gallops over the few members instead of
/// probing an index once per entry, and the symmetric CSR comes out of two
/// transposes with counting passes — no per-row vectors, no sorts.
void BuildCompactCsr(const std::vector<const Vertex<AdjList>*>& members,
                     std::vector<VertexId>* ids,
                     std::vector<uint32_t>* offsets,
                     std::vector<int32_t>* nbrs) {
  const size_t n = members.size();
  std::vector<std::pair<VertexId, int32_t>> by_id(n);
  ids->resize(n);
  for (size_t k = 0; k < n; ++k) {
    (*ids)[k] = members[k]->id;
    by_id[k] = {members[k]->id, static_cast<int32_t>(k)};
  }
  std::sort(by_id.begin(), by_id.end());

  // fwd(k): the members k's row names (in ID order, not index order). Row
  // k names at most min(|row|, n) members, so that bounds its slots.
  std::vector<uint32_t> fwd_off(n + 1, 0);
  size_t bound = 0;
  for (const Vertex<AdjList>* m : members) {
    bound += std::min(m->value.size(), n);
  }
  std::vector<int32_t> fwd(bound);
  size_t nfwd = 0;
  for (size_t k = 0; k < n; ++k) {
    const AdjList& row = members[k]->value;
    const size_t len = row.size();
    if (len > 0 && n / len < simd::kGallopRatio &&
        len / n < simd::kGallopRatio) {
      // Comparable lengths merge with no branch on a match, whose outcome
      // is a coin flip on a dense task subgraph: every step writes the
      // next slot, and only a match keeps it. While the merge runs, the
      // row has fewer matches than its bound, so the write stays in it.
      size_t i = 0, j = 0;
      while (i < len && j < n) {
        const VertexId a = row[i], b = by_id[j].first;
        fwd[nfwd] = by_id[j].second;
        nfwd += a == b;
        i += a <= b;
        j += b <= a;
      }
    } else {
      simd::IntersectAdaptiveForEach(
          row.data(), len, by_id.data(), n, simd::Identity{},
          [](const std::pair<VertexId, int32_t>& p) { return p.first; },
          [&](size_t, size_t r) { fwd[nfwd++] = by_id[r].second; });
    }
    fwd_off[k + 1] = static_cast<uint32_t>(nfwd);
  }
  fwd.resize(nfwd);

  // rev(t) = {k : t ∈ fwd(k)}, the transpose of fwd.
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

  // Row s holds t iff s ∈ fwd(t) ∪ rev(t). Visiting t ascending and
  // appending t to each such row fills every row in ascending order; an
  // edge named by both endpoints reaches its rows twice in one visit, and
  // the second copy is skipped.
  const auto for_each_edge = [&](auto&& emit) {
    for (size_t t = 0; t < n; ++t) {
      const auto tt = static_cast<int32_t>(t);
      for (uint32_t e = rev_off[t]; e < rev_off[t + 1]; ++e) emit(rev[e], tt);
      for (uint32_t e = fwd_off[t]; e < fwd_off[t + 1]; ++e) emit(fwd[e], tt);
    }
  };
  offsets->assign(n + 1, 0);
  std::vector<int32_t> last(n, -1);
  for_each_edge([&](int32_t s, int32_t t) {
    if (last[s] == t) return;
    last[s] = t;
    ++(*offsets)[s + 1];
  });
  PrefixSum(offsets);
  nbrs->resize(offsets->back());
  cursor.assign(offsets->begin(), offsets->end() - 1);
  for_each_edge([&](int32_t s, int32_t t) {
    uint32_t& c = cursor[s];
    if (c > (*offsets)[s] && (*nbrs)[c - 1] == t) return;
    (*nbrs)[c++] = t;
  });
}

std::atomic<int> g_kernel_bitset_max_vertices{2048};

/// True when the dense bitset kernels should run on an n-vertex compact
/// graph (n fits under the configured BitMatrix cap).
bool UseBitsetKernels(int n) {
  return n > 0 &&
         n <= g_kernel_bitset_max_vertices.load(std::memory_order_relaxed);
}

/// Fills `m` with the adjacency of `g` (both directions).
void BuildBitMatrix(const CompactGraph& g, simd::BitMatrix* m) {
  m->Reset(g.NumVertices());
  for (int v = 0; v < g.NumVertices(); ++v) {
    for (int32_t u : g.Neigh(v)) m->Set(v, u);
  }
}

}  // namespace

int KernelBitsetMaxVertices() {
  return g_kernel_bitset_max_vertices.load(std::memory_order_relaxed);
}

void SetKernelBitsetMaxVertices(int n) {
  g_kernel_bitset_max_vertices.store(std::max(0, n),
                                     std::memory_order_relaxed);
}

bool CompactGraph::HasEdge(int a, int b) const {
  if (Degree(a) > Degree(b)) std::swap(a, b);
  return RowContains(Neigh(a), static_cast<int32_t>(b));
}

CompactGraph CompactFromSubgraph(const Subgraph<Vertex<AdjList>>& g) {
  std::vector<const Vertex<AdjList>*> rows;
  rows.reserve(g.NumVertices());
  for (const Vertex<AdjList>& v : g.vertices()) rows.push_back(&v);
  return CompactFromRows(rows);
}

CompactGraph CompactFromRows(const std::vector<const Vertex<AdjList>*>& rows) {
  CompactGraph out;
  BuildCompactCsr(rows, &out.ids, &out.offsets, &out.nbrs);
  return out;
}

CompactGraph CompactFromGraph(const Graph& g) {
  CompactGraph out;
  const VertexId n = g.NumVertices();
  out.ids.resize(n);
  out.offsets.resize(n + 1);
  out.offsets[0] = 0;
  for (VertexId v = 0; v < n; ++v) {
    out.ids[v] = v;
    out.offsets[v + 1] = out.offsets[v] + g.Degree(v);
  }
  out.nbrs.resize(out.offsets[n]);
  for (VertexId v = 0; v < n; ++v) {
    // Graph adjacency is sorted and VertexId order == compact order here.
    const AdjList& adj = g.Neighbors(v);
    std::copy(adj.begin(), adj.end(), out.nbrs.begin() + out.offsets[v]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Maximum clique: Tomita-style branch and bound with greedy coloring bounds.
// Two interchangeable engines: the BBMC bitset form for compact graphs under
// the bitset threshold, and the CSR sorted-list form above it.
// ---------------------------------------------------------------------------

namespace {

class CliqueSearcher {
 public:
  CliqueSearcher(const CompactGraph& g, size_t lower_bound)
      : g_(g), best_size_(lower_bound) {}

  std::vector<VertexId> Run() {
    std::vector<int> candidates(g_.NumVertices());
    for (int i = 0; i < g_.NumVertices(); ++i) candidates[i] = i;
    // Highest-degree-first root ordering makes the first coloring tighter.
    std::sort(candidates.begin(), candidates.end(), [this](int a, int b) {
      return g_.Degree(a) > g_.Degree(b);
    });
    Expand(candidates);
    std::vector<VertexId> out;
    out.reserve(best_.size());
    for (int v : best_) out.push_back(g_.ids[v]);
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  /// Greedy coloring: vertices of `p` are placed into the first color class
  /// containing none of their neighbors; the class index + 1 upper-bounds the
  /// clique size within the processed prefix.
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
    order->clear();
    bound->clear();
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
      if (r_.size() + bound[i] <= best_size_) return;  // color-bound cut
      const int v = order[i];
      r_.push_back(v);
      std::vector<int> next;
      next.reserve(i);
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

/// BBMC: the same branch and bound with vertices renumbered into degree-
/// descending order and every set held as a bitset, so coloring and
/// candidate refinement run word-parallel (64 vertices per AND).
class BitCliqueSearcher {
 public:
  BitCliqueSearcher(const CompactGraph& g, size_t lower_bound)
      : g_(g), n_(g.NumVertices()), best_size_(lower_bound) {
    perm_.resize(n_);
    for (int i = 0; i < n_; ++i) perm_[i] = i;
    std::sort(perm_.begin(), perm_.end(), [&g](int a, int b) {
      return g.Degree(a) > g.Degree(b);
    });
    std::vector<int> inv(n_);
    for (int i = 0; i < n_; ++i) inv[perm_[i]] = i;
    adj_.Reset(n_);
    for (int v = 0; v < n_; ++v) {
      for (int32_t u : g.Neigh(v)) adj_.Set(inv[v], inv[u]);
    }
    words_ = adj_.row_words();
  }

  std::vector<VertexId> Run() {
    // Recursion depth is bounded by n_, so one scratch frame per depth keeps
    // the whole search allocation-free after warm-up.
    stack_.resize(static_cast<size_t>(n_) + 1);
    Frame& root = stack_[0];
    root.p.assign(words_, 0);
    for (int i = 0; i < n_; ++i) SetBit(&root.p, i);
    Expand(0);
    std::vector<VertexId> out;
    out.reserve(best_.size());
    for (int v : best_) out.push_back(g_.ids[perm_[v]]);
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  /// Per-depth scratch: the candidate set plus the coloring buffers, reused
  /// across every visit of that depth.
  struct Frame {
    std::vector<uint64_t> p;
    std::vector<uint64_t> next;
    std::vector<uint64_t> uncolored;
    std::vector<int> order;
    std::vector<int> bound;
  };

  static void SetBit(std::vector<uint64_t>* bits, int v) {
    (*bits)[static_cast<size_t>(v) >> 6] |= uint64_t{1} << (v & 63);
  }
  static void ClearBit(std::vector<uint64_t>* bits, int v) {
    (*bits)[static_cast<size_t>(v) >> 6] &= ~(uint64_t{1} << (v & 63));
  }

  /// Bitset greedy coloring: peel one independent-set color class at a time
  /// by repeatedly taking the first remaining vertex and masking out its
  /// neighborhood with one AND-NOT sweep. Uses f's scratch buffers; on
  /// return f.order/f.bound hold the color-sorted candidates.
  void ColorSort(Frame* f) {
    f->order.clear();
    f->bound.clear();
    f->uncolored = f->p;
    f->next.assign(words_, 0);  // doubles as the current class's queue
    std::vector<uint64_t>& q = f->next;
    int color = 0;
    while (simd::WordsAny(f->uncolored.data(), words_)) {
      ++color;
      q = f->uncolored;
      for (size_t w = 0; w < words_; ++w) {
        while (q[w] != 0) {
          const int v = static_cast<int>(w * 64) + simd::Ctz64(q[w]);
          ClearBit(&q, v);
          ClearBit(&f->uncolored, v);
          // Nothing adjacent to v may join this class; bits below v are
          // already decided, so masking the whole row is safe.
          simd::WordsAndNotInto(q.data(), adj_.Row(v), words_, q.data());
          f->order.push_back(v);
          f->bound.push_back(color);
        }
      }
    }
  }

  void Expand(size_t depth) {
    Frame& f = stack_[depth];
    ColorSort(&f);
    Frame& child = stack_[depth + 1];
    for (int i = static_cast<int>(f.order.size()) - 1; i >= 0; --i) {
      if (r_.size() + f.bound[i] <= best_size_) return;  // color-bound cut
      const int v = f.order[i];
      ClearBit(&f.p, v);  // p now holds exactly order[0..i-1]
      child.p.resize(words_);
      simd::WordsAndInto(f.p.data(), adj_.Row(v), words_, child.p.data());
      r_.push_back(v);
      if (!simd::WordsAny(child.p.data(), words_)) {
        if (r_.size() > best_size_) {
          best_size_ = r_.size();
          best_ = r_;
        }
      } else {
        Expand(depth + 1);
      }
      r_.pop_back();
    }
  }

  const CompactGraph& g_;
  const int n_;
  std::vector<int> perm_;
  simd::BitMatrix adj_;
  size_t words_ = 0;
  size_t best_size_;
  std::vector<int> r_;
  std::vector<int> best_;
  std::vector<Frame> stack_;
};

}  // namespace

std::vector<VertexId> MaxCliqueInCompact(const CompactGraph& g,
                                         size_t lower_bound) {
  if (UseBitsetKernels(g.NumVertices())) {
    return BitCliqueSearcher(g, lower_bound).Run();
  }
  return CliqueSearcher(g, lower_bound).Run();
}

std::vector<VertexId> MaxCliqueSerial(const Graph& g) {
  return MaxCliqueInCompact(CompactFromGraph(g), 0);
}

// ---------------------------------------------------------------------------
// Maximal clique enumeration.
// ---------------------------------------------------------------------------

namespace {

/// Bron–Kerbosch with pivoting over sorted compact-index sets (CSR form,
/// used above the bitset threshold). P stays sorted throughout, so the
/// P-refinement is an adaptive sorted intersection with Γ(v).
class MaximalCliqueCounter {
 public:
  explicit MaximalCliqueCounter(const CompactGraph& g) : g_(g) {}

  uint64_t CountFrom(int root) {
    count_ = 0;
    std::vector<int32_t> p, x;
    // Order candidates/exclusions by original ID relative to the root.
    for (int32_t u : g_.Neigh(root)) {
      if (g_.ids[u] > g_.ids[root]) {
        p.push_back(u);
      } else {
        x.push_back(u);
      }
    }
    Recurse(p, x);
    return count_;
  }

  /// Top-level branches [begin, end) only, pivot-free at the top so the
  /// branches partition the count exactly: branch i moves candidates before
  /// it into X, fixing order[i] as the second member of every clique found
  /// under it. Inner levels still run the pivoted Recurse.
  uint64_t CountFromRange(int root, uint64_t begin, uint64_t end,
                          const std::function<bool()>& yield,
                          uint64_t* next) {
    count_ = 0;
    std::vector<int32_t> order, x;
    for (int32_t u : g_.Neigh(root)) {
      if (g_.ids[u] > g_.ids[root]) {
        order.push_back(u);
      } else {
        x.push_back(u);
      }
    }
    std::sort(order.begin(), order.end(), [this](int32_t a, int32_t b) {
      return g_.ids[a] < g_.ids[b];
    });
    const uint64_t n = order.size();
    if (end > n) end = n;
    *next = end;
    if (begin == 0 && n == 0 && x.empty()) ++count_;  // {root} is maximal
    // Candidates skipped by the range act as exclusions: a clique whose
    // second member precedes the range belongs to an earlier shard.
    for (uint64_t j = 0; j < begin && j < n; ++j) x.push_back(order[j]);
    std::vector<int32_t> np, nx;
    for (uint64_t i = begin; i < end; ++i) {
      if (i > begin && yield && yield()) {
        *next = i;
        return count_;
      }
      const int32_t v = order[i];
      const NbrSpan row = g_.Neigh(v);
      np.clear();
      for (uint64_t j = i + 1; j < n; ++j) {
        if (RowContains(row, order[j])) np.push_back(order[j]);
      }
      // Recurse intersects sorted index sets; re-sort the ID-ordered tail.
      std::sort(np.begin(), np.end());
      nx.clear();
      for (int32_t u : x) {
        if (RowContains(row, u)) nx.push_back(u);
      }
      Recurse(np, nx);
      x.push_back(v);
    }
    return count_;
  }

 private:
  void Recurse(std::vector<int32_t> p, std::vector<int32_t> x) {
    if (p.empty() && x.empty()) {
      ++count_;
      return;
    }
    // Pivot: the vertex of P ∪ X covering the most of P.
    int32_t pivot = -1;
    uint64_t best_cover = 0;
    for (const std::vector<int32_t>* side : {&p, &x}) {
      for (int32_t u : *side) {
        const NbrSpan row = g_.Neigh(u);
        const uint64_t cover = simd::IntersectAdaptive(
            p.data(), p.size(), row.begin(), static_cast<size_t>(row.size()));
        if (pivot < 0 || cover > best_cover) {
          pivot = u;
          best_cover = cover;
        }
      }
    }
    const NbrSpan pivot_row = g_.Neigh(pivot);
    std::vector<int32_t> candidates;
    for (int32_t v : p) {
      if (!RowContains(pivot_row, v)) candidates.push_back(v);
    }
    std::vector<int32_t> np, nx;
    for (int32_t v : candidates) {
      const NbrSpan row = g_.Neigh(v);
      np.clear();
      simd::IntersectAdaptiveInto(p.data(), p.size(), row.begin(),
                                  static_cast<size_t>(row.size()), &np);
      nx.clear();
      for (int32_t u : x) {
        if (RowContains(row, u)) nx.push_back(u);
      }
      Recurse(np, nx);
      p.erase(std::find(p.begin(), p.end(), v));
      x.push_back(v);
    }
  }

  const CompactGraph& g_;
  uint64_t count_ = 0;
};

/// Bitset Bron–Kerbosch: P and X are word vectors, pivot cover is an
/// AND+popcount against the pivot's adjacency row, and the P/X refinement
/// per candidate is two word-wise ANDs.
class BitMaximalCliqueCounter {
 public:
  explicit BitMaximalCliqueCounter(const CompactGraph& g) : g_(g) {
    BuildBitMatrix(g, &adj_);
    words_ = adj_.row_words();
  }

  uint64_t CountFrom(int root) {
    std::vector<uint64_t> p(words_, 0), x(words_, 0);
    for (int32_t u : g_.Neigh(root)) {
      auto* side = g_.ids[u] > g_.ids[root] ? &p : &x;
      (*side)[static_cast<size_t>(u) >> 6] |= uint64_t{1} << (u & 63);
    }
    return Recurse(p, x);
  }

  /// Word-set mirror of MaximalCliqueCounter::CountFromRange: same pivot-
  /// free top level over the ID-sorted candidate order, same partition.
  uint64_t CountFromRange(int root, uint64_t begin, uint64_t end,
                          const std::function<bool()>& yield,
                          uint64_t* next) {
    std::vector<uint64_t> p(words_, 0), x(words_, 0);
    std::vector<int32_t> order;
    for (int32_t u : g_.Neigh(root)) {
      if (g_.ids[u] > g_.ids[root]) {
        order.push_back(u);
        p[static_cast<size_t>(u) >> 6] |= uint64_t{1} << (u & 63);
      } else {
        x[static_cast<size_t>(u) >> 6] |= uint64_t{1} << (u & 63);
      }
    }
    std::sort(order.begin(), order.end(), [this](int32_t a, int32_t b) {
      return g_.ids[a] < g_.ids[b];
    });
    const uint64_t n = order.size();
    if (end > n) end = n;
    *next = end;
    uint64_t count = 0;
    if (begin == 0 && n == 0 && !simd::WordsAny(x.data(), words_)) {
      ++count;  // {root} is maximal
    }
    for (uint64_t j = 0; j < begin && j < n; ++j) {
      const int32_t u = order[j];
      p[static_cast<size_t>(u) >> 6] &= ~(uint64_t{1} << (u & 63));
      x[static_cast<size_t>(u) >> 6] |= uint64_t{1} << (u & 63);
    }
    std::vector<uint64_t> np(words_), nx(words_);
    for (uint64_t i = begin; i < end; ++i) {
      if (i > begin && yield && yield()) {
        *next = i;
        return count;
      }
      const int32_t v = order[i];
      simd::WordsAndInto(p.data(), adj_.Row(v), words_, np.data());
      simd::WordsAndInto(x.data(), adj_.Row(v), words_, nx.data());
      count += Recurse(np, nx);
      p[static_cast<size_t>(v) >> 6] &= ~(uint64_t{1} << (v & 63));
      x[static_cast<size_t>(v) >> 6] |= uint64_t{1} << (v & 63);
    }
    return count;
  }

 private:
  uint64_t Recurse(std::vector<uint64_t> p, std::vector<uint64_t> x) {
    if (!simd::WordsAny(p.data(), words_) &&
        !simd::WordsAny(x.data(), words_)) {
      return 1;
    }
    int pivot = -1;
    uint64_t best_cover = 0;
    const auto consider = [&](int u) {
      const uint64_t cover =
          simd::WordsAndCount(p.data(), adj_.Row(u), words_);
      if (pivot < 0 || cover > best_cover) {
        pivot = u;
        best_cover = cover;
      }
    };
    simd::ForEachBit(p.data(), words_, consider);
    simd::ForEachBit(x.data(), words_, consider);
    std::vector<uint64_t> cand(words_);
    simd::WordsAndNotInto(p.data(), adj_.Row(pivot), words_, cand.data());
    uint64_t count = 0;
    std::vector<uint64_t> np(words_), nx(words_);
    simd::ForEachBit(cand.data(), words_, [&](int v) {
      simd::WordsAndInto(p.data(), adj_.Row(v), words_, np.data());
      simd::WordsAndInto(x.data(), adj_.Row(v), words_, nx.data());
      count += Recurse(np, nx);
      p[static_cast<size_t>(v) >> 6] &= ~(uint64_t{1} << (v & 63));
      x[static_cast<size_t>(v) >> 6] |= uint64_t{1} << (v & 63);
    });
    return count;
  }

  const CompactGraph& g_;
  simd::BitMatrix adj_;
  size_t words_ = 0;
};

}  // namespace

uint64_t CountMaximalCliquesFromRoot(const CompactGraph& g, int root) {
  if (UseBitsetKernels(g.NumVertices())) {
    return BitMaximalCliqueCounter(g).CountFrom(root);
  }
  return MaximalCliqueCounter(g).CountFrom(root);
}

uint64_t LargerIdNeighbors(const CompactGraph& g, int root) {
  uint64_t n = 0;
  for (int32_t u : g.Neigh(root)) {
    if (g.ids[u] > g.ids[root]) ++n;
  }
  return n;
}

uint64_t LargerIdVertices(const CompactGraph& g, int root) {
  uint64_t n = 0;
  for (int v = 0; v < g.NumVertices(); ++v) {
    if (g.ids[v] > g.ids[root]) ++n;
  }
  return n;
}

uint64_t CountMaximalCliquesFromRootRange(const CompactGraph& g, int root,
                                          uint64_t begin, uint64_t end,
                                          const std::function<bool()>& yield,
                                          uint64_t* next) {
  if (UseBitsetKernels(g.NumVertices())) {
    return BitMaximalCliqueCounter(g).CountFromRange(root, begin, end, yield,
                                                     next);
  }
  return MaximalCliqueCounter(g).CountFromRange(root, begin, end, yield,
                                                next);
}

uint64_t CountMaximalCliquesSerial(const Graph& g) {
  const CompactGraph cg = CompactFromGraph(g);
  uint64_t total = 0;
  if (UseBitsetKernels(cg.NumVertices())) {
    BitMaximalCliqueCounter counter(cg);  // share the matrix across roots
    for (int v = 0; v < cg.NumVertices(); ++v) total += counter.CountFrom(v);
    return total;
  }
  for (int v = 0; v < cg.NumVertices(); ++v) {
    total += CountMaximalCliquesFromRoot(cg, v);
  }
  // Isolated vertices are maximal cliques of size 1 but have no adjacency
  // to recurse over — CountFrom finds them via the empty P/X base case, so
  // nothing extra is needed here.
  return total;
}

// ---------------------------------------------------------------------------
// k-clique counting.
// ---------------------------------------------------------------------------

namespace {

/// cands must be sorted ascending by compact index (the DAG orientation):
/// each recursion level picks the next-larger member, so every k-clique is
/// generated exactly once.
uint64_t CountCliquesRec(const CompactGraph& g,
                         const std::vector<int32_t>& cands, int remaining) {
  if (remaining == 0) return 1;
  if (static_cast<int>(cands.size()) < remaining) return 0;
  if (remaining == 1) return cands.size();
  uint64_t count = 0;
  std::vector<int32_t> next;
  for (size_t i = 0; i < cands.size(); ++i) {
    const int32_t v = cands[i];
    const NbrSpan row = g.Neigh(v);
    next.clear();
    // cands[i+1..] are all > v, so intersecting with the full row keeps
    // exactly the larger adjacent candidates.
    simd::IntersectAdaptiveInto(cands.data() + i + 1, cands.size() - i - 1,
                                row.begin(), static_cast<size_t>(row.size()),
                                &next);
    count += CountCliquesRec(g, next, remaining - 1);
  }
  return count;
}

/// Word-parallel kClist: directed adjacency rows hold only the larger
/// (compact-index) endpoints, so `cands & dir_row(v)` is the next Γ_>
/// candidate set in one AND sweep, and the two innermost levels collapse
/// to popcounts.
class BitKCliqueCounter {
 public:
  explicit BitKCliqueCounter(const CompactGraph& g) {
    const int n = g.NumVertices();
    dir_.Reset(n);
    for (int v = 0; v < n; ++v) {
      for (int32_t u : g.Neigh(v)) {
        if (u > v) dir_.Set(v, u);
      }
    }
    words_ = dir_.row_words();
  }

  uint64_t Count(int n, int k) {
    std::vector<uint64_t> all(words_, 0);
    for (int i = 0; i < n; ++i) {
      all[static_cast<size_t>(i) >> 6] |= uint64_t{1} << (i & 63);
    }
    return Recurse(all, k);
  }

  // Exposed for the range kernel's custom top level.
  size_t words() const { return words_; }
  const uint64_t* Row(int v) const { return dir_.Row(v); }
  uint64_t RecurseOn(const std::vector<uint64_t>& cands, int remaining) {
    return Recurse(cands, remaining);
  }

 private:
  uint64_t Recurse(const std::vector<uint64_t>& cands, int remaining) {
    if (remaining == 1) return simd::WordsCount(cands.data(), words_);
    uint64_t count = 0;
    std::vector<uint64_t> next(words_);
    simd::ForEachBit(cands.data(), words_, [&](int v) {
      if (remaining == 2) {
        count += simd::WordsAndCount(cands.data(), dir_.Row(v), words_);
        return;
      }
      simd::WordsAndInto(cands.data(), dir_.Row(v), words_, next.data());
      if (simd::WordsCount(next.data(), words_) >=
          static_cast<uint64_t>(remaining - 1)) {
        count += Recurse(next, remaining - 1);
      }
    });
    return count;
  }

  simd::BitMatrix dir_;
  size_t words_ = 0;
};

}  // namespace

uint64_t CountCliquesOfSize(const CompactGraph& g, int k) {
  GT_CHECK_GE(k, 1);
  const int n = g.NumVertices();
  if (UseBitsetKernels(n)) return BitKCliqueCounter(g).Count(n, k);
  std::vector<int32_t> all(n);
  for (int i = 0; i < n; ++i) all[i] = i;
  return CountCliquesRec(g, all, k);
}

uint64_t CountCliquesFromRootRange(const CompactGraph& g, int root, int k,
                                   uint64_t begin, uint64_t end,
                                   const std::function<bool()>& yield,
                                   uint64_t* next) {
  GT_CHECK_GE(k, 1);
  // Candidate order: root's larger-ID neighbors ascending by original ID.
  // Branch i fixes order[i] as the smallest non-root member; the remaining
  // k-2 members come from the later candidates adjacent to it, so branches
  // partition the k-cliques rooted at `root` exactly.
  std::vector<int32_t> order;
  for (int32_t u : g.Neigh(root)) {
    if (g.ids[u] > g.ids[root]) order.push_back(u);
  }
  std::sort(order.begin(), order.end(),
            [&g](int32_t a, int32_t b) { return g.ids[a] < g.ids[b]; });
  const uint64_t n = order.size();
  if (end > n) end = n;
  *next = end;
  if (k == 1) return (begin == 0) ? 1 : 0;  // {root} itself
  if (k == 2) return end - begin;           // root + one candidate
  uint64_t count = 0;
  if (UseBitsetKernels(g.NumVertices())) {
    BitKCliqueCounter counter(g);
    const size_t words = counter.words();
    std::vector<uint64_t> cands(words, 0);
    for (int32_t u : order) {
      cands[static_cast<size_t>(u) >> 6] |= uint64_t{1} << (u & 63);
    }
    std::vector<uint64_t> sub(words);
    for (uint64_t i = begin; i < end; ++i) {
      if (i > begin && yield && yield()) {
        *next = i;
        return count;
      }
      const int32_t v = order[i];
      // dir rows keep only larger compact indices; candidate order is ID
      // order, and the two coincide for CompactFromSubgraph/Graph inputs
      // (the documented precondition of the k-clique kernels).
      if (k == 3) {
        count += simd::WordsAndCount(cands.data(), counter.Row(v), words);
        continue;
      }
      simd::WordsAndInto(cands.data(), counter.Row(v), words, sub.data());
      count += counter.RecurseOn(sub, k - 2);
    }
    return count;
  }
  std::vector<int32_t> sub;
  for (uint64_t i = begin; i < end; ++i) {
    if (i > begin && yield && yield()) {
      *next = i;
      return count;
    }
    const int32_t v = order[i];
    const NbrSpan row = g.Neigh(v);
    sub.clear();
    for (uint64_t j = i + 1; j < n; ++j) {
      if (RowContains(row, order[j])) sub.push_back(order[j]);
    }
    std::sort(sub.begin(), sub.end());  // Rec wants index-sorted sets
    count += CountCliquesRec(g, sub, k - 2);
  }
  return count;
}

uint64_t CountKCliquesSerial(const Graph& g, int k) {
  return CountCliquesOfSize(CompactFromGraph(g), k);
}

// ---------------------------------------------------------------------------
// Triangles.
// ---------------------------------------------------------------------------

uint64_t CountTrianglesSerial(const Graph& g) {
  uint64_t total = 0;
  const VertexId n = g.NumVertices();
  simd::HitBits<VertexId> bits;
  for (VertexId v = 0; v < n; ++v) {
    const auto [vb, ve] = g.GreaterRange(v);
    const size_t nv = static_cast<size_t>(ve - vb);
    if (nv < 2) continue;  // Γ_>(v) ∩ Γ_>(u) ⊆ Γ_>(v) \ {u} is empty
    // Γ_>(v) is intersected against every one of its members: amortize a
    // bitmap build over the nv probes when that beats per-pair merges.
    const size_t domain = static_cast<size_t>(vb[nv - 1]) + 1;
    const bool use_bits = simd::HitBitsWorthwhile(nv, domain, nv);
    if (use_bits) bits.Build(vb, nv);
    for (const VertexId* u = vb; u != ve; ++u) {
      const auto [ub, ue] = g.GreaterRange(*u);
      if (use_bits) {
        total += bits.CountHits(ub, static_cast<size_t>(ue - ub));
      } else {
        total += simd::IntersectAdaptive(vb, nv, ub,
                                         static_cast<size_t>(ue - ub));
      }
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Subgraph matching.
// ---------------------------------------------------------------------------

bool QueryGraph::HasEdge(int a, int b) const {
  for (int u : adj[a]) {
    if (u == b) return true;
  }
  return false;
}

int QueryGraph::DepthFromRoot() const {
  std::vector<int> dist(NumVertices(), -1);
  std::queue<int> queue;
  dist[0] = 0;
  queue.push(0);
  int depth = 0;
  while (!queue.empty()) {
    const int v = queue.front();
    queue.pop();
    depth = std::max(depth, dist[v]);
    for (int u : adj[v]) {
      if (dist[u] < 0) {
        dist[u] = dist[v] + 1;
        queue.push(u);
      }
    }
  }
  return depth;
}

bool QueryGraph::UsesLabel(Label label) const {
  for (Label l : labels) {
    if (l == label) return true;
  }
  return false;
}

bool QueryGraph::IsValidPlan() const {
  for (int i = 1; i < NumVertices(); ++i) {
    bool backward = false;
    for (int u : adj[i]) {
      if (u < i) {
        backward = true;
        break;
      }
    }
    if (!backward) return false;
  }
  return true;
}

QueryGraph QueryGraph::Triangle(Label a, Label b, Label c) {
  QueryGraph q;
  q.labels = {a, b, c};
  q.adj = {{1, 2}, {0, 2}, {0, 1}};
  return q;
}

QueryGraph QueryGraph::Path3(Label a, Label b, Label c) {
  QueryGraph q;
  q.labels = {a, b, c};
  q.adj = {{1}, {0, 2}, {1}};
  return q;
}

QueryGraph QueryGraph::Star(Label center, const std::vector<Label>& leaves) {
  QueryGraph q;
  q.labels.push_back(center);
  q.adj.emplace_back();
  for (size_t i = 0; i < leaves.size(); ++i) {
    q.labels.push_back(leaves[i]);
    q.adj[0].push_back(static_cast<int>(i) + 1);
    q.adj.push_back({0});
  }
  return q;
}

namespace {

/// What the matcher reads of a labeled member vertex: its row, whose
/// entries carry the neighbor's label inline. The row sources below differ
/// only in Find.
struct LabeledVertexRows {
  using Member = const Vertex<LabeledAdj>*;
  using Entry = LabeledNbr;
  struct Key {
    VertexId operator()(const LabeledNbr& e) const { return e.id; }
  };

  Label EntryLabel(const LabeledNbr& e) const { return e.label; }
  Label MemberLabel(Member m) const { return m->value.label; }
  VertexId IdOf(Member m) const { return m->id; }
  const std::vector<LabeledNbr>& Row(Member m) const { return m->value.adj; }
};

/// Matcher row source over a task subgraph: a member is its vertex.
struct SubgraphRows : LabeledVertexRows {
  const Subgraph<Vertex<LabeledAdj>>& g;

  bool Find(VertexId id, Member* m) const {
    *m = g.GetVertex(id);
    return *m != nullptr;
  }
};

/// Matcher row source over the vertices one root pulled, read where they
/// lie: a member is the root or one of `nbrs`, which ascend by ID.
struct PulledRows : LabeledVertexRows {
  const Vertex<LabeledAdj>& root;
  const std::vector<const Vertex<LabeledAdj>*>& nbrs;

  bool Find(VertexId id, Member* m) const {
    if (id == root.id) {
      *m = &root;
      return true;
    }
    const auto it = std::lower_bound(
        nbrs.begin(), nbrs.end(), id,
        [](Member a, VertexId b) { return a->id < b; });
    if (it == nbrs.end() || (*it)->id != id) return false;
    *m = *it;
    return true;
  }
};

/// Matcher row source over a whole graph: every vertex is a member, and
/// labels come from the side array.
struct GraphRows {
  using Member = VertexId;
  using Entry = VertexId;
  using Key = simd::Identity;

  const Graph& g;
  const std::vector<Label>& labels;

  Label EntryLabel(VertexId v) const { return labels[v]; }
  Label MemberLabel(VertexId v) const { return labels[v]; }
  VertexId IdOf(VertexId v) const { return v; }
  const AdjList& Row(VertexId v) const { return g.Neighbors(v); }
  bool Find(VertexId id, VertexId* m) const {
    *m = id;
    return true;
  }
};

/// Generic-join matcher: extends a partial embedding by intersecting the
/// sorted rows of the already-mapped vertices. Query vertex i's candidates
/// are the entries labeled q.labels[i] in the shortest row among i's mapped
/// backward neighbors, narrowed in place against each other backward
/// neighbor's row. Only the survivors are checked against the mapped IDs
/// (a scan over at most |Q|) and looked up as members, so the search reads
/// just the rows the query needs. Candidate buffers are per depth and
/// reused, so Extend allocates nothing after warm-up.
template <typename Rows>
class RowMatcher {
 public:
  using Member = typename Rows::Member;
  using Entry = typename Rows::Entry;

  RowMatcher(Rows rows, const QueryGraph& q)
      : rows_(rows),
        q_(q),
        back_(q.NumVertices()),
        cands_(q.NumVertices()),
        members_(q.NumVertices()),
        ids_(q.NumVertices()) {
    GT_CHECK(q.IsValidPlan()) << "query plan not left-connected";
    for (int i = 1; i < q.NumVertices(); ++i) {
      for (int u : q.adj[i]) {
        if (u < i) back_[i].push_back(u);
      }
    }
  }

  uint64_t CountFrom(Member root) {
    if (rows_.MemberLabel(root) != q_.labels[0]) return 0;
    members_[0] = root;
    ids_[0] = rows_.IdOf(root);
    return Extend(1);
  }

 private:
  uint64_t Extend(int qi) {
    if (qi == q_.NumVertices()) return 1;
    const std::vector<int>& back = back_[qi];
    int anchor = back[0];
    for (int u : back) {
      if (rows_.Row(members_[u]).size() <
          rows_.Row(members_[anchor]).size()) {
        anchor = u;
      }
    }
    std::vector<Entry>& cand = cands_[qi];
    cand.clear();
    for (const Entry& e : rows_.Row(members_[anchor])) {
      if (rows_.EntryLabel(e) == q_.labels[qi]) cand.push_back(e);
    }
    const typename Rows::Key key;
    for (int u : back) {
      if (u == anchor) continue;
      const auto& row = rows_.Row(members_[u]);
      // Matches arrive ascending, so the write index trails the read index.
      size_t kept = 0;
      simd::IntersectAdaptiveForEach(
          cand.data(), cand.size(), row.data(), row.size(), key, key,
          [&cand, &kept](size_t i, size_t) { cand[kept++] = cand[i]; });
      cand.resize(kept);
    }
    const auto mapped_end = ids_.begin() + qi;
    uint64_t count = 0;
    for (const Entry& e : cand) {
      const VertexId id = key(e);
      if (std::find(ids_.begin(), mapped_end, id) != mapped_end) continue;
      if (!rows_.Find(id, &members_[qi])) continue;
      ids_[qi] = id;
      count += Extend(qi + 1);
    }
    return count;
  }

  const Rows rows_;
  const QueryGraph& q_;
  std::vector<std::vector<int>> back_;  // back_[i]: i's neighbors j < i
  std::vector<std::vector<Entry>> cands_;
  std::vector<Member> members_;
  std::vector<VertexId> ids_;
};

}  // namespace

uint64_t CountMatchesFromRoot(const Subgraph<Vertex<LabeledAdj>>& g,
                              const QueryGraph& q, VertexId root) {
  const Vertex<LabeledAdj>* r = g.GetVertex(root);
  GT_CHECK(r != nullptr) << "match root " << root << " is not a member";
  return RowMatcher<SubgraphRows>(SubgraphRows{{}, g}, q).CountFrom(r);
}

uint64_t CountMatchesFromPulledRows(
    const Vertex<LabeledAdj>& root,
    const std::vector<const Vertex<LabeledAdj>*>& nbrs, const QueryGraph& q) {
  return RowMatcher<PulledRows>(PulledRows{{}, root, nbrs}, q).CountFrom(&root);
}

uint64_t CountMatchesSerial(const Graph& g, const std::vector<Label>& labels,
                            const QueryGraph& q) {
  RowMatcher<GraphRows> matcher(GraphRows{g, labels}, q);
  uint64_t total = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) total += matcher.CountFrom(v);
  return total;
}

// ---------------------------------------------------------------------------
// γ-quasi-cliques.
// ---------------------------------------------------------------------------

bool IsQuasiClique(const CompactGraph& g, const std::vector<int>& s,
                   double gamma) {
  if (s.size() <= 1) return true;
  const double need = gamma * static_cast<double>(s.size() - 1) - 1e-9;
  for (int v : s) {
    int deg = 0;
    for (int u : s) {
      if (u != v && g.HasEdge(v, u)) ++deg;
    }
    if (static_cast<double>(deg) < need) return false;
  }
  return true;
}

namespace {

class QuasiCliqueSearcher {
 public:
  QuasiCliqueSearcher(const CompactGraph& g, double gamma, size_t min_size)
      : g_(g), gamma_(gamma), min_size_(min_size) {
    GT_CHECK_GE(gamma, 0.5);
    GT_CHECK_GE(min_size, 2u);
    if (UseBitsetKernels(g.NumVertices())) {
      BuildBitMatrix(g, &adj_bits_);
      words_ = adj_bits_.row_words();
    }
  }

  /// Set-enumeration over candidates in ascending original-ID order, so that
  /// each quasi-clique is discovered exactly once (from its smallest member).
  std::vector<VertexId> RunFrom(int root) {
    best_.clear();
    floor_ = 0;
    s_ = {root};
    std::vector<int> ext;
    for (int v = 0; v < g_.NumVertices(); ++v) {
      if (g_.ids[v] > g_.ids[root]) ext.push_back(v);
    }
    std::sort(ext.begin(), ext.end(),
              [this](int a, int b) { return g_.ids[a] < g_.ids[b]; });
    Expand(ext);
    std::vector<VertexId> out;
    for (int v : best_) out.push_back(g_.ids[v]);
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Top-level branches [begin, end) only: branch i commits ext[i] as the
  /// second-smallest member and searches the later candidates. `lower_bound`
  /// seeds the branch-and-bound floor, so shards resumed with the best size
  /// found so far prune as hard as the unsharded search would; only results
  /// strictly larger than the floor are returned.
  std::vector<VertexId> RunFromRange(int root, size_t lower_bound,
                                     uint64_t begin, uint64_t end,
                                     const std::function<bool()>& yield,
                                     uint64_t* next) {
    best_.clear();
    floor_ = lower_bound;
    s_ = {root};
    std::vector<int> ext;
    for (int v = 0; v < g_.NumVertices(); ++v) {
      if (g_.ids[v] > g_.ids[root]) ext.push_back(v);
    }
    std::sort(ext.begin(), ext.end(),
              [this](int a, int b) { return g_.ids[a] < g_.ids[b]; });
    const uint64_t n = ext.size();
    if (end > n) end = n;
    *next = end;
    for (uint64_t i = begin; i < end; ++i) {
      if (i > begin && yield && yield()) {
        *next = i;
        break;
      }
      s_.push_back(ext[i]);
      Expand(std::vector<int>(ext.begin() + static_cast<int64_t>(i) + 1,
                              ext.end()));
      s_.pop_back();
    }
    std::vector<VertexId> out;
    for (int v : best_) out.push_back(g_.ids[v]);
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  /// Adjacency probe hoisted out of the inner loops: one bitset row test
  /// under the threshold, a CSR binary search above it (the pre-CSR code
  /// re-ran a binary search per pair from inside HasEdge either way).
  bool Adjacent(int a, int b) const {
    if (words_ > 0) return adj_bits_.Test(a, b);
    return g_.HasEdge(a, b);
  }

  /// Degree of v into S ∪ ext (the best it can ever achieve here).
  int PotentialDegree(int v, const std::vector<int>& ext) const {
    int deg = 0;
    for (int u : s_) {
      if (u != v && Adjacent(v, u)) ++deg;
    }
    for (int u : ext) {
      if (u != v && Adjacent(v, u)) ++deg;
    }
    return deg;
  }

  /// dist_G(a, b) <= 2: adjacent or sharing a neighbor. Since a γ>=0.5
  /// quasi-clique induces a subgraph of diameter <= 2 (ref [17]), any two
  /// members are within 2 hops in G, which makes this a sound pairwise
  /// pruning rule for prefixes and candidates alike. Word-parallel when the
  /// bit rows exist: any common neighbor is one AND sweep with early exit.
  bool Within2Hops(int a, int b) const {
    if (Adjacent(a, b)) return true;
    if (words_ > 0) {
      return simd::WordsAnyCommon(adj_bits_.Row(a), adj_bits_.Row(b), words_);
    }
    const NbrSpan na = g_.Neigh(a);
    const NbrSpan nb = g_.Neigh(b);
    return simd::AnyCommonSorted(na.begin(), static_cast<size_t>(na.size()),
                                 nb.begin(), static_cast<size_t>(nb.size()));
  }

  /// IsQuasiClique over the current S through the hoisted adjacency probe.
  bool CurrentIsQuasiClique() const {
    if (s_.size() <= 1) return true;
    const double need = gamma_ * static_cast<double>(s_.size() - 1) - 1e-9;
    for (int v : s_) {
      int deg = 0;
      for (int u : s_) {
        if (u != v && Adjacent(v, u)) ++deg;
      }
      if (static_cast<double>(deg) < need) return false;
    }
    return true;
  }

  /// Best size the search still has to beat: the largest member set found
  /// in this run, or the externally seeded floor (range shards).
  size_t BestFloor() const { return std::max(best_.size(), floor_); }

  void Expand(const std::vector<int>& ext) {
    if (s_.size() >= min_size_ && s_.size() > BestFloor() &&
        CurrentIsQuasiClique()) {
      best_ = s_;
    }
    // Only strictly-better quasi-cliques are interesting from here on.
    const size_t target = std::max(min_size_, BestFloor() + 1);
    if (s_.size() + ext.size() < target) {
      return;  // even taking every candidate cannot beat the record
    }
    // Global size cap from member degrees: a final S' of size m needs every
    // member to have >= γ(m-1) neighbors inside S', which is at most its
    // degree into S ∪ ext. A member capping m below the target kills the
    // branch.
    const double need = gamma_ * static_cast<double>(target - 1) - 1e-9;
    for (int v : s_) {
      if (static_cast<double>(PotentialDegree(v, ext)) < need) return;
    }
    std::vector<int> pruned;
    pruned.reserve(ext.size());
    for (int v : ext) {
      if (static_cast<double>(PotentialDegree(v, ext)) < need) continue;
      bool near_all = true;
      for (int u : s_) {
        if (!Within2Hops(u, v)) {
          near_all = false;
          break;
        }
      }
      if (near_all) pruned.push_back(v);
    }
    for (size_t i = 0; i < pruned.size(); ++i) {
      s_.push_back(pruned[i]);
      std::vector<int> next(pruned.begin() + i + 1, pruned.end());
      Expand(next);
      s_.pop_back();
    }
  }

  const CompactGraph& g_;
  const double gamma_;
  const size_t min_size_;
  simd::BitMatrix adj_bits_;
  size_t words_ = 0;
  size_t floor_ = 0;
  std::vector<int> s_;
  std::vector<int> best_;
};

}  // namespace

std::vector<VertexId> LargestQuasiCliqueFromRoot(const CompactGraph& g,
                                                 int root, double gamma,
                                                 size_t min_size) {
  return QuasiCliqueSearcher(g, gamma, min_size).RunFrom(root);
}

std::vector<VertexId> LargestQuasiCliqueFromRootRange(
    const CompactGraph& g, int root, double gamma, size_t min_size,
    size_t lower_bound, uint64_t begin, uint64_t end,
    const std::function<bool()>& yield, uint64_t* next) {
  return QuasiCliqueSearcher(g, gamma, min_size)
      .RunFromRange(root, lower_bound, begin, end, yield, next);
}

std::vector<VertexId> LargestQuasiCliqueSerial(const Graph& g, double gamma,
                                               size_t min_size) {
  const CompactGraph cg = CompactFromGraph(g);
  std::vector<VertexId> best;
  for (int v = 0; v < cg.NumVertices(); ++v) {
    std::vector<VertexId> found =
        LargestQuasiCliqueFromRoot(cg, v, gamma, min_size);
    if (found.size() > best.size()) best = std::move(found);
  }
  return best;
}

}  // namespace gthinker
