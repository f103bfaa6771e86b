#include "baselines/gminer_apps.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <unordered_set>

#include "apps/kernel_simd.h"
#include "core/subgraph.h"
#include "core/vertex.h"
#include "util/logging.h"
#include "util/serializer.h"

namespace gthinker::baselines {

namespace {

AdjList GreaterOf(const AdjList& adj, VertexId v) {
  auto it = std::upper_bound(adj.begin(), adj.end(), v);
  return AdjList(it, adj.end());
}

}  // namespace

// ---------------------------------------------------------------------------
// Triangle counting.
// ---------------------------------------------------------------------------

GMinerTcResult GMinerTriangleCount(const Graph& graph,
                                   const GMinerEngine::Options& opts) {
  GMinerEngine engine;
  std::atomic<uint64_t> triangles{0};

  auto spawn = [](VertexId v, const AdjList& adj,
                  std::vector<GMinerEngine::TaskRec>* out) {
    AdjList gt = GreaterOf(adj, v);
    if (gt.size() < 2) return;
    GMinerEngine::TaskRec task;
    task.pulls = std::move(gt);  // root's Γ_> doubles as the candidate set
    out->push_back(std::move(task));
  };

  auto compute = [&triangles](GMinerEngine::TaskRec& task,
                              const std::vector<AdjList>& frontier,
                              std::vector<GMinerEngine::TaskRec>*) {
    const AdjList& root_gt = task.pulls;
    uint64_t local = 0;
    // Reuse one membership bitmap of Γ_>(root) across the whole frontier;
    // probe each Γ_>(u) in place instead of copying it out first.
    simd::HitBits<VertexId> bits;
    const size_t domain =
        root_gt.empty() ? 0 : static_cast<size_t>(root_gt.back()) + 1;
    const bool use_bits =
        simd::HitBitsWorthwhile(root_gt.size(), domain, frontier.size());
    if (use_bits) bits.Build(root_gt.data(), root_gt.size());
    for (size_t i = 0; i < frontier.size(); ++i) {
      const AdjList& adj = frontier[i];
      auto it = std::upper_bound(adj.begin(), adj.end(), task.pulls[i]);
      const VertexId* u_gt = adj.data() + (it - adj.begin());
      const size_t u_len = static_cast<size_t>(adj.end() - it);
      local += use_bits
                   ? bits.CountHits(u_gt, u_len)
                   : simd::IntersectAdaptive(root_gt.data(), root_gt.size(),
                                             u_gt, u_len);
    }
    if (local > 0) triangles.fetch_add(local, std::memory_order_relaxed);
  };

  GMinerTcResult out;
  out.stats = engine.Run(graph, spawn, compute, opts);
  out.triangles = triangles.load();
  return out;
}

// ---------------------------------------------------------------------------
// Maximum clique.
// ---------------------------------------------------------------------------

namespace {

using CliqueSubgraph = Subgraph<Vertex<AdjList>>;

std::string EncodeMcfPayload(const std::vector<VertexId>& s,
                             const CliqueSubgraph* g) {
  Serializer ser;
  ser.Write<uint8_t>(g != nullptr ? 1 : 0);
  ser.WriteVector(s);
  if (g != nullptr) g->Serialize(ser);
  return ser.Release();
}

void DecodeMcfPayload(const std::string& payload, std::vector<VertexId>* s,
                      bool* has_subgraph, CliqueSubgraph* g) {
  Deserializer des(payload);
  uint8_t flag = 0;
  GT_CHECK_OK(des.Read(&flag));
  GT_CHECK_OK(des.ReadVector(s));
  *has_subgraph = flag != 0;
  if (*has_subgraph) GT_CHECK_OK(g->Deserialize(des));
}

}  // namespace

GMinerMcfResult GMinerMaxClique(const Graph& graph, size_t tau,
                                const GMinerEngine::Options& opts) {
  GMinerEngine engine;
  std::mutex best_mutex;
  std::vector<VertexId> best;
  std::atomic<size_t> best_size{0};

  auto record = [&](const std::vector<VertexId>& clique) {
    if (clique.size() <= best_size.load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(best_mutex);
    if (clique.size() > best.size()) {
      best = clique;
      best_size.store(best.size(), std::memory_order_relaxed);
    }
  };

  auto spawn = [&best_size, &record](VertexId v, const AdjList& adj,
                                     std::vector<GMinerEngine::TaskRec>* out) {
    AdjList gt = GreaterOf(adj, v);
    if (gt.empty()) {
      record({v});
      return;
    }
    if (1 + gt.size() <= best_size.load(std::memory_order_relaxed)) return;
    GMinerEngine::TaskRec task;
    task.payload = EncodeMcfPayload({v}, nullptr);
    task.pulls = std::move(gt);
    out->push_back(std::move(task));
  };

  auto compute = [&graph, &record, &best_size, tau](
                     GMinerEngine::TaskRec& task,
                     const std::vector<AdjList>& frontier,
                     std::vector<GMinerEngine::TaskRec>* children) {
    std::vector<VertexId> s;
    bool has_subgraph = false;
    CliqueSubgraph g;
    DecodeMcfPayload(task.payload, &s, &has_subgraph, &g);

    if (!has_subgraph) {
      // Build ext(S)-induced subgraph from the pulled adjacency lists,
      // trimming each to Γ_> within ext (same construction as the G-thinker
      // app, paper Fig. 5 line 2).
      const AdjList& ext = task.pulls;
      for (size_t i = 0; i < frontier.size(); ++i) {
        Vertex<AdjList> nu;
        nu.id = task.pulls[i];
        const AdjList gt = GreaterOf(frontier[i], nu.id);
        simd::IntersectAdaptiveInto(gt.data(), gt.size(), ext.data(),
                                    ext.size(), &nu.value);
        g.AddVertex(std::move(nu));
      }
    }

    const size_t smax = best_size.load(std::memory_order_relaxed);
    if (g.NumVertices() > tau) {
      for (const Vertex<AdjList>& u : g.vertices()) {
        if (s.size() + 1 + u.value.size() <= smax) continue;
        std::vector<VertexId> s2 = s;
        s2.push_back(u.id);
        CliqueSubgraph g2;
        const AdjList& ext = u.value;
        for (VertexId w : ext) {
          const Vertex<AdjList>* wv = g.GetVertex(w);
          GT_CHECK(wv != nullptr);
          Vertex<AdjList> nw;
          nw.id = w;
          simd::IntersectAdaptiveInto(wv->value.data(), wv->value.size(),
                                      ext.data(), ext.size(), &nw.value);
          g2.AddVertex(std::move(nw));
        }
        // The child goes back through the disk queue (the G-Miner cost).
        GMinerEngine::TaskRec child;
        child.payload = EncodeMcfPayload(s2, &g2);
        children->push_back(std::move(child));
      }
      return;
    }

    if (s.size() > smax) record(s);
    if (s.size() + g.NumVertices() <= smax) return;
    const size_t lower = smax > s.size() ? smax - s.size() : 0;
    std::vector<VertexId> clique =
        MaxCliqueInCompact(CompactFromSubgraph(g), lower);
    if (!clique.empty()) {
      std::vector<VertexId> candidate = s;
      candidate.insert(candidate.end(), clique.begin(), clique.end());
      std::sort(candidate.begin(), candidate.end());
      record(candidate);
    }
  };

  GMinerMcfResult out;
  out.stats = engine.Run(graph, spawn, compute, opts);
  std::sort(best.begin(), best.end());
  out.best_clique = best;
  return out;
}

// ---------------------------------------------------------------------------
// Subgraph matching.
// ---------------------------------------------------------------------------

namespace {

using MatchSubgraph = Subgraph<Vertex<LabeledAdj>>;

std::string EncodeMatchPayload(uint8_t hop, VertexId root,
                               const MatchSubgraph& g) {
  Serializer ser;
  ser.Write(hop);
  ser.Write(root);
  g.Serialize(ser);
  return ser.Release();
}

}  // namespace

GMinerMatchResult GMinerMatch(const Graph& graph,
                              const std::vector<Label>& labels,
                              const QueryGraph& query,
                              const GMinerEngine::Options& opts) {
  GT_CHECK(query.IsValidPlan());
  GMinerEngine engine;
  std::atomic<uint64_t> matches{0};
  const int depth = query.DepthFromRoot();

  auto labeled_value = [&graph, &labels, &query](VertexId v) {
    LabeledAdj value;
    value.label = labels[v];
    for (VertexId u : graph.Neighbors(v)) {
      if (query.UsesLabel(labels[u])) {
        value.adj.push_back(LabeledNbr{u, labels[u]});
      }
    }
    return value;
  };

  auto spawn = [&labels, &query, &labeled_value, depth](
                   VertexId v, const AdjList& /*adj*/,
                   std::vector<GMinerEngine::TaskRec>* out) {
    if (labels[v] != query.labels[0]) return;
    Vertex<LabeledAdj> root;
    root.id = v;
    root.value = labeled_value(v);
    if (query.NumVertices() > 1 && root.value.adj.empty()) return;
    MatchSubgraph g;
    GMinerEngine::TaskRec task;
    if (depth >= 1) {
      for (const LabeledNbr& nbr : root.value.adj) {
        task.pulls.push_back(nbr.id);
      }
    }
    g.AddVertex(std::move(root));
    task.payload = EncodeMatchPayload(/*hop=*/0, v, g);
    out->push_back(std::move(task));
  };

  auto compute = [&matches, &query, &labeled_value, depth](
                     GMinerEngine::TaskRec& task,
                     const std::vector<AdjList>& /*frontier*/,
                     std::vector<GMinerEngine::TaskRec>* children) {
    Deserializer des(task.payload);
    uint8_t hop = 0;
    VertexId root = 0;
    MatchSubgraph g;
    GT_CHECK_OK(des.Read(&hop));
    GT_CHECK_OK(des.Read(&root));
    GT_CHECK_OK(g.Deserialize(des));
    // Materialize the pulled vertices (labels/adjacency via the shared
    // table, standing in for the partitioned store).
    for (VertexId v : task.pulls) {
      if (!g.HasVertex(v)) {
        Vertex<LabeledAdj> nv;
        nv.id = v;
        nv.value = labeled_value(v);
        g.AddVertex(std::move(nv));
      }
    }
    if (static_cast<int>(hop) + 1 < depth) {
      // Continuation: pull the next hop through the disk queue again.
      GMinerEngine::TaskRec child;
      std::unordered_set<VertexId> requested;
      for (VertexId v : task.pulls) {
        const Vertex<LabeledAdj>* pv = g.GetVertex(v);
        for (const LabeledNbr& nbr : pv->value.adj) {
          if (!g.HasVertex(nbr.id) && requested.insert(nbr.id).second) {
            child.pulls.push_back(nbr.id);
          }
        }
      }
      if (!child.pulls.empty()) {
        child.payload = EncodeMatchPayload(hop + 1, root, g);
        children->push_back(std::move(child));
        return;
      }
    }
    GT_CHECK_EQ(g.vertices().front().id, root);
    const uint64_t count = CountMatchesFromRoot(g, query, root);
    if (count > 0) matches.fetch_add(count, std::memory_order_relaxed);
  };

  GMinerMatchResult out;
  out.stats = engine.Run(graph, spawn, compute, opts);
  out.matches = matches.load();
  return out;
}

}  // namespace gthinker::baselines
