#include "graph/loader.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>

namespace gthinker {

namespace {

Status OpenFailed(const std::string& path) {
  return Status::IoError("cannot open " + path + ": " + std::strerror(errno));
}

}  // namespace

Status GraphIo::WriteAdjacency(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return OpenFailed(path);
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    out << v << '\t';
    const AdjList& adj = graph.Neighbors(v);
    for (size_t i = 0; i < adj.size(); ++i) {
      if (i > 0) out << ' ';
      out << adj[i];
    }
    out << '\n';
  }
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Status GraphIo::ParseAdjacencyLine(const std::string& line, VertexId* id,
                                   AdjList* adj) {
  auto bad = [&line] {
    return Status::Corruption("bad adjacency line: '" + line + "'");
  };
  auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  adj->clear();
  const char* p = line.data();
  const char* const end = p + line.size();
  bool have_id = false;
  while (true) {
    while (p != end && is_space(*p)) ++p;
    if (p == end) break;
    // A token is a plain decimal ID below kInvalidVertex that ends at
    // whitespace or the line's end: no sign, no fraction, no suffix.
    VertexId v = 0;
    const auto [next, ec] = std::from_chars(p, end, v);
    if (ec != std::errc() || v == kInvalidVertex ||
        (next != end && !is_space(*next))) {
      return bad();
    }
    p = next;
    if (have_id) {
      adj->push_back(v);
    } else {
      *id = v;
      have_id = true;
    }
  }
  return have_id ? Status::Ok() : bad();
}

Status GraphIo::CheckVertexIds(const std::vector<VertexId>& ids,
                               VertexId max_named) {
  if (!ids.empty() && max_named >= ids.size()) {
    return Status::Corruption("vertex " + std::to_string(max_named) +
                              " is not below its " +
                              std::to_string(ids.size()) + " vertex lines");
  }
  std::vector<bool> seen(ids.size());
  for (VertexId v : ids) {
    if (seen[v]) {
      return Status::Corruption("vertex " + std::to_string(v) +
                                " appears twice in the input");
    }
    seen[v] = true;
  }
  return Status::Ok();
}

Status GraphIo::LoadAdjacency(const std::string& path, Graph* out) {
  std::ifstream in(path);
  if (!in) return OpenFailed(path);
  std::vector<VertexId> ids;
  std::vector<std::pair<VertexId, VertexId>> edges;
  VertexId max_named = 0;
  std::string line;
  AdjList adj;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    VertexId id = 0;
    GT_RETURN_IF_ERROR(ParseAdjacencyLine(line, &id, &adj));
    ids.push_back(id);
    max_named = std::max(max_named, id);
    for (VertexId u : adj) {
      max_named = std::max(max_named, u);
      // Each undirected edge appears in both endpoint lines; only add once.
      if (id < u) edges.emplace_back(id, u);
    }
  }
  // The graph is sized from its line count, never from an ID a line names.
  GT_RETURN_IF_ERROR(CheckVertexIds(ids, max_named));
  Graph g(static_cast<VertexId>(ids.size()));
  for (const auto& [u, v] : edges) g.AddEdge(u, v);
  g.Finalize();
  *out = std::move(g);
  return Status::Ok();
}

Status GraphIo::WriteEdgeList(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return OpenFailed(path);
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    for (VertexId u : graph.Neighbors(v)) {
      if (v < u) out << v << ' ' << u << '\n';
    }
  }
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Status GraphIo::WriteLabeledAdjacency(const Graph& graph,
                                      const std::vector<Label>& labels,
                                      const std::string& path) {
  if (labels.size() != graph.NumVertices()) {
    return Status::InvalidArgument("labels/vertices size mismatch");
  }
  std::ofstream out(path);
  if (!out) return OpenFailed(path);
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    out << v << ' ' << labels[v] << '\t';
    const AdjList& adj = graph.Neighbors(v);
    for (size_t i = 0; i < adj.size(); ++i) {
      if (i > 0) out << ' ';
      out << adj[i];
    }
    out << '\n';
  }
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

}  // namespace gthinker
