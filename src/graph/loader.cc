#include "graph/loader.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

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

Status GraphIo::LoadAdjacency(const std::string& path, Graph* out) {
  std::ifstream in(path);
  if (!in) return OpenFailed(path);
  Graph g;
  std::string line;
  VertexId max_id = 0;
  bool any = false;
  AdjList adj;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    VertexId id = 0;
    GT_RETURN_IF_ERROR(ParseAdjacencyLine(line, &id, &adj));
    any = true;
    max_id = std::max(max_id, id);
    for (VertexId u : adj) {
      max_id = std::max(max_id, u);
      // Each undirected edge appears in both endpoint lines; only add once.
      if (id < u) g.AddEdge(id, u);
    }
  }
  if (any && g.NumVertices() < max_id + 1) g.Resize(max_id + 1);
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

Status GraphIo::LoadEdgeList(const std::string& path, Graph* out) {
  std::ifstream in(path);
  if (!in) return OpenFailed(path);
  Graph g;
  uint64_t u = 0, v = 0;
  while (in >> u >> v) {
    g.AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v));
  }
  if (in.bad()) return Status::IoError("read failed: " + path);
  g.Finalize();
  *out = std::move(g);
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

Status GraphIo::LoadLabeledAdjacency(const std::string& path, Graph* graph,
                                     std::vector<Label>* labels) {
  std::ifstream in(path);
  if (!in) return OpenFailed(path);
  Graph g;
  std::vector<Label> lab;
  std::string line;
  VertexId max_id = 0;
  bool any = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    uint64_t id = 0, label = 0;
    if (!(ls >> id >> label)) {
      return Status::Corruption("bad labeled line: '" + line + "'");
    }
    const VertexId v = static_cast<VertexId>(id);
    any = true;
    max_id = std::max(max_id, v);
    if (lab.size() <= v) lab.resize(v + 1, 0);
    lab[v] = static_cast<Label>(label);
    uint64_t u = 0;
    while (ls >> u) {
      max_id = std::max(max_id, static_cast<VertexId>(u));
      if (v < u) g.AddEdge(v, static_cast<VertexId>(u));
    }
    if (ls.bad()) return Status::Corruption("bad labeled line: '" + line + "'");
  }
  if (any && g.NumVertices() < max_id + 1) g.Resize(max_id + 1);
  if (any && lab.size() < max_id + 1) lab.resize(max_id + 1, 0);
  g.Finalize();
  *graph = std::move(g);
  *labels = std::move(lab);
  return Status::Ok();
}

}  // namespace gthinker
