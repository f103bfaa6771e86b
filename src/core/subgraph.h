#ifndef GTHINKER_CORE_SUBGRAPH_H_
#define GTHINKER_CORE_SUBGRAPH_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/codec.h"
#include "core/vertex.h"
#include "graph/types.h"
#include "util/serializer.h"

namespace gthinker {

/// Paper Fig. 4 class (2): the subgraph g a task constructs and mines. A task
/// copies into it what must outlive one compute() call and that it does not
/// pull again, because frontier vertices are released back to the cache
/// right after compute() returns (§III).
///
/// Stored as a vertex array plus an id->index map; adjacency lists live in
/// the vertex values.
template <typename VertexT>
class Subgraph {
 public:
  using VertexType = VertexT;

  Subgraph() = default;

  /// Adds a vertex (with its value/adjacency). Overwrites an existing vertex
  /// with the same ID.
  void AddVertex(VertexT v) {
    auto it = index_.find(v.id);
    if (it != index_.end()) {
      vertices_[it->second] = std::move(v);
      return;
    }
    index_.emplace(v.id, vertices_.size());
    vertices_.push_back(std::move(v));
  }

  bool HasVertex(VertexId id) const { return index_.count(id) > 0; }

  /// Returns nullptr when absent. Pointers are invalidated by AddVertex.
  const VertexT* GetVertex(VertexId id) const {
    auto it = index_.find(id);
    return it == index_.end() ? nullptr : &vertices_[it->second];
  }

  size_t NumVertices() const { return vertices_.size(); }
  const std::vector<VertexT>& vertices() const { return vertices_; }

  void Clear() {
    vertices_.clear();
    index_.clear();
  }

  int64_t MemoryBytes() const {
    int64_t bytes = static_cast<int64_t>(sizeof(*this)) +
                    static_cast<int64_t>(index_.size() * 16);
    for (const VertexT& v : vertices_) bytes += Codec<VertexT>::Bytes(v);
    return bytes;
  }

  void Serialize(Serializer& ser) const {
    ser.Write<uint64_t>(vertices_.size());
    for (const VertexT& v : vertices_) Codec<VertexT>::Encode(ser, v);
  }

  Status Deserialize(Deserializer& des) {
    Clear();
    uint64_t n = 0;
    GT_RETURN_IF_ERROR(des.Read(&n));
    if (n > des.remaining()) {
      return Status::Corruption("subgraph vertex count implausible");
    }
    vertices_.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      VertexT v;
      GT_RETURN_IF_ERROR(Codec<VertexT>::Decode(des, &v));
      index_.emplace(v.id, vertices_.size());
      vertices_.push_back(std::move(v));
    }
    return Status::Ok();
  }

 private:
  std::vector<VertexT> vertices_;
  std::unordered_map<VertexId, size_t> index_;
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_SUBGRAPH_H_
