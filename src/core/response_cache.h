#ifndef GTHINKER_CORE_RESPONSE_CACHE_H_
#define GTHINKER_CORE_RESPONSE_CACHE_H_

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "core/codec.h"
#include "core/vertex.h"
#include "core/wire_codec.h"
#include "graph/types.h"
#include "net/payload.h"
#include "util/serializer.h"

namespace gthinker {

/// A worker's ResponseCache byte cap.
inline constexpr int64_t kResponseCacheBytes = 4 << 20;

/// Responder-side Γ-sharing: memoizes a local vertex's serialized
/// kVertexResponse record as a single-fragment pooled Payload, so a hot
/// vertex (requested by many workers, or repeatedly after cache eviction)
/// is encoded ONCE and its slab is refcount-shared across every concurrent
/// response batch that includes it — zero re-serialization, zero byte copies.
///
/// Correctness: entries never go stale because T_local vertices are
/// immutable once the graph is loaded (trimming happens before the job
/// starts); the vertex-pull path is read-only by design (paper §IV).
///
/// Thread model: confined to the worker's comm thread (the only place
/// kVertexRequest batches are handled), so no internal locking. The Payload
/// copies it hands out are safe to ship cross-thread — fragment refcounts
/// are atomic.
///
/// `byte_limit` caps the memoized bytes (a worker passes
/// kResponseCacheBytes); on overflow the whole table is dropped (resets()++)
/// and memoization restarts — trivially correct, and a full reset is fine
/// because the working set under a mining workload is a small hot core. A
/// limit of 0 disables memoization (records are still built through here,
/// just not retained).
template <typename VertexT>
class ResponseCache {
 public:
  /// `encoding` selects the record format (comm.wire_encoding): memoized
  /// records are stored already in wire form, so the kVarint compaction also
  /// shrinks the cache's resident bytes.
  explicit ResponseCache(int64_t byte_limit,
                         WireEncoding encoding = WireEncoding::kRaw)
      : byte_limit_(byte_limit), encoding_(encoding) {}

  /// The serialized response record for `v` (a shared handle to the
  /// memoized slab when cached).
  Payload Get(const VertexT& v) {
    if (byte_limit_ <= 0) return Encode(v);
    auto it = table_.find(v.id);
    if (it != table_.end()) {
      hits_++;
      return it->second;
    }
    Payload rec = Encode(v);
    bytes_ += static_cast<int64_t>(rec.size());
    if (bytes_ > byte_limit_) {
      table_.clear();
      bytes_ = static_cast<int64_t>(rec.size());
      resets_++;
    }
    table_.emplace(v.id, rec);
    return rec;
  }

  int64_t hits() const { return hits_; }
  int64_t resets() const { return resets_; }
  int64_t bytes() const { return bytes_; }
  size_t entries() const { return table_.size(); }

 private:
  Payload Encode(const VertexT& v) {
    ser_.Clear();
    WireCodec<VertexT>::Encode(encoding_, ser_, v);
    return TakePayload(ser_);
  }

  const int64_t byte_limit_;
  const WireEncoding encoding_;
  std::unordered_map<VertexId, Payload> table_;
  Serializer ser_;  // reused encoder (slab is taken per record)
  int64_t bytes_ = 0;
  int64_t hits_ = 0;
  int64_t resets_ = 0;
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_RESPONSE_CACHE_H_
