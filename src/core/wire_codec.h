#ifndef GTHINKER_CORE_WIRE_CODEC_H_
#define GTHINKER_CORE_WIRE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/codec.h"
#include "core/vertex.h"
#include "graph/types.h"
#include "util/serializer.h"
#include "util/status.h"

namespace gthinker {

// ---------------------------------------------------------------------------
// Compact wire encoding for pull-response records (DESIGN.md "Transport
// layer", data plane). Codec<T> stays the fixed-width canonical format used
// by spill files, checkpoints and task records; WireCodec<T> adds an
// alternative *wire* representation for the one payload that dominates
// traffic — kVertexResponse records — selected by `comm.wire_encoding`.
//
// The kVarint form group-encodes a sorted neighbor list as a varint count
// followed by zigzag-encoded deltas between consecutive IDs. After hub-last
// renumbering (src/graph/layout.h) neighbor IDs are clustered, so deltas are
// small and most neighbors cost 1–2 bytes instead of 4. Encoding is lossless
// for ANY id sequence (zigzag deltas may be negative), sortedness only makes
// it effective. Both sides of a job share one JobConfig, so the encoding
// never needs per-connection negotiation — it is a property of the job, not
// of the link, and works identically on the in-process and TCP backends.
// ---------------------------------------------------------------------------

/// Which representation kVertexResponse records use on the wire.
enum class WireEncoding : uint8_t {
  kRaw = 0,     // Codec<T> fixed-width (bit-identical legacy format)
  kVarint = 1,  // delta + varint group encoding for adjacency lists
};

inline const char* WireEncodingName(WireEncoding e) {
  switch (e) {
    case WireEncoding::kRaw:
      return "raw";
    case WireEncoding::kVarint:
      return "varint";
  }
  return "unknown";
}

// ---- varint primitives (LEB128, low 7 bits first) ----

inline void PutVarint64(Serializer& ser, uint64_t v) {
  while (v >= 0x80) {
    ser.Write<uint8_t>(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  ser.Write<uint8_t>(static_cast<uint8_t>(v));
}

/// Accepts only the canonical form PutVarint64 writes, so every decoded
/// value has exactly one encoding: no trailing zero group, and nothing past
/// bit 63.
inline Status GetVarint64(Deserializer& des, uint64_t* out) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    uint8_t b = 0;
    GT_RETURN_IF_ERROR(des.Read(&b));
    if (shift == 63 && b > 1) {
      return Status::Corruption("varint: continuation past 64 bits");
    }
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      if (b == 0 && shift > 0) {
        return Status::Corruption("varint: overlong encoding");
      }
      *out = v;
      return Status::Ok();
    }
  }
  return Status::Corruption("varint: continuation past 64 bits");
}

/// Zigzag maps signed deltas onto small unsigned varints: 0,-1,1,-2,2 ->
/// 0,1,2,3,4, so the +1 steps of a dense sorted run cost one byte each.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// ---- group encoding for ID lists ----

/// The ID `prev` + ZigZagDecode(`zigzag`), or Corruption when it falls
/// outside [0, kInvalidVertex]; checked before the add, which could
/// otherwise overflow on a hostile delta.
inline Status ApplyIdDelta(int64_t prev, uint64_t zigzag, int64_t* id) {
  const int64_t delta = ZigZagDecode(zigzag);
  if (delta < -prev || delta > static_cast<int64_t>(kInvalidVertex) - prev) {
    return Status::Corruption("id delta outside VertexId range");
  }
  *id = prev + delta;
  return Status::Ok();
}

/// varint count, then one zigzag-varint delta per ID (first delta is against
/// 0). Sorted duplicate-free lists — the AdjList invariant — produce strictly
/// positive deltas, i.e. zigzag values 2·delta, still 1 byte for gaps <= 63.
inline void EncodeIdListDelta(Serializer& ser, const VertexId* ids, size_t n) {
  PutVarint64(ser, n);
  int64_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t id = static_cast<int64_t>(ids[i]);
    PutVarint64(ser, ZigZagEncode(id - prev));
    prev = id;
  }
}

inline Status DecodeIdListDelta(Deserializer& des, std::vector<VertexId>* out) {
  uint64_t n = 0;
  GT_RETURN_IF_ERROR(GetVarint64(des, &n));
  // Every encoded ID costs at least one byte, so a count beyond the
  // remaining bytes is garbage — reject before reserving memory for it.
  if (n > des.remaining()) {
    return Status::Corruption("id list: count past end");
  }
  out->clear();
  out->reserve(n);
  int64_t prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t z = 0;
    int64_t id = 0;
    GT_RETURN_IF_ERROR(GetVarint64(des, &z));
    GT_RETURN_IF_ERROR(ApplyIdDelta(prev, z, &id));
    out->push_back(static_cast<VertexId>(id));
    prev = id;
  }
  return Status::Ok();
}

// ---- WireCodec<T>: encoding-selected record format ----

/// Generic fallback: types without a compact form use Codec<T> regardless of
/// the selected encoding (the knob only changes formats that opted in).
template <typename T>
struct WireCodec {
  static void Encode(WireEncoding /*enc*/, Serializer& ser, const T& v) {
    Codec<T>::Encode(ser, v);
  }
  static Status Decode(WireEncoding /*enc*/, Deserializer& des, T* v) {
    return Codec<T>::Decode(des, v);
  }
};

/// Plain adjacency vertices: the pull-response record for cliques/triangles.
template <>
struct WireCodec<Vertex<AdjList>> {
  static void Encode(WireEncoding enc, Serializer& ser,
                     const Vertex<AdjList>& v) {
    if (enc == WireEncoding::kRaw) {
      Codec<Vertex<AdjList>>::Encode(ser, v);
      return;
    }
    ser.Write(v.id);
    EncodeIdListDelta(ser, v.value.data(), v.value.size());
  }
  static Status Decode(WireEncoding enc, Deserializer& des,
                       Vertex<AdjList>* v) {
    if (enc == WireEncoding::kRaw) {
      return Codec<Vertex<AdjList>>::Decode(des, v);
    }
    GT_RETURN_IF_ERROR(des.Read(&v->id));
    return DecodeIdListDelta(des, &v->value);
  }
};

/// Labeled vertices (subgraph matching): deltas on the neighbor IDs, plain
/// varints for the labels (u16, so at most 3 bytes, usually 1).
template <>
struct WireCodec<Vertex<LabeledAdj>> {
  static void Encode(WireEncoding enc, Serializer& ser,
                     const Vertex<LabeledAdj>& v) {
    if (enc == WireEncoding::kRaw) {
      Codec<Vertex<LabeledAdj>>::Encode(ser, v);
      return;
    }
    ser.Write(v.id);
    ser.Write(v.value.label);
    PutVarint64(ser, v.value.adj.size());
    int64_t prev = 0;
    for (const LabeledNbr& nbr : v.value.adj) {
      const int64_t id = static_cast<int64_t>(nbr.id);
      PutVarint64(ser, ZigZagEncode(id - prev));
      PutVarint64(ser, nbr.label);
      prev = id;
    }
  }
  static Status Decode(WireEncoding enc, Deserializer& des,
                       Vertex<LabeledAdj>* v) {
    if (enc == WireEncoding::kRaw) {
      return Codec<Vertex<LabeledAdj>>::Decode(des, v);
    }
    GT_RETURN_IF_ERROR(des.Read(&v->id));
    GT_RETURN_IF_ERROR(des.Read(&v->value.label));
    uint64_t n = 0;
    GT_RETURN_IF_ERROR(GetVarint64(des, &n));
    if (n > des.remaining()) {
      return Status::Corruption("labeled adj: count past end");
    }
    v->value.adj.clear();
    v->value.adj.reserve(n);
    int64_t prev = 0;
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t z = 0, label = 0;
      int64_t id = 0;
      GT_RETURN_IF_ERROR(GetVarint64(des, &z));
      GT_RETURN_IF_ERROR(GetVarint64(des, &label));
      GT_RETURN_IF_ERROR(ApplyIdDelta(prev, z, &id));
      if (label > std::numeric_limits<Label>::max()) {
        return Status::Corruption("labeled adj: label out of range");
      }
      v->value.adj.push_back(LabeledNbr{static_cast<VertexId>(id),
                                        static_cast<Label>(label)});
      prev = id;
    }
    return Status::Ok();
  }
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_WIRE_CODEC_H_
