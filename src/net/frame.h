#ifndef GTHINKER_NET_FRAME_H_
#define GTHINKER_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
#define GTHINKER_CRC32C_X86 1
#endif

namespace gthinker::net {

// ---------------------------------------------------------------------------
// Versioned wire format for socket transports (DESIGN.md "Transport layer").
//
// Every byte on a TCP link is a sequence of frames:
//
//   offset  size  field
//   ------  ----  --------------------------------------------------------
//        0     4  magic        0x47544E46 ("GTNF", little-endian u32)
//        4     2  version      protocol version (kProtocolVersion)
//        6     1  kind         FrameKind (HELLO / DATA / BYE)
//        7     1  msg_type     DATA: MsgType of the carried batch
//                              HELLO/BYE: 0 (reserved)
//        8     4  src          DATA: source endpoint; HELLO/BYE: source
//                              process rank (i32)
//       12     4  dst          DATA: destination endpoint; else 0 (i32)
//       16     4  payload_len  bytes of payload following the header (u32)
//       20     4  crc32        CRC-32C of the payload bytes (0 when empty)
//   ------  ----
//       24        header size; payload_len payload bytes follow
//
// The version is checked at handshake: both sides open with a HELLO frame
// and a mismatch is a clean, reported failure — never a garbage decode of an
// incompatible stream. Every rank runs the same build, so there is nothing
// else to negotiate. DATA payloads are the Codec<T>-encoded MessageBatch
// bodies; the per-frame CRC-32C catches wire corruption before any decoder
// runs.
// ---------------------------------------------------------------------------

inline constexpr uint32_t kFrameMagic = 0x47544E46;  // "GTNF"
inline constexpr uint16_t kProtocolVersion = 7;
inline constexpr size_t kFrameHeaderSize = 24;
/// Sanity cap on a single frame's payload; anything larger is treated as a
/// corrupt stream (a real batch never approaches this).
inline constexpr uint32_t kMaxFramePayload = 1u << 30;

enum class FrameKind : uint8_t {
  kHello = 1,  // handshake: version + sender rank; first frame both ways
  kData = 2,   // one MessageBatch
  kBye = 3,    // closing marker: the sender's last frame on the link
};

struct FrameHeader {
  uint32_t magic = kFrameMagic;
  uint16_t version = kProtocolVersion;
  FrameKind kind = FrameKind::kData;
  uint8_t msg_type = 0;
  int32_t src = -1;
  int32_t dst = -1;
  uint32_t payload_len = 0;
  uint32_t crc32 = 0;
};

namespace crc_internal {

/// 8 slicing tables for a reflected-polynomial CRC-32. table[0] is the
/// classic byte-at-a-time table; table[k] advances a byte k positions.
struct SliceTables {
  uint32_t t[8][256];
};

inline SliceTables MakeSliceTables(uint32_t poly) {
  SliceTables s{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? poly ^ (c >> 1) : c >> 1;
    }
    s.t[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      s.t[k][i] = s.t[0][s.t[k - 1][i] & 0xFFu] ^ (s.t[k - 1][i] >> 8);
    }
  }
  return s;
}

/// Slicing-by-8: processes 8 input bytes per iteration with 8 independent
/// table lookups instead of a serial per-byte dependency chain — ~4-5x the
/// bytewise table walk on payload-sized inputs. Assumes little-endian loads
/// (the wire format is LE throughout). `crc` is the in-progress inverted
/// state.
inline uint32_t Slice8(const SliceTables& s, const unsigned char* p, size_t len,
                       uint32_t crc) {
  while (len >= 8) {
    uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = s.t[7][lo & 0xFFu] ^ s.t[6][(lo >> 8) & 0xFFu] ^
          s.t[5][(lo >> 16) & 0xFFu] ^ s.t[4][lo >> 24] ^ s.t[3][hi & 0xFFu] ^
          s.t[2][(hi >> 8) & 0xFFu] ^ s.t[1][(hi >> 16) & 0xFFu] ^
          s.t[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    crc = s.t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

inline const SliceTables& Castagnoli() {
  static const SliceTables s = MakeSliceTables(0x82F63B78u);
  return s;
}

#if defined(GTHINKER_CRC32C_X86)
__attribute__((target("sse4.2"))) inline uint32_t Crc32CHardwareImpl(
    const unsigned char* p, size_t len, uint32_t crc) {
  // _mm_crc32 consumes the inverted state directly; alignment handled by the
  // 1-byte head loop so the 8-byte loads are at most misaligned, not partial.
  while (len >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    crc = static_cast<uint32_t>(_mm_crc32_u64(crc, chunk));
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    crc = _mm_crc32_u8(crc, *p++);
  }
  return crc;
}
#endif

}  // namespace crc_internal

/// CRC-32C (Castagnoli) software path, slicing-by-8. Exposed separately so
/// tests can differential-check the hardware path on machines that have it.
inline uint32_t Crc32CSoftware(const void* data, size_t len,
                               uint32_t seed = 0) {
  return ~crc_internal::Slice8(crc_internal::Castagnoli(),
                               static_cast<const unsigned char*>(data), len,
                               ~seed);
}

/// True when the SSE4.2 CRC32 instruction is available at runtime.
inline bool HasHardwareCrc32C() {
#if defined(GTHINKER_CRC32C_X86)
  static const bool has = __builtin_cpu_supports("sse4.2");
  return has;
#else
  return false;
#endif
}

/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78): hardware
/// `crc32` instruction when the CPU has SSE4.2, slicing-by-8 otherwise.
/// Chainable: pass the previous return value as `seed` to continue a
/// computation over scattered fragments. The checksum of every frame.
inline uint32_t Crc32C(const void* data, size_t len, uint32_t seed = 0) {
#if defined(GTHINKER_CRC32C_X86)
  if (HasHardwareCrc32C()) {
    return ~crc_internal::Crc32CHardwareImpl(
        static_cast<const unsigned char*>(data), len, ~seed);
  }
#endif
  return Crc32CSoftware(data, len, seed);
}

/// Serializes a header into exactly kFrameHeaderSize bytes at `out`.
/// Little-endian fixed-width, matching the Serializer convention.
inline void EncodeFrameHeader(const FrameHeader& h, char* out) {
  auto put = [&out](const auto& v) {
    std::memcpy(out, &v, sizeof(v));
    out += sizeof(v);
  };
  put(h.magic);
  put(h.version);
  put(static_cast<uint8_t>(h.kind));
  put(h.msg_type);
  put(h.src);
  put(h.dst);
  put(h.payload_len);
  put(h.crc32);
}

/// Parses a header from `data` (must hold >= kFrameHeaderSize bytes).
/// Returns false on a bad magic, unknown kind, or oversized payload — the
/// stream is corrupt and the connection must be dropped, since framing can
/// never be recovered once the byte position is untrusted. A version
/// mismatch parses successfully (the caller reports it as such).
inline bool DecodeFrameHeader(const char* data, FrameHeader* h) {
  const char* p = data;
  auto get = [&p](auto* v) {
    std::memcpy(v, p, sizeof(*v));
    p += sizeof(*v);
  };
  uint8_t kind = 0;
  get(&h->magic);
  get(&h->version);
  get(&kind);
  get(&h->msg_type);
  get(&h->src);
  get(&h->dst);
  get(&h->payload_len);
  get(&h->crc32);
  if (h->magic != kFrameMagic) return false;
  if (kind < static_cast<uint8_t>(FrameKind::kHello) ||
      kind > static_cast<uint8_t>(FrameKind::kBye)) {
    return false;
  }
  h->kind = static_cast<FrameKind>(kind);
  return h->payload_len <= kMaxFramePayload;
}

}  // namespace gthinker::net

#endif  // GTHINKER_NET_FRAME_H_
