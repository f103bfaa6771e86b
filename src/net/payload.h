#ifndef GTHINKER_NET_PAYLOAD_H_
#define GTHINKER_NET_PAYLOAD_H_

#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "util/buffer_pool.h"
#include "util/serializer.h"

namespace gthinker {

/// The byte body of a MessageBatch: one contiguous, refcounted run of bytes.
///
/// Ownership model (see DESIGN.md "Payload buffer pool"):
///   - A payload pins either a pooled Slab (SlabRef) or an adopted
///     std::string (shared_ptr). Copying a Payload copies the handle — a
///     refcount bump, never a byte copy.
///   - The sender builds a Payload (typically via TakePayload(Serializer&)),
///     moves it into MessageBatch, and the hub moves the batch to the
///     receiver's mailbox: the bytes are written exactly once.
///   - The last Payload referencing a slab (usually the receiver's decoded
///     MessageBatch going out of scope after MarkProcessed) returns it to
///     the BufferPool.
///
/// Decoders read it through PayloadView.
class Payload {
 public:
  Payload() = default;

  /// Adopts a string (no further copies as the payload moves through the
  /// hub). Implicit so legacy `payload = "..."` / encode-to-string call sites
  /// keep working.
  Payload(std::string s) {  // NOLINT(google-explicit-constructor)
    if (s.empty()) return;
    str_ = std::make_shared<const std::string>(std::move(s));
    data_ = str_->data();
    size_ = str_->size();
  }

  Payload(const char* s)  // NOLINT(google-explicit-constructor)
      : Payload(std::string(s)) {}

  /// Wraps the first `len` bytes of a slab (takes the ref).
  static Payload FromSlab(SlabRef slab, size_t len) {
    Payload p;
    if (len == 0) return p;
    p.data_ = slab.data();
    p.size_ = len;
    p.slab_ = std::move(slab);
    return p;
  }

  /// Wraps a sub-range of a slab without copying. `data` must point inside
  /// `slab`'s storage; the payload takes an extra reference so the slab
  /// outlives every view carved from it (the TCP receive path hands each
  /// decoded frame body out of its recv slab this way).
  static Payload FromSlabView(const SlabRef& slab, const char* data,
                              size_t len) {
    Payload p;
    if (len == 0) return p;
    p.slab_ = slab;  // refcount bump
    p.data_ = data;
    p.size_ = len;
    return p;
  }

  /// Copies `n` bytes into a fresh pooled slab.
  static Payload CopyOf(const void* data, size_t n) {
    if (n == 0) return Payload();
    SlabRef slab(BufferPool::Global().Acquire(n));
    std::memcpy(slab.data(), data, n);
    return FromSlab(std::move(slab), n);
  }

  /// Start of the bytes (nullptr while empty). Pair with size().
  const char* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Copies the bytes into an owning string (tests, diagnostics).
  std::string ToString() const { return std::string(data_, size_); }

 private:
  SlabRef slab_;                            // slab-backed, or
  std::shared_ptr<const std::string> str_;  // string-backed
  const char* data_ = nullptr;
  size_t size_ = 0;
};

/// Content comparison against plain bytes (EXPECT_EQ in tests, etc.).
inline bool operator==(const Payload& p, std::string_view s) {
  return p.size() == s.size() &&
         (p.empty() || std::memcmp(p.data(), s.data(), s.size()) == 0);
}
inline bool operator==(std::string_view s, const Payload& p) { return p == s; }
inline bool operator!=(const Payload& p, std::string_view s) {
  return !(p == s);
}

/// Zero-copy handoff of a Serializer's encoded bytes into a Payload (the
/// encoder resets and keeps no reference).
inline Payload TakePayload(Serializer& ser) {
  size_t len = 0;
  SlabRef slab = ser.TakeSlab(&len);
  return Payload::FromSlab(std::move(slab), len);
}

/// Zero-copy view of a payload's bytes for Deserializer-based decoding.
class PayloadView {
 public:
  explicit PayloadView(const Payload& p) : data_(p.data()), size_(p.size()) {}
  const char* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  const char* data_;
  size_t size_;
};

}  // namespace gthinker

#endif  // GTHINKER_NET_PAYLOAD_H_
