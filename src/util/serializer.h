#ifndef GTHINKER_UTIL_SERIALIZER_H_
#define GTHINKER_UTIL_SERIALIZER_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/buffer_pool.h"
#include "util/status.h"

namespace gthinker {

/// Append-only binary encoder. Tasks, messages, spill batches and checkpoints
/// all serialize through this so that the bytes moved over the simulated
/// network / written to disk are the real framing cost.
///
/// Encoding: little-endian fixed width for integral/floating types, u64
/// length prefix for strings and vectors.
///
/// The encoder writes directly into a pooled Slab (util/buffer_pool.h), so a
/// finished buffer can be handed to the wire zero-copy via TakeSlab() — the
/// slab travels inside a net::Payload and is recycled when the last message
/// batch referencing it is destroyed. Release() still yields an owning
/// std::string (one copy) for paths that want plain bytes (spill files,
/// checkpoint blobs, task records).
class Serializer {
 public:
  Serializer() = default;
  Serializer(const Serializer&) = delete;  // two writers on one slab
  Serializer& operator=(const Serializer&) = delete;
  Serializer(Serializer&&) = default;
  Serializer& operator=(Serializer&&) = default;

  template <typename T>
  void Write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Write requires a trivially copyable type");
    Reserve(sizeof(T));
    std::memcpy(slab_.data() + size_, &value, sizeof(T));
    size_ += sizeof(T);
  }

  void WriteString(const std::string& s) {
    Write<uint64_t>(s.size());
    WriteBytes(s.data(), s.size());
  }

  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "WriteVector requires trivially copyable elements");
    Write<uint64_t>(v.size());
    if (!v.empty()) WriteBytes(v.data(), v.size() * sizeof(T));
  }

  void WriteBytes(const void* data, size_t n) {
    if (n == 0) return;
    Reserve(n);
    std::memcpy(slab_.data() + size_, data, n);
    size_ += n;
  }

  /// Start of the encoded bytes (nullptr while empty). Pair with size().
  const char* data() const { return slab_.data(); }
  size_t size() const { return size_; }

  /// Copies the encoded bytes into an owning string and resets the encoder
  /// (the backing slab is kept for reuse).
  std::string Release() {
    std::string out(slab_ ? slab_.data() : "", size_);
    size_ = 0;
    return out;
  }

  /// Zero-copy handoff: moves the backing slab (with the caller taking the
  /// reference) and resets the encoder. *size receives the encoded length;
  /// the returned ref is empty when nothing was written.
  SlabRef TakeSlab(size_t* size) {
    *size = size_;
    size_ = 0;
    return std::move(slab_);
  }

  void Clear() { size_ = 0; }

 private:
  /// Grows geometrically: past the largest pool class a slab is sized to
  /// exactly the request, so growing to `need` alone would copy the whole
  /// prefix on every later write.
  void Reserve(size_t n) {
    const size_t need = size_ + n;
    if (need <= slab_.capacity()) return;
    SlabRef bigger(
        BufferPool::Global().Acquire(std::max(need, 2 * slab_.capacity())));
    if (size_ > 0) std::memcpy(bigger.data(), slab_.data(), size_);
    slab_ = std::move(bigger);
  }

  SlabRef slab_;
  size_t size_ = 0;
};

/// Sequential binary decoder over a byte buffer (not owned). All reads are
/// bounds-checked and report Corruption instead of over-reading.
class Deserializer {
 public:
  Deserializer(const void* data, size_t size)
      : data_(static_cast<const char*>(data)), size_(size) {}

  explicit Deserializer(const std::string& buf)
      : Deserializer(buf.data(), buf.size()) {}

  explicit Deserializer(const Serializer& ser)
      : Deserializer(ser.data(), ser.size()) {}

  /// A bare char* has no length; passing one would silently re-measure the
  /// buffer with strlen via the string overload (truncating at the first
  /// NUL byte of binary data). Force callers to supply the size.
  explicit Deserializer(const char*) = delete;

  template <typename T>
  Status Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Read requires a trivially copyable type");
    if (pos_ + sizeof(T) > size_) {
      return Status::Corruption("deserializer: read past end");
    }
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::Ok();
  }

  Status ReadString(std::string* out) {
    uint64_t n = 0;
    GT_RETURN_IF_ERROR(Read(&n));
    // Division-based bound: robust against overflow from garbage lengths.
    if (n > size_ - pos_) {
      return Status::Corruption("deserializer: string past end");
    }
    out->assign(data_ + pos_, n);
    pos_ += n;
    return Status::Ok();
  }

  template <typename T>
  Status ReadVector(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ReadVector requires trivially copyable elements");
    uint64_t n = 0;
    GT_RETURN_IF_ERROR(Read(&n));
    if (n > (size_ - pos_) / sizeof(T)) {
      return Status::Corruption("deserializer: vector past end");
    }
    out->resize(n);
    if (n > 0) {
      std::memcpy(out->data(), data_ + pos_, n * sizeof(T));
    }
    pos_ += n * sizeof(T);
    return Status::Ok();
  }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }
  size_t position() const { return pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace gthinker

#endif  // GTHINKER_UTIL_SERIALIZER_H_
