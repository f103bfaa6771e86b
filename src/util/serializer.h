#ifndef GTHINKER_UTIL_SERIALIZER_H_
#define GTHINKER_UTIL_SERIALIZER_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/status.h"

namespace gthinker {

/// Append-only binary encoder. Tasks, messages, spill batches and checkpoints
/// all serialize through this so that the bytes moved over the simulated
/// network / written to disk are the real framing cost.
///
/// Encoding: little-endian fixed width for integral/floating types, u64
/// length prefix for strings and vectors.
///
/// The encoder appends to one std::string, and Release() moves it out: a
/// message's bytes become a net::Payload (`Payload(ser.Release())`) without
/// a copy, and spill files, checkpoint blobs and task records take the same
/// string.
class Serializer {
 public:
  template <typename T>
  void Write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Write requires a trivially copyable type");
    buf_.append(reinterpret_cast<const char*>(&value), sizeof(T));
  }

  void WriteString(const std::string& s) {
    Write<uint64_t>(s.size());
    buf_.append(s);
  }

  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "WriteVector requires trivially copyable elements");
    Write<uint64_t>(v.size());
    if (!v.empty()) WriteBytes(v.data(), v.size() * sizeof(T));
  }

  void WriteBytes(const void* data, size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  /// Start of the encoded bytes. Pair with size().
  const char* data() const { return buf_.data(); }
  size_t size() const { return buf_.size(); }

  /// Moves the encoded bytes out and resets the encoder.
  std::string Release() {
    std::string out = std::move(buf_);
    buf_.clear();
    return out;
  }

  void Clear() { buf_.clear(); }

 private:
  std::string buf_;
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
