#ifndef GTHINKER_NET_PAYLOAD_H_
#define GTHINKER_NET_PAYLOAD_H_

#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace gthinker {

/// The byte body of a MessageBatch: one shared, immutable std::string.
///
/// Ownership model (see DESIGN.md "Payload: one shared string per message"):
///   - The sender encodes into a Serializer and adopts its bytes with
///     `Payload(ser.Release())` (a move, no copy), then moves the payload
///     into a MessageBatch.
///   - Copying a Payload copies the handle — a refcount bump, never a byte
///     copy — so a broadcast and the in-process hub share one string.
///   - The last Payload referencing the string frees it (usually the
///     receiver's decoded MessageBatch once its handler returned).
///
/// Decoders read data()/size() in place.
class Payload {
 public:
  Payload() = default;

  /// Adopts a string. Implicit so encode-to-string call sites and
  /// `payload = "..."` work unchanged.
  Payload(std::string s) {  // NOLINT(google-explicit-constructor)
    if (!s.empty()) str_ = std::make_shared<const std::string>(std::move(s));
  }

  Payload(const char* s)  // NOLINT(google-explicit-constructor)
      : Payload(std::string(s)) {}

  /// Start of the bytes (nullptr while empty). Pair with size().
  const char* data() const { return str_ ? str_->data() : nullptr; }
  size_t size() const { return str_ ? str_->size() : 0; }
  bool empty() const { return size() == 0; }

  /// Copies the bytes into an owning string (tests, diagnostics).
  std::string ToString() const { return str_ ? *str_ : std::string(); }

 private:
  std::shared_ptr<const std::string> str_;
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

}  // namespace gthinker

#endif  // GTHINKER_NET_PAYLOAD_H_
