// alps::Value — the dynamically typed value system of the ALPS kernel.
//
// The paper's kernel was written in C and "can be used directly from other
// languages like C" (§4); parameters and results flow through it as untyped
// lists, which is also what makes the paper's "initial subsequence of the
// parameter list" interception semantics (§2.6) natural to express. This
// reproduction keeps that shape: the kernel moves ValueLists, and a typed
// C++ façade (core/typed.h) provides compile-time convenience on top.
//
// A Value is one of: nil, bool, int (64-bit), real (double), string, blob,
// list (vector<Value>), or a channel reference (§2.1.2 allows channels to be
// passed as procedure parameters and message values).
//
// Payload sharing (DESIGN.md §4.9): string and blob payloads are stored
// behind refcounted immutable storage (StringPayload / Buffer), so copying a
// Value — and therefore a ValueList — costs O(participants), not O(bytes).
// A string Value may even be a zero-copy window into a received frame
// (Value::aliased_string): string_view()/string_bytes() never copy, and
// as_string() still returns a const std::string& by materializing the
// std::string form once, on first use. There are no mutating string/blob
// accessors, so sharing is invisible to kernel and application code. The one
// mutable accessor, as_list()&, edits the list spine held inline in this
// Value; shared payloads referenced by its elements stay immutable.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/buffer.h"

namespace alps {

class ChannelCore;
using ChannelRef = std::shared_ptr<ChannelCore>;

class Value;
using ValueList = std::vector<Value>;

enum class ValueKind : std::uint8_t {
  kNil = 0,
  kBool = 1,
  kInt = 2,
  kReal = 3,
  kString = 4,
  kBlob = 5,
  kList = 6,
  kChannel = 7,
};

const char* to_string(ValueKind kind);

/// Shared storage behind a string Value. Two forms, one interface:
///   * string-backed — constructed from a std::string; `bytes()` is a
///     zero-copy window over the shared string.
///   * frame-backed — constructed from a Buffer slice of a received frame
///     (decode aliasing, DESIGN.md §4.9); `str()` materializes the
///     std::string form once, on first use (counted in bytes_copied).
/// Always held behind a shared_ptr; materialization is call_once-guarded so
/// concurrent as_string() on shared Values is safe.
class StringPayload {
 public:
  explicit StringPayload(std::string s)
      : str_(std::make_shared<const std::string>(std::move(s))),
        bytes_(Buffer::from_shared(str_)) {}
  explicit StringPayload(std::shared_ptr<const std::string> s)
      : str_(s ? std::move(s) : std::make_shared<const std::string>()),
        bytes_(Buffer::from_shared(str_)) {}
  explicit StringPayload(Buffer frame_bytes) : bytes_(std::move(frame_bytes)) {}

  /// The payload bytes, either form, no materialization.
  std::string_view view() const {
    return {reinterpret_cast<const char*>(bytes_.data()), bytes_.size()};
  }
  /// The refcounted storage window (re-encode references this, copy-free).
  const Buffer& bytes() const { return bytes_; }

  /// The std::string form; frame-backed payloads copy once, here.
  const std::string& str() const;
  std::shared_ptr<const std::string> shared() const {
    str();
    return str_;
  }

 private:
  mutable std::shared_ptr<const std::string> str_;  // null until materialized
  Buffer bytes_;
  mutable std::once_flag once_;
};

class Value {
 public:
  Value() = default;
  Value(std::nullptr_t) {}
  Value(bool b) : v_(b) {}
  Value(int i) : v_(static_cast<std::int64_t>(i)) {}
  Value(unsigned i) : v_(static_cast<std::int64_t>(i)) {}
  Value(long i) : v_(static_cast<std::int64_t>(i)) {}
  Value(long long i) : v_(static_cast<std::int64_t>(i)) {}
  Value(unsigned long i) : v_(static_cast<std::int64_t>(i)) {}
  Value(unsigned long long i) : v_(static_cast<std::int64_t>(i)) {}
  Value(double d) : v_(d) {}
  Value(const char* s)
      : v_(std::make_shared<const StringPayload>(std::string(s))) {}
  Value(std::string s)
      : v_(std::make_shared<const StringPayload>(std::move(s))) {}
  /// Shares an already-shared string's storage (a null pointer becomes the
  /// empty string — string Values always hold storage).
  Value(std::shared_ptr<const std::string> s)
      : v_(std::make_shared<const StringPayload>(std::move(s))) {}
  Value(Blob b) : v_(Buffer::adopt(std::move(b))) {}
  /// Blob value sharing the Buffer's storage (zero-copy).
  Value(Buffer b) : v_(std::move(b)) {}
  Value(ValueList l) : v_(std::move(l)) {}
  Value(ChannelRef c) : v_(std::move(c)) {}

  /// A string Value aliasing `bytes` (typically a slice of a received
  /// frame) without copying. as_string() materializes on demand; the view
  /// accessors never do.
  static Value aliased_string(Buffer bytes);

  ValueKind kind() const { return static_cast<ValueKind>(v_.index()); }

  bool is_nil() const { return kind() == ValueKind::kNil; }
  bool is_bool() const { return kind() == ValueKind::kBool; }
  bool is_int() const { return kind() == ValueKind::kInt; }
  bool is_real() const { return kind() == ValueKind::kReal; }
  bool is_string() const { return kind() == ValueKind::kString; }
  bool is_blob() const { return kind() == ValueKind::kBlob; }
  bool is_list() const { return kind() == ValueKind::kList; }
  bool is_channel() const { return kind() == ValueKind::kChannel; }

  // Checked accessors; throw Error(kTypeMismatch) on kind mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;
  /// Accepts kInt or kReal (ints widen).
  double as_real() const;
  const std::string& as_string() const;
  /// The blob payload as a shared immutable slice; Buffer::to_blob()
  /// materializes an independent std::vector copy when one is needed.
  const Buffer& as_blob() const;
  const ValueList& as_list() const;
  ValueList& as_list();
  const ChannelRef& as_channel() const;

  /// The string payload's bytes without materializing a std::string —
  /// frame-aliased strings stay zero-copy. Throws on kind mismatch.
  std::string_view string_view() const;

  /// The string payload's refcounted storage window — lets the codec
  /// reference strings on the wire instead of copying them (both forms).
  /// Throws on kind mismatch.
  Buffer string_bytes() const;

  /// The string payload's shared std::string form (null when not a string);
  /// frame-aliased strings materialize once here.
  std::shared_ptr<const std::string> shared_string() const;

  /// Structural equality; channels compare by identity.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Debug rendering, e.g. `["abc", 42, <chan#3>]`.
  std::string to_string() const;

  std::size_t hash() const;

 private:
  // Alternative order mirrors ValueKind — kind() is the variant index.
  std::variant<std::monostate, bool, std::int64_t, double,
               std::shared_ptr<const StringPayload>, Buffer, ValueList,
               ChannelRef>
      v_;
};

/// The data plane's cutoff for payload bytes worth sharing rather than
/// copying. The codec carries string/blob payloads at or above it as Buffer
/// slices through frame assembly (and aliases them out of owned frames on
/// decode) — smaller ones are cheaper to copy into the arena than to track
/// as segments. The kernel runs a body on the manager thread (execute, or
/// start of an ImplDecl::inline_start entry) only while its parameters carry
/// fewer payload bytes than this (DESIGN.md §4.13).
inline constexpr std::size_t kZeroCopySliceThreshold = 256;

/// Convenience builder: vals(1, "x", true) -> ValueList.
template <class... Ts>
ValueList vals(Ts&&... ts) {
  ValueList out;
  out.reserve(sizeof...(Ts));
  (out.emplace_back(std::forward<Ts>(ts)), ...);
  return out;
}

std::string to_string(const ValueList& list);

}  // namespace alps
