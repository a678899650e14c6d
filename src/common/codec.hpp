// Canonical binary codec.
//
// Every hashed or signed structure in the library (messages, blocks,
// checkpoints, actor state) is serialized with this codec so that equal
// values always produce identical bytes (a requirement for content
// addressing — see cid.hpp). The format is a compact deterministic TLV-free
// encoding: fixed-width big-endian integers for ordering-sensitive fields,
// LEB128 varints for counts, and length-prefixed byte strings.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace hc {

/// Times an owned-mode Encoder buffer grew past already-reserved capacity.
/// The zero-copy hot path pre-sizes every encode (encoded_size() counting
/// pass + a single exact reservation), so on pre-sized paths this counter
/// must stay flat — the codec property tests assert exactly that.
[[nodiscard]] std::atomic<std::uint64_t>& codec_realloc_count();

/// Cap on a vector's element count (maps state their own caps).
inline constexpr std::size_t kMaxCount = std::size_t{1} << 20;

class Encoder;

/// A type whose layout is one field list, walked by the Encoder to encode
/// and by the FieldReader to decode:
///   template <class S, class Io> static void fields(S& s, Io& io) {
///     io.obj(s.dest).varint(s.method).bytes(s.params);
///   }
/// Any other codec type has a hand-written `void encode_to(Encoder&) const`
/// and `static Result<T> decode_from(Decoder&)`.
template <typename T>
concept HasFields = requires(T& v, Encoder& e) { T::fields(v, e); };

/// Append-only encoder. Methods return *this to allow chaining.
///
/// Three sink modes share one traversal:
///  - owned (default): appends into an internal Bytes buffer;
///  - counting (Encoder::sizer()): writes nothing, only tracks size() —
///    the first pass of a size-precomputed encode;
///  - external (Encoder(out, cap)): writes into caller storage previously
///    sized by a counting pass (encode()'s exactly-reserved buffer).
class Encoder {
 public:
  Encoder() = default;

  /// Counting encoder: size() advances, no bytes are stored.
  [[nodiscard]] static Encoder sizer() {
    Encoder e;
    e.counting_ = true;
    return e;
  }

  /// External-buffer encoder; writing past `cap` is a programming error
  /// (the counting pass determines `cap` exactly).
  Encoder(std::uint8_t* out, std::size_t cap) : ext_(out), ext_cap_(cap) {}

  Encoder& u8(std::uint8_t v);
  Encoder& u16(std::uint16_t v);   // big-endian
  Encoder& u32(std::uint32_t v);   // big-endian
  Encoder& u64(std::uint64_t v);   // big-endian
  Encoder& i64(std::int64_t v);    // zig-zag free: two's complement BE
  Encoder& varint(std::uint64_t v);  // LEB128
  Encoder& boolean(bool v);
  Encoder& bytes(BytesView v);     // varint length + raw
  Encoder& str(std::string_view v);

  /// Raw append with NO length prefix (for fixed-size digests etc.).
  Encoder& raw(BytesView v);

  /// Encode a type through its field list or its `encode_to`.
  template <typename T>
  Encoder& obj(const T& v) {
    if constexpr (HasFields<T>) {
      T::fields(v, *this);
    } else {
      v.encode_to(*this);
    }
    return *this;
  }

  /// An enum as one byte.
  template <typename E>
  Encoder& enumeration(E v) {
    return u8(static_cast<std::uint8_t>(v));
  }

  /// Varint count + items.
  template <typename T>
  Encoder& vec(const std::vector<T>& items) {
    varint(items.size());
    for (const auto& v : items) item(v);
    return *this;
  }

  /// Presence flag, then the value when present.
  template <typename T>
  Encoder& opt(const std::optional<T>& v) {
    boolean(v.has_value());
    if (v) item(*v);
    return *this;
  }

  /// Varint count + (key, value) pairs in key order; `max` bounds decoding.
  template <typename K, typename V>
  Encoder& map(const std::map<K, V>& m, std::size_t /*max*/) {
    varint(m.size());
    for (const auto& [k, v] : m) item(k).item(v);
    return *this;
  }

  /// Bytes produced so far (all modes).
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Reserve capacity ahead of appends (owned mode only; no-op otherwise).
  void reserve(std::size_t n) {
    if (!counting_ && ext_ == nullptr) buf_.reserve(n);
  }

  [[nodiscard]] const Bytes& data() const& { return buf_; }
  [[nodiscard]] Bytes&& take() && { return std::move(buf_); }

 private:
  /// A container element: Bytes length-prefixed, integers as varints.
  template <typename T>
  Encoder& item(const T& v) {
    if constexpr (std::is_same_v<T, Bytes>) {
      return bytes(v);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      return varint(v);
    } else {
      return obj(v);
    }
  }

  void put(const std::uint8_t* p, std::size_t n);
  void put_byte(std::uint8_t b);

  Bytes buf_;                        // owned mode storage
  std::uint8_t* ext_ = nullptr;      // external mode destination
  std::size_t ext_cap_ = 0;
  std::size_t size_ = 0;             // bytes produced (all modes)
  bool counting_ = false;
};

/// Bounds-checked decoder over a byte view.
class Decoder {
 public:
  explicit Decoder(BytesView data) : data_(data) {}

  [[nodiscard]] Result<std::uint8_t> u8();
  [[nodiscard]] Result<std::uint16_t> u16();
  [[nodiscard]] Result<std::uint32_t> u32();
  [[nodiscard]] Result<std::uint64_t> u64();
  [[nodiscard]] Result<std::int64_t> i64();
  [[nodiscard]] Result<std::uint64_t> varint();
  [[nodiscard]] Result<bool> boolean();
  [[nodiscard]] Result<Bytes> bytes();
  [[nodiscard]] Result<std::string> str();

  /// Read exactly `n` raw bytes (no length prefix).
  [[nodiscard]] Result<Bytes> raw(std::size_t n);

  /// Decode a T through its field list or its `decode_from`.
  template <typename T>
  [[nodiscard]] Result<T> obj();

  /// Decode a vector of T (varint count + items). `max` guards against
  /// maliciously huge counts.
  template <typename T>
  [[nodiscard]] Result<std::vector<T>> vec(std::size_t max = kMaxCount);

  /// True when all input has been consumed.
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  [[nodiscard]] Status need(std::size_t n);

  BytesView data_;
  std::size_t pos_ = 0;
};

/// The decoding walker of a field list: the Encoder's methods, over
/// references. The first error sticks: every later call reads nothing, and
/// status() reports that error.
class FieldReader {
 public:
  explicit FieldReader(Decoder& d) : d_(d) {}

  FieldReader& u8(std::uint8_t& v) { return read<&Decoder::u8>(v); }
  FieldReader& u32(std::uint32_t& v) { return read<&Decoder::u32>(v); }
  FieldReader& u64(std::uint64_t& v) { return read<&Decoder::u64>(v); }
  FieldReader& i64(std::int64_t& v) { return read<&Decoder::i64>(v); }
  FieldReader& varint(std::uint64_t& v) { return read<&Decoder::varint>(v); }
  FieldReader& boolean(bool& v) { return read<&Decoder::boolean>(v); }
  FieldReader& str(std::string& v) { return read<&Decoder::str>(v); }
  /// Into Bytes or anything built from Bytes.
  template <typename B>
  FieldReader& bytes(B& v) {
    return read<&Decoder::bytes>(v);
  }

  /// Exactly N raw bytes (no length prefix).
  template <std::size_t N>
  FieldReader& raw(std::array<std::uint8_t, N>& v) {
    if (ok()) {
      auto r = d_.raw(N);
      if (r) std::copy(r.value().begin(), r.value().end(), v.begin());
      else fail(r.error());
    }
    return *this;
  }

  /// One byte in [E::kFirst (0 if absent), E::kLast].
  template <typename E>
  FieldReader& enumeration(E& v) {
    constexpr auto first = [] {
      if constexpr (requires { E::kFirst; }) return E::kFirst;
      return E{};
    }();
    std::uint8_t b = 0;
    u8(b);
    if (!ok()) return *this;
    if (b < static_cast<std::uint8_t>(first) ||
        b > static_cast<std::uint8_t>(E::kLast)) {
      return fail(Error(Errc::kDecodeError, "enum value out of range"));
    }
    v = static_cast<E>(b);
    return *this;
  }

  template <typename T>
  FieldReader& obj(T& v) {
    if (!ok()) return *this;
    if constexpr (HasFields<T>) {
      T::fields(v, *this);
    } else {
      take(v, T::decode_from(d_));
    }
    return *this;
  }

  template <typename T>
  FieldReader& vec(std::vector<T>& v, std::size_t max = kMaxCount) {
    std::uint64_t n = 0;
    if (!count(n, max)) return *this;
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n && ok(); ++i) item(v.emplace_back());
    return *this;
  }

  template <typename T>
  FieldReader& opt(std::optional<T>& v) {
    bool present = false;
    boolean(present);
    if (ok() && present) item(v.emplace());
    return *this;
  }

  /// Pairs are inserted as read; a repeated key keeps its first value.
  template <typename K, typename V>
  FieldReader& map(std::map<K, V>& m, std::size_t max) {
    std::uint64_t n = 0;
    if (!count(n, max)) return *this;
    for (std::uint64_t i = 0; i < n && ok(); ++i) {
      K k{};
      V v{};
      item(k).item(v);
      if (ok()) m.emplace(std::move(k), std::move(v));
    }
    return *this;
  }

  [[nodiscard]] bool ok() const { return !error_.has_value(); }
  [[nodiscard]] Status status() const {
    return error_ ? Status(*error_) : ok_status();
  }

 private:
  FieldReader& fail(Error e) {
    error_ = std::move(e);
    return *this;
  }

  template <typename V, typename R>
  void take(V& out, Result<R> r) {
    if (r) out = std::move(r).value();
    else fail(r.error());
  }

  template <auto Get, typename V>
  FieldReader& read(V& out) {
    if (ok()) take(out, (d_.*Get)());
    return *this;
  }

  /// A container's element count, within `max` and the input left: every
  /// element encodes to at least one byte, so a larger count is malformed
  /// and must not size an allocation.
  bool count(std::uint64_t& n, std::size_t max) {
    varint(n);
    if (ok() && n > max) fail(Error(Errc::kDecodeError, "count over cap"));
    if (ok() && n > d_.remaining()) {
      fail(Error(Errc::kDecodeError, "count exceeds input"));
    }
    return ok();
  }

  /// A container element: Bytes length-prefixed, integers as varints.
  template <typename T>
  FieldReader& item(T& v) {
    if constexpr (std::is_same_v<T, Bytes>) {
      return bytes(v);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      return varint(v);
    } else {
      return obj(v);
    }
  }

  Decoder& d_;
  std::optional<Error> error_;
};

template <typename T>
Result<T> Decoder::obj() {
  if constexpr (HasFields<T>) {
    T v{};
    FieldReader r(*this);
    T::fields(v, r);
    HC_TRY_STATUS(r.status());
    return v;
  } else {
    return T::decode_from(*this);
  }
}

template <typename T>
Result<std::vector<T>> Decoder::vec(std::size_t max) {
  std::vector<T> out;
  FieldReader r(*this);
  r.vec(out, max);
  HC_TRY_STATUS(r.status());
  return out;
}

/// Encode a bare integer as a varint blob (event payloads, ids).
[[nodiscard]] inline Bytes encode_varint(std::uint64_t v) {
  Encoder e;
  e.varint(v);
  return std::move(e).take();
}

/// Decode a bare varint blob.
[[nodiscard]] inline Result<std::uint64_t> decode_varint(BytesView data) {
  Decoder d(data);
  HC_TRY(v, d.varint());
  if (!d.done()) return Error(Errc::kDecodeError, "trailing bytes");
  return v;
}

/// Exact encoded size of an object (counting traversal; allocation-free).
template <typename T>
[[nodiscard]] std::size_t encoded_size(const T& v) {
  Encoder e = Encoder::sizer();
  e.obj(v);
  return e.size();
}

/// Encode a single encodable object to bytes. Two-pass: a counting
/// traversal sizes the buffer, then a second pass fills it — exactly one
/// allocation, never a realloc, regardless of object shape.
template <typename T>
[[nodiscard]] Bytes encode(const T& v) {
  Bytes out(encoded_size(v));
  Encoder e(out.data(), out.size());
  e.obj(v);
  return out;
}

/// Decode a single object, requiring the input to be fully consumed.
template <typename T>
[[nodiscard]] Result<T> decode(BytesView data) {
  Decoder d(data);
  HC_TRY(v, d.obj<T>());
  if (!d.done()) return Error(Errc::kDecodeError, "trailing bytes");
  return v;
}

}  // namespace hc
