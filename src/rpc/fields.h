#ifndef GLOBALDB_SRC_RPC_FIELDS_H_
#define GLOBALDB_SRC_RPC_FIELDS_H_

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/codec.h"
#include "src/common/slice.h"
#include "src/common/statusor.h"

namespace globaldb::rpc {

/// The shared wire codec (DESIGN.md §5). A message lists its fields once, in
/// wire order, by handing them to a visitor:
///
///   struct ReadRequest {
///     TableId table = kInvalidTableId;
///     RowKey key;
///     static void Fields(auto& self, auto&& visit) {
///       visit(self.table, self.key);
///     }
///   };
///
/// `self` is the message (const while encoding), and EncodedSize, EncodeTo,
/// Encode, DecodeFrom and Decode below walk that one list. Field encodings:
///
///   uint32_t                    varint32
///   uint64_t                    varint64
///   int64_t (SimDuration)       varint64 of the uint64_t cast, not zigzag
///   bool, enums                 one byte
///   StatusCode                  varint32 of the value
///   std::string                 length-prefixed copy
///   Slice                       length-prefixed view into the input
///   std::vector<T>              varint32 count, then the elements
///   a struct with Fields        its fields inline
///   Prefixed(nested)            the nested message, length-prefixed
///   Reserved<N>                 N zero bytes, skipped when decoding
///
/// Decoding rejects truncated input and ignores trailing bytes.
template <typename T>
struct Codec;

template <typename T>
concept HasFields = requires(T& msg) { T::Fields(msg, [](auto&&...) {}); };

/// A message that keeps a hand-written codec instead of a field list
/// (DESIGN.md §5 lists them and why).
template <typename T>
concept HandWritten = requires(const T& msg, Slice in) {
  { msg.Encode() } -> std::same_as<std::string>;
  { T::Decode(in) } -> std::same_as<StatusOr<T>>;
};

template <typename T>
size_t EncodedSize(const T& value) {
  return Codec<T>::Size(value);
}

template <typename T>
void EncodeTo(const T& value, std::string* dst) {
  Codec<T>::Put(dst, value);
}

/// Consumes one `T` from the front of `in`; false if `in` is truncated.
template <typename T>
bool DecodeFrom(Slice* in, T* value) {
  return Codec<T>::Get(in, value);
}

/// The bytes of `msg`, reserved once at their exact size.
template <typename T>
std::string Encode(const T& msg) {
  if constexpr (HandWritten<T>) {
    return msg.Encode();
  } else {
    std::string s;
    s.reserve(EncodedSize(msg));
    EncodeTo(msg, &s);
    return s;
  }
}

/// Decodes a whole message from `in`.
template <typename T>
StatusOr<T> Decode(Slice in) {
  if constexpr (HandWritten<T>) {
    return T::Decode(in);
  } else {
    T msg;
    if (!DecodeFrom(&in, &msg)) {
      return Status::Corruption("rpc: truncated message");
    }
    return msg;
  }
}

/// A nested message sent length-prefixed; see Prefixed().
template <typename T>
struct PrefixedField {
  T* msg;
};

/// Field-list wrapper: `visit(..., rpc::Prefixed(self.status))`.
template <typename T>
PrefixedField<T> Prefixed(T& msg) {
  return {&msg};
}

/// N zero bytes on the wire; decoding requires and skips them.
template <size_t N>
struct Reserved {};

// --- Field encodings -------------------------------------------------------

/// Integers and StatusCode: the varint of the value's uint64_t cast (not
/// zigzag, so a negative SimDuration takes ten bytes). A 32-bit field
/// rejects a wider value, as GetVarint32 does.
template <typename T>
  requires std::is_same_v<T, uint32_t> || std::is_same_v<T, uint64_t> ||
           std::is_same_v<T, int64_t> || std::is_same_v<T, StatusCode>
struct Codec<T> {
  static size_t Size(T v) { return VarintLength(static_cast<uint64_t>(v)); }
  static void Put(std::string* dst, T v) {
    PutVarint64(dst, static_cast<uint64_t>(v));
  }
  static bool Get(Slice* in, T* v) {
    uint64_t u = 0;
    if (!GetVarint64(in, &u) || (sizeof(T) == 4 && u > UINT32_MAX)) {
      return false;
    }
    *v = static_cast<T>(u);
    return true;
  }
};

template <typename T>
  requires std::is_same_v<T, bool> ||
           (std::is_enum_v<T> && !std::is_same_v<T, StatusCode>)
struct Codec<T> {
  static size_t Size(T) { return 1; }
  static void Put(std::string* dst, T v) {
    dst->push_back(static_cast<char>(v));
  }
  static bool Get(Slice* in, T* v) {
    if (in->empty()) return false;
    *v = static_cast<T>(static_cast<uint8_t>((*in)[0]));
    in->RemovePrefix(1);
    return true;
  }
};

template <typename T>
  requires std::is_same_v<T, Slice> || std::is_same_v<T, std::string>
struct Codec<T> {
  static size_t Size(const T& v) { return VarintLength(v.size()) + v.size(); }
  static void Put(std::string* dst, const T& v) { PutLengthPrefixed(dst, v); }
  static bool Get(Slice* in, T* v) {
    Slice bytes;
    if (!GetLengthPrefixed(in, &bytes)) return false;
    *v = T(bytes.data(), bytes.size());  // a view, or an exact-size copy
    return true;
  }
};

template <typename T>
struct Codec<std::vector<T>> {
  static size_t Size(const std::vector<T>& v) {
    size_t n = VarintLength(v.size());
    for (const T& e : v) n += Codec<T>::Size(e);
    return n;
  }
  static void Put(std::string* dst, const std::vector<T>& v) {
    PutVarint32(dst, static_cast<uint32_t>(v.size()));
    for (const T& e : v) Codec<T>::Put(dst, e);
  }
  static bool Get(Slice* in, std::vector<T>* v) {
    uint32_t n = 0;
    if (!GetVarint32(in, &n)) return false;
    v->clear();
    // Every element takes at least one byte, so a corrupt count cannot
    // reserve more than the input could hold.
    v->reserve(std::min<size_t>(n, in->size()));
    for (uint32_t i = 0; i < n; ++i) {
      if (!Codec<T>::Get(in, &v->emplace_back())) return false;
    }
    return true;
  }
};

template <HasFields T>
struct Codec<T> {
  static size_t Size(const T& msg) {
    size_t n = 0;
    T::Fields(msg, [&n](const auto&... f) {
      ((n += Codec<std::remove_cvref_t<decltype(f)>>::Size(f)), ...);
    });
    return n;
  }
  static void Put(std::string* dst, const T& msg) {
    T::Fields(msg, [dst](const auto&... f) {
      (Codec<std::remove_cvref_t<decltype(f)>>::Put(dst, f), ...);
    });
  }
  static bool Get(Slice* in, T* msg) {
    bool ok = false;
    T::Fields(*msg, [in, &ok](auto&&... f) {
      ok = (Codec<std::remove_cvref_t<decltype(f)>>::Get(in, &f) && ...);
    });
    return ok;
  }
};

template <typename T>
struct Codec<PrefixedField<T>> {
  using Inner = Codec<std::remove_const_t<T>>;
  static size_t Size(PrefixedField<T> f) {
    const size_t n = Inner::Size(*f.msg);
    return VarintLength(n) + n;
  }
  static void Put(std::string* dst, PrefixedField<T> f) {
    PutVarint64(dst, Inner::Size(*f.msg));
    Inner::Put(dst, *f.msg);
  }
  static bool Get(Slice* in, PrefixedField<T>* f) {
    Slice bytes;
    return GetLengthPrefixed(in, &bytes) && Inner::Get(&bytes, f->msg);
  }
};

template <size_t N>
struct Codec<Reserved<N>> {
  static size_t Size(Reserved<N>) { return N; }
  static void Put(std::string* dst, Reserved<N>) { dst->append(N, '\0'); }
  static bool Get(Slice* in, Reserved<N>*) {
    if (in->size() < N) return false;
    in->RemovePrefix(N);
    return true;
  }
};

}  // namespace globaldb::rpc

#endif  // GLOBALDB_SRC_RPC_FIELDS_H_
