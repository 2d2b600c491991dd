#ifndef GLOBALDB_SRC_STORAGE_VERSION_VALUE_H_
#define GLOBALDB_SRC_STORAGE_VERSION_VALUE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string_view>
#include <utility>

namespace globaldb {

/// The encoded row of one tuple version, in 32 bytes. A value of up to 31
/// bytes sits in place; a longer one lives in an exact-size heap block that
/// the value owns. The last byte is the tag: the inline length, or kHeap,
/// in which case the first 16 bytes hold the block's pointer and size. Most
/// TPC-C rows encode to 18–28 bytes, so most versions own no heap block
/// (DESIGN.md §12 "Row layout").
///
/// Views follow the owner: an inline value's bytes move whenever the value
/// does (a leaf shift moves its version), so `view()` stays valid only
/// while the value stays put and unchanged.
class VersionValue {
 public:
  static constexpr size_t kInlineCapacity = 31;
  /// The tag byte's offset within the value. The tag holds an inline length
  /// (0–31) or kHeap, so the codes from kFirstSpareTag up to kHeap - 1 are
  /// never written: a union that overlays a value may store one there to
  /// say that no value lives in it (VersionChain keeps its empty and
  /// spilled states that way).
  static constexpr size_t kTagByte = kInlineCapacity;
  static constexpr uint8_t kFirstSpareTag = kInlineCapacity + 1;

  VersionValue() { rep_[kTagByte] = 0; }
  explicit VersionValue(std::string_view bytes) { Init(bytes); }
  VersionValue(const VersionValue& other) { Init(other.view()); }
  VersionValue(VersionValue&& other) noexcept { TakeFrom(&other); }
  ~VersionValue() { Free(); }

  VersionValue& operator=(const VersionValue& other) {
    if (this != &other) *this = other.view();
    return *this;
  }
  VersionValue& operator=(VersionValue&& other) noexcept {
    if (this != &other) {
      Free();
      TakeFrom(&other);
    }
    return *this;
  }
  /// Copies `bytes` in. `bytes` may view this value itself.
  VersionValue& operator=(std::string_view bytes) {
    VersionValue fresh(bytes);
    return *this = std::move(fresh);
  }

  size_t size() const { return on_heap() ? HeapSize() : tag(); }
  const char* data() const { return on_heap() ? HeapData() : rep_; }
  std::string_view view() const { return std::string_view(data(), size()); }
  /// True when the bytes live in their own heap block (over 31 bytes).
  bool on_heap() const { return tag() == kHeap; }

 private:
  static constexpr uint8_t kHeap = 0xff;

  uint8_t tag() const { return static_cast<uint8_t>(rep_[kTagByte]); }
  char* HeapData() const {
    char* block = nullptr;
    std::memcpy(&block, rep_, sizeof(block));
    return block;
  }
  size_t HeapSize() const {
    size_t n = 0;
    std::memcpy(&n, rep_ + sizeof(char*), sizeof(n));
    return n;
  }

  void Init(std::string_view bytes) {
    const size_t n = bytes.size();
    if (n <= kInlineCapacity) {
      if (n > 0) std::memcpy(rep_, bytes.data(), n);
      rep_[kTagByte] = static_cast<char>(n);
      return;
    }
    char* block = static_cast<char*>(::operator new(n));
    std::memcpy(block, bytes.data(), n);
    std::memcpy(rep_, &block, sizeof(block));
    std::memcpy(rep_ + sizeof(block), &n, sizeof(n));
    rep_[kTagByte] = static_cast<char>(kHeap);
  }
  /// Takes `other`'s bytes or block; `other` is left empty.
  void TakeFrom(VersionValue* other) {
    std::memcpy(rep_, other->rep_, sizeof(rep_));
    other->rep_[kTagByte] = 0;
  }
  void Free() {
    if (on_heap()) ::operator delete(HeapData());
  }

  alignas(8) char rep_[kInlineCapacity + 1];
};

static_assert(sizeof(VersionValue) == 32);

}  // namespace globaldb

#endif  // GLOBALDB_SRC_STORAGE_VERSION_VALUE_H_
