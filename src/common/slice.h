#ifndef GLOBALDB_SRC_COMMON_SLICE_H_
#define GLOBALDB_SRC_COMMON_SLICE_H_

#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>

namespace globaldb {

/// A non-owning view of a byte range, interchangeable with std::string_view
/// but named to match database-engine convention. Used for keys, values, and
/// encoded log payloads.
class Slice {
 public:
  Slice() : data_(""), size_(0) {}
  Slice(const char* data, size_t size) : data_(data), size_(size) {}
  Slice(const std::string& s) : data_(s.data()), size_(s.size()) {}  // NOLINT
  Slice(std::string_view s) : data_(s.data()), size_(s.size()) {}    // NOLINT
  Slice(const char* s) : data_(s), size_(strlen(s)) {}               // NOLINT

  const char* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  char operator[](size_t i) const { return data_[i]; }

  /// Drops the first n bytes (n must be <= size()).
  void RemovePrefix(size_t n) {
    data_ += n;
    size_ -= n;
  }

  std::string ToString() const { return std::string(data_, size_); }
  std::string_view ToView() const { return std::string_view(data_, size_); }

  int Compare(const Slice& other) const {
    const size_t min_len = size_ < other.size_ ? size_ : other.size_;
    int r = memcmp(data_, other.data_, min_len);
    if (r == 0) {
      if (size_ < other.size_) r = -1;
      else if (size_ > other.size_) r = 1;
    }
    return r;
  }

  bool StartsWith(const Slice& prefix) const {
    return size_ >= prefix.size_ &&
           memcmp(data_, prefix.data_, prefix.size_) == 0;
  }

 private:
  const char* data_;
  size_t size_;
};

inline bool operator==(const Slice& a, const Slice& b) {
  return a.size() == b.size() && memcmp(a.data(), b.data(), a.size()) == 0;
}
inline bool operator!=(const Slice& a, const Slice& b) { return !(a == b); }
inline bool operator<(const Slice& a, const Slice& b) {
  return a.Compare(b) < 0;
}

/// A borrowed key/value pair: both views point into bytes someone else owns
/// (an MvccTable's version chains, or a received reply buffer), and are
/// valid only as long as that owner leaves them in place.
struct KeyValueView {
  Slice key;
  Slice value;

  /// Wire field list (src/rpc/fields.h).
  static void Fields(auto& self, auto&& visit) { visit(self.key, self.value); }
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_COMMON_SLICE_H_
