#ifndef GLOBALDB_SRC_CLUSTER_JOIN_KEYS_H_
#define GLOBALDB_SRC_CLUSTER_JOIN_KEYS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/slice.h"
#include "src/storage/value.h"

namespace globaldb {

/// The lookup-join keys of a run of rows (DESIGN.md §14), built back to
/// back into one buffer instead of one string per key. Key i is `prefix`
/// followed by the encoded join columns of the i-th row added. Views
/// returned by key() and Sorted() point into the buffer: they stay valid
/// while the JoinKeys object lives, does not move, and no key is added.
class JoinKeys {
 public:
  JoinKeys(Slice prefix, const std::vector<uint32_t>& cols,
           size_t expected_rows)
      : prefix_(prefix), cols_(&cols) {
    spans_.reserve(expected_rows);
  }

  /// Appends the key `row` derives. Returns false, adding nothing, when a
  /// join column is out of range for the row.
  bool Add(const Row& row) {
    for (uint32_t col : *cols_) {
      if (col >= row.size()) return false;
    }
    const size_t offset = bytes_.size();
    bytes_.append(prefix_.data(), prefix_.size());
    for (uint32_t col : *cols_) EncodeKeyPart(row[col], &bytes_);
    spans_.emplace_back(offset, bytes_.size() - offset);
    return true;
  }

  size_t size() const { return spans_.size(); }
  Slice key(size_t i) const {
    return Slice(bytes_.data() + spans_[i].first, spans_[i].second);
  }

  /// Indices of the first occurrence of each distinct key, in insertion
  /// order: a stable sort groups equal keys with the earliest first.
  std::vector<uint32_t> FirstOccurrences() const {
    std::vector<uint32_t> order(size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [this](uint32_t a,
                                                        uint32_t b) {
      return key(a) < key(b);
    });
    std::vector<uint32_t> first;
    first.reserve(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      if (i == 0 || key(order[i - 1]) != key(order[i])) {
        first.push_back(order[i]);
      }
    }
    std::sort(first.begin(), first.end());
    return first;
  }

  /// Every key, ascending (duplicates kept).
  std::vector<Slice> Sorted() const {
    std::vector<Slice> keys;
    keys.reserve(size());
    for (size_t i = 0; i < size(); ++i) keys.push_back(key(i));
    std::sort(keys.begin(), keys.end());
    return keys;
  }

 private:
  Slice prefix_;
  const std::vector<uint32_t>* cols_;
  std::string bytes_;
  std::vector<std::pair<size_t, size_t>> spans_;  // offset, length
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_CLUSTER_JOIN_KEYS_H_
