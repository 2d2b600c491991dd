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
/// followed by the key parts of the join columns of the i-th row added,
/// read from the row's encoded bytes. Views returned by key() and Sorted()
/// point into the buffer: they stay valid while the JoinKeys object lives,
/// does not move, and no key is added.
class JoinKeys {
 public:
  JoinKeys(Slice prefix, const std::vector<uint32_t>& cols,
           size_t expected_rows)
      : prefix_(prefix), cols_(&cols) {
    spans_.reserve(expected_rows);
  }

  /// Appends the key the encoded row `row` derives. Returns false, adding
  /// nothing, when the row does not decode or lacks a join column.
  bool Add(Slice row) {
    const size_t offset = bytes_.size();
    bytes_.append(prefix_.data(), prefix_.size());
    if (!AppendRowKeyParts(row, *cols_, &fields_, &bytes_)) {
      bytes_.resize(offset);
      return false;
    }
    spans_.emplace_back(offset, bytes_.size() - offset);
    return true;
  }

  size_t size() const { return spans_.size(); }
  Slice key(size_t i) const {
    return Slice(bytes_.data() + spans_[i].first, spans_[i].second);
  }

  /// The distinct keys in ascending order, each as the index of its first
  /// occurrence: one sort of the indices by (key, index), keeping the first
  /// of each run of equal keys.
  std::vector<uint32_t> DistinctAscending() const {
    std::vector<uint32_t> order(size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
      const int c = key(a).Compare(key(b));
      return c < 0 || (c == 0 && a < b);
    });
    order.erase(std::unique(order.begin(), order.end(),
                            [this](uint32_t a, uint32_t b) {
                              return key(a) == key(b);
                            }),
                order.end());
    return order;
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
  std::vector<Slice> fields_;  // AppendRowKeyParts' scratch
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_CLUSTER_JOIN_KEYS_H_
