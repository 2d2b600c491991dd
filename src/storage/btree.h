#ifndef GLOBALDB_SRC_STORAGE_BTREE_H_
#define GLOBALDB_SRC_STORAGE_BTREE_H_

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace globaldb {

/// In-memory B+-tree keyed by binary strings (the order-preserving key
/// encoding from storage/value.h), used as the primary index of every MVCC
/// table. Leaves are linked for ordered range scans.
///
/// Erase uses lazy deletion: entries are removed from leaves without
/// rebalancing (underfull leaves are tolerated; an empty leaf is unlinked
/// from scans logically by skipping). This keeps the code simple; MVCC
/// deletes are version markers, so physical erase only happens on table
/// truncation and in tests.
template <typename V>
class BTree {
 private:
  struct Node {
    explicit Node(bool leaf) : is_leaf(leaf) {}
    virtual ~Node() = default;
    bool is_leaf;
  };

  struct Leaf : Node {
    Leaf() : Node(true) {}
    std::vector<std::pair<std::string, V>> entries;
    Leaf* next = nullptr;
  };

  struct Internal : Node {
    Internal() : Node(false) {}
    // children.size() == keys.size() + 1; keys[i] is the smallest key in
    // children[i + 1]'s subtree.
    std::vector<std::string> keys;
    std::vector<std::unique_ptr<Node>> children;
  };

 public:
  static constexpr int kFanout = 64;        // max children per internal node
  static constexpr int kLeafCapacity = 64;  // max entries per leaf

  BTree() {
    root_ = MakeLeaf();
    first_leaf_ = static_cast<Leaf*>(root_.get());
  }

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Inserts or assigns. Returns a pointer to the stored value (stable until
  /// the next structural modification of its leaf).
  V* Put(const std::string& key, V value) {
    SplitResult split = InsertRec(root_.get(), key, &value);
    if (split.happened) {
      auto new_root = std::make_unique<Internal>();
      new_root->keys.push_back(split.separator);
      new_root->children.push_back(std::move(root_));
      new_root->children.push_back(std::move(split.right));
      root_ = std::move(new_root);
    }
    return Find(key);
  }

  /// Returns the value for `key`, or nullptr.
  V* Find(std::string_view key) {
    Node* node = root_.get();
    while (!node->is_leaf) {
      Internal* in = static_cast<Internal*>(node);
      node = in->children[ChildIndex(in, key)].get();
    }
    Leaf* leaf = static_cast<Leaf*>(node);
    auto it = LowerBound(leaf, key);
    if (it != leaf->entries.end() && it->first == key) return &it->second;
    return nullptr;
  }
  const V* Find(std::string_view key) const {
    return const_cast<BTree*>(this)->Find(key);
  }

  /// Fills this empty tree bottom-up from `entries`: leaves packed to
  /// kLeafCapacity in order, then each internal level packed to kFanout
  /// children up to the root. Returns false, leaving the tree empty, unless
  /// the keys are strictly ascending.
  bool Build(std::vector<std::pair<std::string, V>> entries) {
    assert(empty());
    for (size_t i = 1; i < entries.size(); ++i) {
      if (!(entries[i - 1].first < entries[i].first)) return false;
    }
    if (entries.empty()) return true;
    // Each level as (node, smallest key in its subtree).
    std::vector<std::pair<std::unique_ptr<Node>, std::string>> level;
    level.reserve((entries.size() + kLeafCapacity - 1) / kLeafCapacity);
    Leaf* prev = nullptr;
    for (size_t begin = 0; begin < entries.size(); begin += kLeafCapacity) {
      const size_t end = std::min(entries.size(), begin + kLeafCapacity);
      auto leaf = std::make_unique<Leaf>();
      leaf->entries.assign(std::make_move_iterator(entries.begin() + begin),
                           std::make_move_iterator(entries.begin() + end));
      if (prev == nullptr) {
        first_leaf_ = leaf.get();
      } else {
        prev->next = leaf.get();
      }
      prev = leaf.get();
      std::string min_key = leaf->entries.front().first;
      level.emplace_back(std::move(leaf), std::move(min_key));
    }
    while (level.size() > 1) {
      std::vector<std::pair<std::unique_ptr<Node>, std::string>> parents;
      parents.reserve((level.size() + kFanout - 1) / kFanout);
      for (size_t begin = 0; begin < level.size(); begin += kFanout) {
        const size_t end = std::min(level.size(), begin + kFanout);
        auto in = std::make_unique<Internal>();
        in->keys.reserve(end - begin - 1);
        in->children.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) {
          if (i > begin) in->keys.push_back(std::move(level[i].second));
          in->children.push_back(std::move(level[i].first));
        }
        parents.emplace_back(std::move(in), std::move(level[begin].second));
      }
      level = std::move(parents);
    }
    root_ = std::move(level.front().first);
    size_ = entries.size();
    return true;
  }

  /// Gets-or-default-constructs.
  V& operator[](const std::string& key) {
    V* v = Find(key);
    if (v != nullptr) return *v;
    return *Put(key, V{});
  }

  /// Removes `key`. Returns true if it was present.
  bool Erase(const std::string& key) {
    Node* node = root_.get();
    while (!node->is_leaf) {
      Internal* in = static_cast<Internal*>(node);
      node = in->children[ChildIndex(in, key)].get();
    }
    Leaf* leaf = static_cast<Leaf*>(node);
    auto it = LowerBound(leaf, key);
    if (it == leaf->entries.end() || it->first != key) return false;
    leaf->entries.erase(it);
    --size_;
    return true;
  }

  /// Forward iterator over (key, value) pairs in key order.
  class Iterator {
   public:
    Iterator() = default;
    Iterator(Leaf* leaf, size_t index) : leaf_(leaf), index_(index) {
      SkipEmpty();
    }

    bool Valid() const { return leaf_ != nullptr; }
    const std::string& key() const { return leaf_->entries[index_].first; }
    V& value() const { return leaf_->entries[index_].second; }

    void Next() {
      ++index_;
      SkipEmpty();
    }

   private:
    void SkipEmpty() {
      while (leaf_ != nullptr && index_ >= leaf_->entries.size()) {
        leaf_ = leaf_->next;
        index_ = 0;
      }
    }
    Leaf* leaf_ = nullptr;
    size_t index_ = 0;

    friend class BTree;
  };

  /// Iterator at the first entry with key >= `key`.
  Iterator LowerBound(std::string_view key) {
    Node* node = root_.get();
    while (!node->is_leaf) {
      Internal* in = static_cast<Internal*>(node);
      node = in->children[ChildIndex(in, key)].get();
    }
    Leaf* leaf = static_cast<Leaf*>(node);
    auto it = LowerBound(leaf, key);
    return Iterator(leaf, static_cast<size_t>(it - leaf->entries.begin()));
  }

  Iterator Begin() { return Iterator(first_leaf_, 0); }

  /// Tree height (1 = just a leaf); for tests.
  int Height() const {
    int h = 1;
    const Node* node = root_.get();
    while (!node->is_leaf) {
      node = static_cast<const Internal*>(node)->children[0].get();
      ++h;
    }
    return h;
  }

  /// Verifies structural invariants (key ordering within and across nodes,
  /// separators bounding their subtrees, every leaf at the same depth); for
  /// tests. Returns false on violation.
  bool CheckInvariants() const {
    int leaf_depth = 0;
    if (!CheckSubtree(root_.get(), nullptr, nullptr, 1, &leaf_depth)) {
      return false;
    }
    std::string prev;
    bool first = true;
    const Leaf* leaf = first_leaf_;
    size_t counted = 0;
    while (leaf != nullptr) {
      for (const auto& e : leaf->entries) {
        if (!first && !(prev < e.first)) return false;
        prev = e.first;
        first = false;
        ++counted;
      }
      leaf = leaf->next;
    }
    return counted == size_;
  }

 private:
  struct SplitResult {
    bool happened = false;
    std::string separator;
    std::unique_ptr<Node> right;
  };

  /// Every key under `node` lies in [lo, hi) (null = unbounded).
  static bool CheckSubtree(const Node* node, const std::string* lo,
                           const std::string* hi, int depth,
                           int* leaf_depth) {
    if (node->is_leaf) {
      if (*leaf_depth == 0) *leaf_depth = depth;
      if (*leaf_depth != depth) return false;
      for (const auto& e : static_cast<const Leaf*>(node)->entries) {
        if ((lo != nullptr && e.first < *lo) ||
            (hi != nullptr && !(e.first < *hi))) {
          return false;
        }
      }
      return true;
    }
    const Internal* in = static_cast<const Internal*>(node);
    if (in->children.size() != in->keys.size() + 1) return false;
    for (size_t i = 0; i < in->children.size(); ++i) {
      const std::string* child_lo = i == 0 ? lo : &in->keys[i - 1];
      const std::string* child_hi = i == in->keys.size() ? hi : &in->keys[i];
      if (child_lo != nullptr && child_hi != nullptr &&
          !(*child_lo < *child_hi)) {
        return false;
      }
      if (!CheckSubtree(in->children[i].get(), child_lo, child_hi, depth + 1,
                        leaf_depth)) {
        return false;
      }
    }
    return true;
  }

  static std::unique_ptr<Node> MakeLeaf() { return std::make_unique<Leaf>(); }

  static typename std::vector<std::pair<std::string, V>>::iterator LowerBound(
      Leaf* leaf, std::string_view key) {
    return std::lower_bound(
        leaf->entries.begin(), leaf->entries.end(), key,
        [](const auto& entry, std::string_view k) { return entry.first < k; });
  }

  static size_t ChildIndex(Internal* in, std::string_view key) {
    // First key > `key` determines the child: children[i] holds keys in
    // [keys[i-1], keys[i]).
    auto it = std::upper_bound(in->keys.begin(), in->keys.end(), key);
    return static_cast<size_t>(it - in->keys.begin());
  }
  static size_t ChildIndex(const Internal* in, std::string_view key) {
    return ChildIndex(const_cast<Internal*>(in), key);
  }

  SplitResult InsertRec(Node* node, const std::string& key, V* value) {
    if (node->is_leaf) {
      Leaf* leaf = static_cast<Leaf*>(node);
      auto it = LowerBound(leaf, key);
      if (it != leaf->entries.end() && it->first == key) {
        it->second = std::move(*value);  // assign
        return {};
      }
      leaf->entries.insert(it, {key, std::move(*value)});
      ++size_;
      if (leaf->entries.size() <= kLeafCapacity) return {};
      // Split the leaf.
      auto right = std::make_unique<Leaf>();
      const size_t mid = leaf->entries.size() / 2;
      right->entries.assign(
          std::make_move_iterator(leaf->entries.begin() + mid),
          std::make_move_iterator(leaf->entries.end()));
      leaf->entries.resize(mid);
      right->next = leaf->next;
      leaf->next = right.get();
      SplitResult result;
      result.happened = true;
      result.separator = right->entries.front().first;
      result.right = std::move(right);
      return result;
    }

    Internal* in = static_cast<Internal*>(node);
    const size_t idx = ChildIndex(in, key);
    SplitResult child_split = InsertRec(in->children[idx].get(), key, value);
    if (!child_split.happened) return {};
    in->keys.insert(in->keys.begin() + idx, child_split.separator);
    in->children.insert(in->children.begin() + idx + 1,
                        std::move(child_split.right));
    if (in->children.size() <= kFanout) return {};
    // Split the internal node.
    auto right = std::make_unique<Internal>();
    const size_t mid_key = in->keys.size() / 2;
    SplitResult result;
    result.happened = true;
    result.separator = in->keys[mid_key];
    right->keys.assign(std::make_move_iterator(in->keys.begin() + mid_key + 1),
                       std::make_move_iterator(in->keys.end()));
    right->children.assign(
        std::make_move_iterator(in->children.begin() + mid_key + 1),
        std::make_move_iterator(in->children.end()));
    in->keys.resize(mid_key);
    in->children.resize(mid_key + 1);
    result.right = std::move(right);
    return result;
  }

  std::unique_ptr<Node> root_;
  Leaf* first_leaf_ = nullptr;
  size_t size_ = 0;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_STORAGE_BTREE_H_
