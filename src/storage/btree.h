#ifndef GLOBALDB_SRC_STORAGE_BTREE_H_
#define GLOBALDB_SRC_STORAGE_BTREE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/codec.h"

namespace globaldb {

/// A key interned in a KeyArena: the address of its varint length prefix,
/// with the key's bytes right behind it. A leaf slot holds this 8-byte
/// handle where a string_view would take 16; view() decodes the prefix,
/// which is one byte for any key under 128 bytes.
class InternedKey {
 public:
  explicit InternedKey(const char* prefix) : prefix_(prefix) {}

  std::string_view view() const {
    const auto* p = reinterpret_cast<const unsigned char*>(prefix_);
    if (*p < 0x80) return {prefix_ + 1, *p};
    size_t len = 0;
    int shift = 0;
    while (*p >= 0x80) {
      len |= static_cast<size_t>(*p++ & 0x7f) << shift;
      shift += 7;
    }
    len |= static_cast<size_t>(*p++) << shift;
    return {reinterpret_cast<const char*>(p), len};
  }

 private:
  const char* prefix_;
};

/// Append-only byte arena that owns a BTree's keys. Each key is copied in
/// once, behind its varint length; every handle Intern returns stays valid
/// until the arena dies, because chunks never move and bytes are never
/// freed. Chunks start small (tiny tables stay tiny) and double up to
/// kMaxChunk; a key too large for the next chunk gets a block of its own and
/// leaves the current chunk open.
class KeyArena {
 public:
  static constexpr size_t kMinChunk = 256;
  static constexpr size_t kMaxChunk = 64 * 1024;

  KeyArena() = default;
  KeyArena(const KeyArena&) = delete;
  KeyArena& operator=(const KeyArena&) = delete;

  /// Arena bytes one interned key takes: its length prefix and its bytes.
  static size_t InternedSize(std::string_view key) {
    return VarintLength(key.size()) + key.size();
  }

  InternedKey Intern(std::string_view key) {
    const size_t bytes = InternedSize(key);
    char* dst;
    if (bytes <= left_) {
      dst = Take(bytes);
    } else if (bytes > next_chunk_ / 2) {
      dst = Allocate(bytes);
    } else {
      StartChunk(next_chunk_);
      next_chunk_ = std::min(2 * next_chunk_, kMaxChunk);
      dst = Take(bytes);
    }
    char* p = dst;
    uint64_t len = key.size();
    while (len >= 0x80) {
      *p++ = static_cast<char>(len | 0x80);
      len >>= 7;
    }
    *p++ = static_cast<char>(len);
    if (!key.empty()) memcpy(p, key.data(), key.size());
    return InternedKey(dst);
  }

  /// Makes the next `bytes` bytes of interned keys (InternedSize each) fit
  /// one chunk (bulk builds size the chunk exactly).
  void Reserve(size_t bytes) {
    if (bytes > left_) StartChunk(bytes);
  }

  /// Bytes held in chunks and oversized-key blocks.
  size_t bytes_allocated() const { return bytes_allocated_; }

 private:
  char* Allocate(size_t bytes) {
    chunks_.push_back(std::make_unique<char[]>(bytes));
    bytes_allocated_ += bytes;
    return chunks_.back().get();
  }
  void StartChunk(size_t bytes) {
    cur_ = Allocate(bytes);
    left_ = bytes;
  }
  char* Take(size_t bytes) {
    char* dst = cur_;
    cur_ += bytes;
    left_ -= bytes;
    return dst;
  }

  std::vector<std::unique_ptr<char[]>> chunks_;
  char* cur_ = nullptr;
  size_t left_ = 0;
  size_t next_chunk_ = kMinChunk;
  size_t bytes_allocated_ = 0;
};

/// In-memory B+-tree keyed by binary strings (the order-preserving key
/// encoding from storage/value.h), used as the primary index of every MVCC
/// table. Leaves are linked for ordered range scans.
///
/// Keys are interned: the tree copies each distinct key once into its
/// KeyArena; a leaf slot holds the key's 8-byte handle and separators hold
/// views of its bytes. A key's bytes live until the tree dies, so a view
/// from key() or an entry stays valid across any later insert, split or
/// erase.
///
/// A leaf never holds more than kLeafCapacity slots: a full leaf splits
/// before the insert, and leaf vectors grow by kLeafGrowth slots at a time
/// up to the cap, so a leaf grown by inserts has fewer than kLeafGrowth
/// spare slots. A split leaves no stranded slots behind: each half is
/// trimmed to its size (plus one growth step for the half that takes the
/// new key), and an insert that continues an ascending run splits at the
/// insertion point, so the left leaf stays full (DESIGN.md §12 "Leaf
/// splits").
///
/// Erase uses lazy deletion: entries are removed from leaves without
/// rebalancing (underfull leaves are tolerated; an empty leaf is unlinked
/// from scans logically by skipping). This keeps the code simple; MVCC
/// deletes are version markers, so physical erase only happens in tests.
template <typename V>
class BTree {
 public:
  /// A leaf slot: the interned key's handle and its value.
  struct Entry {
    Entry(InternedKey k, V&& v) : key(k), value(std::move(v)) {}
    InternedKey key;
    V value;
  };
  /// Build's input: a key viewing the caller's bytes, and its value.
  using KeyValue = std::pair<std::string_view, V>;

 private:
  struct Node {
    explicit Node(bool leaf) : is_leaf(leaf) {}
    virtual ~Node() = default;
    bool is_leaf;
  };

  struct Leaf : Node {
    static constexpr uint8_t kNoInsert = 0xff;
    Leaf() : Node(true) {}
    std::vector<Entry> entries;
    Leaf* next = nullptr;
    // Position of the last key inserted here, or kNoInsert.
    uint8_t last_insert = kNoInsert;
  };

  struct Internal : Node {
    Internal() : Node(false) {}
    // children.size() == keys.size() + 1; keys[i] is the smallest key in
    // children[i + 1]'s subtree.
    std::vector<std::string_view> keys;
    std::vector<std::unique_ptr<Node>> children;
  };

 public:
  static constexpr int kFanout = 64;        // max children per internal node
  static constexpr int kLeafCapacity = 64;  // max entries per leaf
  static constexpr int kLeafGrowth = 8;     // slots a full leaf vector gains

  BTree() {
    root_ = MakeLeaf();
    first_leaf_ = static_cast<Leaf*>(root_.get());
  }

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The entry for `key`, or nullptr. Entries are stable until the next
  /// insert into their leaf.
  Entry* FindEntry(std::string_view key) {
    Leaf* leaf = FindLeaf(key);
    auto it = LowerBound(leaf, key);
    if (it != leaf->entries.end() && it->key.view() == key) return &*it;
    return nullptr;
  }

  /// The entry for `key`, default-constructing its value (and interning the
  /// key) if absent; one descent either way.
  Entry& FindOrInsert(std::string_view key) {
    SplitResult split;
    Entry* entry = InsertRec(root_.get(), key, &split);
    if (split.right != nullptr) {
      auto new_root = std::make_unique<Internal>();
      new_root->keys.push_back(split.separator);
      new_root->children.push_back(std::move(root_));
      new_root->children.push_back(std::move(split.right));
      root_ = std::move(new_root);
    }
    return *entry;
  }

  /// Returns the value for `key`, or nullptr.
  V* Find(std::string_view key) {
    Entry* entry = FindEntry(key);
    return entry == nullptr ? nullptr : &entry->value;
  }
  const V* Find(std::string_view key) const {
    return const_cast<BTree*>(this)->Find(key);
  }

  /// Inserts or assigns. Returns a pointer to the stored value (stable until
  /// the next structural modification of its leaf).
  V* Put(std::string_view key, V value) {
    V* stored = &FindOrInsert(key).value;
    *stored = std::move(value);
    return stored;
  }

  /// Gets-or-default-constructs.
  V& operator[](std::string_view key) { return FindOrInsert(key).value; }

  /// Fills this empty tree bottom-up from `entries`: leaves packed to
  /// kLeafCapacity in order, then each internal level packed to kFanout
  /// children up to the root. The keys may view the caller's bytes (an
  /// image, a row batch): they are interned into one arena chunk sized to
  /// fit them all. Returns false, leaving the tree empty, unless the keys
  /// are strictly ascending.
  bool Build(std::vector<KeyValue> entries) {
    assert(empty());
    size_t key_bytes = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (i > 0 && !(entries[i - 1].first < entries[i].first)) return false;
      key_bytes += KeyArena::InternedSize(entries[i].first);
    }
    if (entries.empty()) return true;
    keys_.Reserve(key_bytes);
    // Each level as (node, smallest key in its subtree).
    std::vector<std::pair<std::unique_ptr<Node>, std::string_view>> level;
    level.reserve((entries.size() + kLeafCapacity - 1) / kLeafCapacity);
    Leaf* prev = nullptr;
    for (size_t begin = 0; begin < entries.size(); begin += kLeafCapacity) {
      const size_t end = std::min(entries.size(), begin + kLeafCapacity);
      auto leaf = std::make_unique<Leaf>();
      leaf->entries.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        leaf->entries.emplace_back(keys_.Intern(entries[i].first),
                                   std::move(entries[i].second));
      }
      if (prev == nullptr) {
        first_leaf_ = leaf.get();
      } else {
        prev->next = leaf.get();
      }
      prev = leaf.get();
      const std::string_view min_key = leaf->entries.front().key.view();
      level.emplace_back(std::move(leaf), min_key);
    }
    while (level.size() > 1) {
      std::vector<std::pair<std::unique_ptr<Node>, std::string_view>> parents;
      parents.reserve((level.size() + kFanout - 1) / kFanout);
      for (size_t begin = 0; begin < level.size(); begin += kFanout) {
        const size_t end = std::min(level.size(), begin + kFanout);
        auto in = std::make_unique<Internal>();
        in->keys.reserve(end - begin - 1);
        in->children.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) {
          if (i > begin) in->keys.push_back(level[i].second);
          in->children.push_back(std::move(level[i].first));
        }
        parents.emplace_back(std::move(in), level[begin].second);
      }
      level = std::move(parents);
    }
    root_ = std::move(level.front().first);
    size_ = entries.size();
    return true;
  }

  /// Removes `key`. Returns true if it was present. The key's bytes stay in
  /// the arena until the tree dies (separators may still view them).
  bool Erase(std::string_view key) {
    Leaf* leaf = FindLeaf(key);
    auto it = LowerBound(leaf, key);
    if (it == leaf->entries.end() || it->key.view() != key) return false;
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
    std::string_view key() const {
      return leaf_->entries[index_].key.view();
    }
    V& value() const { return leaf_->entries[index_].value; }

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
    Leaf* leaf = FindLeaf(key);
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

  /// The key arena (for footprint accounting and tests).
  const KeyArena& key_arena() const { return keys_; }

  /// Verifies structural invariants (key ordering within and across nodes,
  /// separators bounding their subtrees, every leaf at the same depth, no
  /// leaf over kLeafCapacity slots); for tests. Returns false on violation.
  bool CheckInvariants() const {
    int leaf_depth = 0;
    if (!CheckSubtree(root_.get(), nullptr, nullptr, 1, &leaf_depth)) {
      return false;
    }
    std::string_view prev;
    bool first = true;
    const Leaf* leaf = first_leaf_;
    size_t counted = 0;
    while (leaf != nullptr) {
      if (leaf->entries.capacity() > kLeafCapacity) return false;
      for (const auto& e : leaf->entries) {
        if (!first && !(prev < e.key.view())) return false;
        prev = e.key.view();
        first = false;
        ++counted;
      }
      leaf = leaf->next;
    }
    return counted == size_;
  }

 private:
  struct SplitResult {
    std::string_view separator;
    std::unique_ptr<Node> right;  // null: no split
  };

  /// Every key under `node` lies in [lo, hi) (null = unbounded).
  static bool CheckSubtree(const Node* node, const std::string_view* lo,
                           const std::string_view* hi, int depth,
                           int* leaf_depth) {
    if (node->is_leaf) {
      if (*leaf_depth == 0) *leaf_depth = depth;
      if (*leaf_depth != depth) return false;
      for (const auto& e : static_cast<const Leaf*>(node)->entries) {
        const std::string_view k = e.key.view();
        if ((lo != nullptr && k < *lo) || (hi != nullptr && !(k < *hi))) {
          return false;
        }
      }
      return true;
    }
    const Internal* in = static_cast<const Internal*>(node);
    if (in->children.size() != in->keys.size() + 1) return false;
    for (size_t i = 0; i < in->children.size(); ++i) {
      const std::string_view* child_lo = i == 0 ? lo : &in->keys[i - 1];
      const std::string_view* child_hi =
          i == in->keys.size() ? hi : &in->keys[i];
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

  Leaf* FindLeaf(std::string_view key) const {
    Node* node = root_.get();
    while (!node->is_leaf) {
      Internal* in = static_cast<Internal*>(node);
      node = in->children[ChildIndex(in, key)].get();
    }
    return static_cast<Leaf*>(node);
  }

  static typename std::vector<Entry>::iterator LowerBound(
      Leaf* leaf, std::string_view key) {
    return std::lower_bound(
        leaf->entries.begin(), leaf->entries.end(), key,
        [](const Entry& entry, std::string_view k) {
          return entry.key.view() < k;
        });
  }

  static size_t ChildIndex(const Internal* in, std::string_view key) {
    // First key > `key` determines the child: children[i] holds keys in
    // [keys[i-1], keys[i]).
    auto it = std::upper_bound(in->keys.begin(), in->keys.end(), key);
    return static_cast<size_t>(it - in->keys.begin());
  }

  /// Finds or inserts `key` under `node`; a split of `node` is reported
  /// through *split for the caller to link in.
  Entry* InsertRec(Node* node, std::string_view key, SplitResult* split) {
    if (node->is_leaf) {
      return InsertIntoLeaf(static_cast<Leaf*>(node), key, split);
    }

    Internal* in = static_cast<Internal*>(node);
    const size_t idx = ChildIndex(in, key);
    SplitResult child_split;
    Entry* entry = InsertRec(in->children[idx].get(), key, &child_split);
    if (child_split.right == nullptr) return entry;
    in->keys.insert(in->keys.begin() + idx, child_split.separator);
    in->children.insert(in->children.begin() + idx + 1,
                        std::move(child_split.right));
    if (in->children.size() <= kFanout) return entry;
    // Split the internal node.
    auto right = std::make_unique<Internal>();
    const size_t mid_key = in->keys.size() / 2;
    split->separator = in->keys[mid_key];
    right->keys.assign(in->keys.begin() + mid_key + 1, in->keys.end());
    right->children.assign(
        std::make_move_iterator(in->children.begin() + mid_key + 1),
        std::make_move_iterator(in->children.end()));
    in->keys.resize(mid_key);
    in->children.resize(mid_key + 1);
    split->right = std::move(right);
    return entry;
  }

  Entry* InsertIntoLeaf(Leaf* leaf, std::string_view key, SplitResult* split) {
    auto it = LowerBound(leaf, key);
    if (it != leaf->entries.end() && it->key.view() == key) return &*it;
    size_t pos = static_cast<size_t>(it - leaf->entries.begin());
    Leaf* right = nullptr;
    if (leaf->entries.size() == kLeafCapacity) {
      std::unique_ptr<Leaf> split_off = SplitFullLeaf(leaf, pos);
      right = split_off.get();
      split->right = std::move(split_off);
      if (pos >= leaf->entries.size()) {
        pos -= leaf->entries.size();
        leaf = right;
      }
    }
    std::vector<Entry>& entries = leaf->entries;
    if (entries.size() == entries.capacity()) {
      entries.reserve(
          std::min<size_t>(kLeafCapacity, entries.size() + kLeafGrowth));
    }
    ++size_;
    leaf->last_insert = static_cast<uint8_t>(pos);
    Entry* entry =
        &*entries.emplace(entries.begin() + pos, keys_.Intern(key), V{});
    // The new key may be the right half's smallest.
    if (right != nullptr) split->separator = right->entries.front().key.view();
    return entry;
  }

  /// Splits a full leaf before an insert at `pos`, so the leaf never
  /// outgrows its slots, and returns the new right half (linked in after
  /// `leaf`). The key then goes right iff `pos` is at least the left's size.
  /// An insert just past the leaf's previous one continues an ascending
  /// run: the leaf splits at the insertion point, the left keeps every key
  /// before it and stays full, and the run goes on in the right. Any other
  /// insert splits the leaf in half. Each half keeps only its entries' slots
  /// and, if it takes the key, one growth step.
  std::unique_ptr<Leaf> SplitFullLeaf(Leaf* leaf, size_t pos) {
    std::vector<Entry>& entries = leaf->entries;
    const bool ascending = pos == leaf->last_insert + size_t{1};
    const size_t at = ascending ? pos : kLeafCapacity / 2;
    auto right = std::make_unique<Leaf>();
    right->entries.assign(std::make_move_iterator(entries.begin() + at),
                          std::make_move_iterator(entries.end()));
    entries.erase(entries.begin() + at, entries.end());
    const size_t keep = pos < at ? at + kLeafGrowth : at;
    if (entries.capacity() > keep) {
      std::vector<Entry> trimmed;
      trimmed.reserve(keep);
      trimmed.assign(std::make_move_iterator(entries.begin()),
                     std::make_move_iterator(entries.end()));
      entries.swap(trimmed);
    }
    leaf->last_insert = Leaf::kNoInsert;
    right->next = leaf->next;
    leaf->next = right.get();
    return right;
  }

  friend struct BTreeTestPeer;  // tests break a leaf to exercise the checks

  KeyArena keys_;  // declared first: destroyed after the nodes viewing it
  std::unique_ptr<Node> root_;
  Leaf* first_leaf_ = nullptr;
  size_t size_ = 0;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_STORAGE_BTREE_H_
