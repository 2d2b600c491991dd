#include "src/storage/btree.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace globaldb {

/// Reaches into a tree to break what CheckInvariants must catch.
struct BTreeTestPeer {
  static void OverReserveFirstLeaf(BTree<int>* tree) {
    tree->first_leaf_->entries.reserve(BTree<int>::kLeafCapacity + 1);
  }
  /// Entries per leaf, in key order.
  static std::vector<size_t> LeafSizes(const BTree<int>& tree) {
    std::vector<size_t> sizes;
    for (auto* leaf = tree.first_leaf_; leaf != nullptr; leaf = leaf->next) {
      sizes.push_back(leaf->entries.size());
    }
    return sizes;
  }
};

namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

TEST(BTreeTest, EmptyTree) {
  BTree<int> tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.Find("x"), nullptr);
  EXPECT_FALSE(tree.Begin().Valid());
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BTreeTest, PutAndFind) {
  BTree<int> tree;
  tree.Put("b", 2);
  tree.Put("a", 1);
  tree.Put("c", 3);
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(*tree.Find("a"), 1);
  EXPECT_EQ(*tree.Find("b"), 2);
  EXPECT_EQ(*tree.Find("c"), 3);
  EXPECT_EQ(tree.Find("d"), nullptr);
}

TEST(BTreeTest, PutOverwrites) {
  BTree<int> tree;
  tree.Put("k", 1);
  tree.Put("k", 2);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(*tree.Find("k"), 2);
}

TEST(BTreeTest, OperatorBracketDefaultConstructs) {
  BTree<int> tree;
  EXPECT_EQ(tree["new"], 0);
  tree["new"] = 9;
  EXPECT_EQ(*tree.Find("new"), 9);
}

TEST(BTreeTest, SplitsGrowHeight) {
  BTree<int> tree;
  for (int i = 0; i < 10000; ++i) tree.Put(Key(i), i);
  EXPECT_EQ(tree.size(), 10000u);
  EXPECT_GE(tree.Height(), 2);
  EXPECT_TRUE(tree.CheckInvariants());
  for (int i = 0; i < 10000; ++i) {
    ASSERT_NE(tree.Find(Key(i)), nullptr) << i;
    EXPECT_EQ(*tree.Find(Key(i)), i);
  }
}

TEST(BTreeTest, ReverseInsertionOrder) {
  BTree<int> tree;
  for (int i = 9999; i >= 0; --i) tree.Put(Key(i), i);
  EXPECT_TRUE(tree.CheckInvariants());
  int expected = 0;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) {
    EXPECT_EQ(it.key(), Key(expected));
    ++expected;
  }
  EXPECT_EQ(expected, 10000);
}

TEST(BTreeTest, LowerBoundSemantics) {
  BTree<int> tree;
  for (int i = 0; i < 100; i += 2) tree.Put(Key(i), i);  // even keys
  auto it = tree.LowerBound(Key(10));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), Key(10));
  it = tree.LowerBound(Key(11));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), Key(12));
  it = tree.LowerBound(Key(99));
  EXPECT_FALSE(it.Valid());
  it = tree.LowerBound("");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), Key(0));
}

TEST(BTreeTest, RangeScanAcrossLeaves) {
  BTree<int> tree;
  for (int i = 0; i < 1000; ++i) tree.Put(Key(i), i);
  int count = 0;
  for (auto it = tree.LowerBound(Key(200)); it.Valid() && it.key() < Key(700);
       it.Next()) {
    EXPECT_EQ(it.value(), 200 + count);
    ++count;
  }
  EXPECT_EQ(count, 500);
}

TEST(BTreeTest, EraseRemovesAndIterationSkips) {
  BTree<int> tree;
  for (int i = 0; i < 500; ++i) tree.Put(Key(i), i);
  for (int i = 0; i < 500; i += 2) EXPECT_TRUE(tree.Erase(Key(i)));
  EXPECT_FALSE(tree.Erase(Key(0)));  // already gone
  EXPECT_EQ(tree.size(), 250u);
  EXPECT_TRUE(tree.CheckInvariants());
  int count = 0;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) {
    EXPECT_EQ(std::stoi(std::string(it.key().substr(1))) % 2, 1);
    ++count;
  }
  EXPECT_EQ(count, 250);
}

TEST(BTreeTest, EraseEntireLeafThenIterate) {
  BTree<int> tree;
  for (int i = 0; i < 300; ++i) tree.Put(Key(i), i);
  // Erase a contiguous block that likely empties whole leaves.
  for (int i = 50; i < 200; ++i) tree.Erase(Key(i));
  EXPECT_TRUE(tree.CheckInvariants());
  auto it = tree.LowerBound(Key(50));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), Key(200));
}

TEST(BTreeTest, MatchesStdMapUnderRandomOps) {
  BTree<int> tree;
  std::map<std::string, int> reference;
  Rng rng(99);
  for (int op = 0; op < 20000; ++op) {
    const std::string key = Key(static_cast<int>(rng.Uniform(2000)));
    switch (rng.Uniform(3)) {
      case 0: {
        int v = static_cast<int>(rng.Uniform(1000));
        tree.Put(key, v);
        reference[key] = v;
        break;
      }
      case 1: {
        EXPECT_EQ(tree.Erase(key), reference.erase(key) > 0);
        break;
      }
      case 2: {
        int* found = tree.Find(key);
        auto it = reference.find(key);
        if (it == reference.end()) {
          EXPECT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          EXPECT_EQ(*found, it->second);
        }
        break;
      }
    }
  }
  EXPECT_EQ(tree.size(), reference.size());
  EXPECT_TRUE(tree.CheckInvariants());
  // Full ordered iteration must match.
  auto tree_it = tree.Begin();
  for (const auto& [k, v] : reference) {
    ASSERT_TRUE(tree_it.Valid());
    EXPECT_EQ(tree_it.key(), k);
    EXPECT_EQ(tree_it.value(), v);
    tree_it.Next();
  }
  EXPECT_FALSE(tree_it.Valid());
}

TEST(BTreeTest, BinaryKeysWithZeros) {
  BTree<int> tree;
  std::string k1("\x00", 1), k2("\x00\x00", 2), k3("\x01", 1);
  tree.Put(k2, 2);
  tree.Put(k3, 3);
  tree.Put(k1, 1);
  auto it = tree.Begin();
  EXPECT_EQ(it.key(), k1);
  it.Next();
  EXPECT_EQ(it.key(), k2);
  it.Next();
  EXPECT_EQ(it.key(), k3);
}

// --- Bottom-up build --------------------------------------------------------

/// `n` entries with even-numbered keys (odd keys fall between them).
std::vector<std::pair<std::string, int>> EvenEntries(int n) {
  std::vector<std::pair<std::string, int>> entries;
  for (int i = 0; i < n; ++i) entries.emplace_back(Key(2 * i), i);
  return entries;
}

/// `entries` as Build's input: views of the caller's keys.
std::vector<BTree<int>::Entry> Views(
    const std::vector<std::pair<std::string, int>>& entries) {
  std::vector<BTree<int>::Entry> views;
  for (const auto& [key, value] : entries) views.emplace_back(key, value);
  return views;
}

TEST(BTreeTest, BuildFillsLeavesAndLevels) {
  // One leaf holds 64 entries; one more needs a second level, and one more
  // than 64 full leaves needs a third.
  const std::pair<int, int> sizes_and_heights[] = {
      {0, 1}, {1, 1}, {64, 1}, {65, 2}, {64 * 64 + 1, 3}};
  for (const auto& [n, height] : sizes_and_heights) {
    SCOPED_TRACE(n);
    BTree<int> tree;
    const auto entries = EvenEntries(n);
    ASSERT_TRUE(tree.Build(Views(entries)));
    EXPECT_EQ(tree.size(), static_cast<size_t>(n));
    EXPECT_TRUE(tree.CheckInvariants());
    EXPECT_EQ(tree.Height(), height);
    for (int i = 0; i < n; ++i) {
      const int* found = tree.Find(Key(2 * i));
      ASSERT_NE(found, nullptr) << i;
      EXPECT_EQ(*found, i);
      EXPECT_EQ(tree.Find(Key(2 * i + 1)), nullptr) << i;
      auto at = tree.LowerBound(Key(2 * i));
      ASSERT_TRUE(at.Valid());
      EXPECT_EQ(at.key(), Key(2 * i));
      auto between = tree.LowerBound(Key(2 * i + 1));
      if (i + 1 < n) {
        ASSERT_TRUE(between.Valid());
        EXPECT_EQ(between.key(), Key(2 * i + 2));
      } else {
        EXPECT_FALSE(between.Valid());
      }
    }
    auto first = tree.LowerBound("");
    EXPECT_EQ(first.Valid(), n > 0);
    int count = 0;
    for (auto it = tree.Begin(); it.Valid(); it.Next()) {
      EXPECT_EQ(it.value(), count);
      ++count;
    }
    EXPECT_EQ(count, n);
  }
}

TEST(BTreeTest, BuiltTreeMatchesStdMapUnderRandomOps) {
  for (int n : {0, 1, 64, 65, 64 * 64 + 1}) {
    SCOPED_TRACE(n);
    BTree<int> tree;
    std::map<std::string, int> reference;
    const auto entries = EvenEntries(n);
    for (const auto& [key, value] : entries) reference[key] = value;
    ASSERT_TRUE(tree.Build(Views(entries)));
    Rng rng(static_cast<uint64_t>(n) + 7);
    const int key_space = 2 * n + 200;
    for (int op = 0; op < 10000; ++op) {
      const std::string key =
          Key(static_cast<int>(rng.Uniform(static_cast<uint64_t>(key_space))));
      switch (rng.Uniform(3)) {
        case 0: {
          const int v = static_cast<int>(rng.Uniform(1000));
          tree.Put(key, v);
          reference[key] = v;
          break;
        }
        case 1:
          ASSERT_EQ(tree.Erase(key), reference.erase(key) > 0);
          break;
        case 2: {
          const int* found = tree.Find(key);
          auto it = reference.find(key);
          if (it == reference.end()) {
            ASSERT_EQ(found, nullptr);
          } else {
            ASSERT_NE(found, nullptr);
            ASSERT_EQ(*found, it->second);
          }
          break;
        }
      }
    }
    EXPECT_EQ(tree.size(), reference.size());
    EXPECT_TRUE(tree.CheckInvariants());
    auto tree_it = tree.Begin();
    for (const auto& [k, v] : reference) {
      ASSERT_TRUE(tree_it.Valid());
      EXPECT_EQ(tree_it.key(), k);
      EXPECT_EQ(tree_it.value(), v);
      tree_it.Next();
    }
    EXPECT_FALSE(tree_it.Valid());
  }
}

TEST(BTreeTest, BuildRejectsUnsortedAndDuplicateKeys) {
  BTree<int> tree;
  EXPECT_FALSE(tree.Build({{"b", 1}, {"a", 2}}));
  EXPECT_TRUE(tree.empty());
  EXPECT_FALSE(tree.Build({{"a", 1}, {"b", 2}, {"b", 3}}));
  EXPECT_TRUE(tree.empty());
  EXPECT_FALSE(tree.Begin().Valid());
  EXPECT_TRUE(tree.CheckInvariants());
  // The rejected tree is still an ordinary empty tree.
  ASSERT_TRUE(tree.Build({{"a", 1}, {"b", 2}}));
  EXPECT_EQ(*tree.Find("b"), 2);
}

// --- Leaf slots and key interning -------------------------------------------

TEST(BTreeTest, LeavesNeverOutgrowTheirSlots) {
  // Sequential appends, reverse inserts and inserts into a built tree's
  // full (or odd-sized last) leaves all split before a leaf would grow past
  // kLeafCapacity slots; CheckInvariants verifies every leaf's capacity.
  BTree<int> appended;
  for (int i = 0; i < 5000; ++i) appended.Put(Key(i), i);
  EXPECT_TRUE(appended.CheckInvariants());
  BTree<int> reversed;
  for (int i = 4999; i >= 0; --i) reversed.Put(Key(i), i);
  EXPECT_TRUE(reversed.CheckInvariants());
  BTree<int> built;
  const int n = 64 * 10 + 37;
  const auto entries = EvenEntries(n);
  ASSERT_TRUE(built.Build(Views(entries)));
  // Odd keys between and past the built ones.
  for (int i = 0; i < n + 25; ++i) built.Put(Key(2 * i + 1), i);
  EXPECT_TRUE(built.CheckInvariants());
  EXPECT_EQ(built.size(), static_cast<size_t>(2 * n + 25));
}

TEST(BTreeTest, FullLeafSplitsInHalfBeforeTheInsert) {
  BTree<int> tree;
  for (int i = 0; i < 128; i += 2) tree.Put(Key(i), i);
  EXPECT_EQ(BTreeTestPeer::LeafSizes(tree), std::vector<size_t>{64});
  tree.Put(Key(200), 200);  // past the end: lands in the right half
  EXPECT_EQ(BTreeTestPeer::LeafSizes(tree), (std::vector<size_t>{32, 33}));
  for (int i = 1; i < 64; i += 2) tree.Put(Key(i), i);  // fills the left
  EXPECT_EQ(BTreeTestPeer::LeafSizes(tree), (std::vector<size_t>{64, 33}));
  tree.Put(Key(63), 63);  // already present: no split
  // The left leaf's 65th key, between Key(10) and Key(11): the leaf halves
  // and the key lands in the left half.
  tree.Put(Key(10) + "x", 10);
  EXPECT_EQ(BTreeTestPeer::LeafSizes(tree),
            (std::vector<size_t>{33, 32, 33}));
  EXPECT_TRUE(tree.CheckInvariants());
  auto it = tree.LowerBound(Key(10));
  it.Next();
  EXPECT_EQ(it.key(), Key(10) + "x");
  it.Next();
  EXPECT_EQ(it.key(), Key(11));
}

TEST(BTreeTest, CheckInvariantsRejectsAnOversizedLeaf) {
  BTree<int> tree;
  for (int i = 0; i < 10; ++i) tree.Put(Key(i), i);
  ASSERT_TRUE(tree.CheckInvariants());
  BTreeTestPeer::OverReserveFirstLeaf(&tree);
  EXPECT_FALSE(tree.CheckInvariants());
}

TEST(BTreeTest, KeysAreInternedOnceAndOutliveErase) {
  BTree<int> tree;
  std::string key = Key(7);
  tree.Put(key, 1);
  const std::string_view interned = tree.Begin().key();
  EXPECT_NE(interned.data(), key.data());  // the tree owns its copy
  key.assign("clobbered");
  EXPECT_EQ(interned, Key(7));
  tree.Put(Key(7), 2);  // assign: no second copy
  EXPECT_EQ(tree.Begin().key().data(), interned.data());
  const size_t arena = tree.key_arena().bytes_allocated();
  for (int i = 0; i < 1000; ++i) tree.Put(Key(1000 + i), i);
  EXPECT_TRUE(tree.Erase(Key(7)));
  EXPECT_EQ(interned, Key(7));  // erased keys keep their bytes
  EXPECT_GT(tree.key_arena().bytes_allocated(), arena);
}

TEST(KeyArenaTest, ViewsStayStableAcrossGrowth) {
  KeyArena arena;
  std::vector<std::string> keys;
  std::vector<std::string_view> views;
  for (int i = 0; i < 20000; ++i) {
    keys.push_back(Key(i) + std::string(i % 7, 'p'));
    views.push_back(arena.Intern(keys.back()));
  }
  const std::string_view first = views.front();
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(views[i], keys[i]) << i;
    ASSERT_NE(views[i].data(), keys[i].data());
  }
  EXPECT_EQ(views.front().data(), first.data());
  // Chunks double up to kMaxChunk: the arena holds the keys plus at most
  // one partly filled chunk of slack.
  size_t key_bytes = 0;
  for (const std::string& key : keys) key_bytes += key.size();
  EXPECT_GE(arena.bytes_allocated(), key_bytes);
  EXPECT_LE(arena.bytes_allocated(), key_bytes + 2 * KeyArena::kMaxChunk);
  EXPECT_TRUE(arena.Intern("").empty());
}

TEST(KeyArenaTest, OversizedKeysGetTheirOwnBlock) {
  KeyArena arena;
  const std::string_view a = arena.Intern("alpha");
  const std::string huge(3 * KeyArena::kMaxChunk, 'h');
  const std::string_view big = arena.Intern(huge);
  const std::string_view b = arena.Intern("beta");
  EXPECT_EQ(big, huge);
  EXPECT_EQ(a, "alpha");
  EXPECT_EQ(b, "beta");
  // The oversized key left the small-key chunk open.
  EXPECT_EQ(b.data(), a.data() + a.size());
  EXPECT_EQ(arena.bytes_allocated(), KeyArena::kMinChunk + huge.size());
  // A key just over half the next chunk also goes to its own block.
  const std::string mid(KeyArena::kMinChunk + 1, 'm');
  EXPECT_EQ(arena.Intern(mid), mid);
  EXPECT_EQ(arena.bytes_allocated(),
            KeyArena::kMinChunk + huge.size() + mid.size());
}

TEST(KeyArenaTest, ReserveSizesOneChunkForABulkBuild) {
  KeyArena arena;
  arena.Reserve(1000);
  std::vector<std::string_view> views;
  for (int i = 0; i < 100; ++i) views.push_back(arena.Intern(Key(i)));
  EXPECT_EQ(arena.bytes_allocated(), 1000u);
  for (int i = 1; i < 100; ++i) {
    EXPECT_EQ(views[i].data(), views[i - 1].data() + views[i - 1].size());
  }
}

}  // namespace
}  // namespace globaldb
