#include "src/storage/btree.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace globaldb {
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
    EXPECT_EQ(std::stoi(it.key().substr(1)) % 2, 1);
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

TEST(BTreeTest, BuildFillsLeavesAndLevels) {
  // One leaf holds 64 entries; one more needs a second level, and one more
  // than 64 full leaves needs a third.
  const std::pair<int, int> sizes_and_heights[] = {
      {0, 1}, {1, 1}, {64, 1}, {65, 2}, {64 * 64 + 1, 3}};
  for (const auto& [n, height] : sizes_and_heights) {
    SCOPED_TRACE(n);
    BTree<int> tree;
    ASSERT_TRUE(tree.Build(EvenEntries(n)));
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
    for (const auto& [key, value] : EvenEntries(n)) reference[key] = value;
    ASSERT_TRUE(tree.Build(EvenEntries(n)));
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

}  // namespace
}  // namespace globaldb
