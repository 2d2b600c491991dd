#include "src/storage/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/codec.h"
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
  /// Keys per leaf, in key order.
  static std::vector<std::vector<std::string>> LeafKeys(
      const BTree<int>& tree) {
    std::vector<std::vector<std::string>> leaves;
    for (auto* leaf = tree.first_leaf_; leaf != nullptr; leaf = leaf->next) {
      leaves.emplace_back();
      for (const auto& entry : leaf->entries) {
        leaves.back().emplace_back(entry.key.view());
      }
    }
    return leaves;
  }
  /// Slots (vector capacity) per leaf, in key order.
  static std::vector<size_t> LeafSlots(const BTree<int>& tree) {
    std::vector<size_t> slots;
    for (auto* leaf = tree.first_leaf_; leaf != nullptr; leaf = leaf->next) {
      slots.push_back(leaf->entries.capacity());
    }
    return slots;
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

// FindFrom through one finger must find exactly what FindEntry finds, for
// any ascending probe sequence: probes that stay in a leaf, step to the next
// or skip far ahead; probes before the first key, after the last and in the
// gaps between leaves; repeated probes; and trees grown through random
// leaf splits, some with leaves emptied by Erase.
TEST(BTreeFingerTest, FindFromMatchesFindEntry) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    BTree<int> tree;
    // Even numbers only, so every odd number is an absent probe.
    const int range = 200 + static_cast<int>(rng.Uniform(4000));
    for (int i = 0; i < range; ++i) {
      const int n = 2 * static_cast<int>(rng.Uniform(range));
      tree.Put(Key(n), n);
    }
    if (seed % 2 == 0) {
      // Empty some whole leaves (never all of them), and thin others.
      const auto leaves = BTreeTestPeer::LeafKeys(tree);
      for (size_t l = 1; l < leaves.size(); ++l) {
        const uint64_t pick = rng.Uniform(4);
        for (const std::string& key : leaves[l]) {
          if (pick == 0 || (pick == 1 && rng.Bernoulli(0.5))) tree.Erase(key);
        }
      }
    }
    ASSERT_TRUE(tree.CheckInvariants());

    // Candidate probes: every present key, the keys just around each leaf's
    // ends (between leaves), random absent keys, and keys before the first
    // and after the last.
    std::vector<std::string> candidates = {"", "a", "k", "z", "\xff"};
    for (const auto& leaf : BTreeTestPeer::LeafKeys(tree)) {
      for (const std::string& key : leaf) candidates.push_back(key);
      if (leaf.empty()) continue;
      for (const std::string& end : {leaf.front(), leaf.back()}) {
        const int n = std::stoi(end.substr(1));
        candidates.push_back(Key(n - 1));
        candidates.push_back(Key(n + 1));
        candidates.push_back(end + std::string(1, '\0'));
      }
    }
    for (int i = 0; i < 200; ++i) {
      candidates.push_back(Key(static_cast<int>(rng.Uniform(2 * range + 4))));
    }
    std::sort(candidates.begin(), candidates.end());

    // Several ascending sequences: every candidate (repeats kept), then
    // random subsets of growing sparsity.
    for (double keep : {1.0, 0.5, 0.1, 0.02}) {
      BTree<int>::Finger finger;
      size_t probes = 0;
      for (const std::string& key : candidates) {
        if (keep < 1.0 && !rng.Bernoulli(keep)) continue;
        ++probes;
        ASSERT_EQ(tree.FindFrom(&finger, key), tree.FindEntry(key))
            << "seed=" << seed << " keep=" << keep << " key=" << key;
      }
      if (keep == 1.0) {
        ASSERT_EQ(probes, candidates.size());
      }
    }
  }
}

TEST(BTreeFingerTest, EmptyTreeAndSingleLeaf) {
  BTree<int> tree;
  BTree<int>::Finger finger;
  EXPECT_EQ(tree.FindFrom(&finger, "a"), nullptr);
  for (int i = 0; i < 10; i += 2) tree.Put(Key(i), i);
  BTree<int>::Finger fresh;
  for (int i = -1; i < 12; ++i) {
    ASSERT_EQ(tree.FindFrom(&fresh, Key(i)), tree.FindEntry(Key(i))) << i;
  }
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
std::vector<BTree<int>::KeyValue> Views(
    const std::vector<std::pair<std::string, int>>& entries) {
  std::vector<BTree<int>::KeyValue> views;
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
  // Descending inserts form no ascending run, so a full leaf splits in half.
  for (int i = 126; i >= 0; i -= 2) tree.Put(Key(i), i);
  EXPECT_EQ(BTreeTestPeer::LeafSizes(tree), std::vector<size_t>{64});
  tree.Put(Key(200), 200);  // past the end: lands in the right half
  EXPECT_EQ(BTreeTestPeer::LeafSizes(tree), (std::vector<size_t>{32, 33}));
  // The left half did not take the key, so it is trimmed to its size; the
  // right half is cut to its 32 keys and grows one step (8 slots) to take
  // the new one.
  EXPECT_EQ(BTreeTestPeer::LeafSlots(tree), (std::vector<size_t>{32, 40}));
  for (int i = 1; i < 64; i += 2) tree.Put(Key(i), i);  // fills the left
  EXPECT_EQ(BTreeTestPeer::LeafSizes(tree), (std::vector<size_t>{64, 33}));
  tree.Put(Key(63), 63);  // already present: no split
  // The left leaf's 65th key, between Key(10) and Key(11): the leaf halves
  // and the key lands in the left half, which keeps its 32 keys' slots and
  // one growth step; the right half is cut to size.
  tree.Put(Key(10) + "x", 10);
  EXPECT_EQ(BTreeTestPeer::LeafSizes(tree),
            (std::vector<size_t>{33, 32, 33}));
  EXPECT_EQ(BTreeTestPeer::LeafSlots(tree),
            (std::vector<size_t>{40, 32, 40}));
  EXPECT_TRUE(tree.CheckInvariants());
  auto it = tree.LowerBound(Key(10));
  it.Next();
  EXPECT_EQ(it.key(), Key(10) + "x");
  it.Next();
  EXPECT_EQ(it.key(), Key(11));
}

TEST(BTreeTest, AscendingRunSplitsAtTheInsertionPoint) {
  // Appends: the full leaf stays whole and the run goes on in a new leaf,
  // which starts with one growth step of 8 slots.
  BTree<int> appended;
  for (int i = 0; i < 65; ++i) appended.Put(Key(i), i);
  EXPECT_EQ(BTreeTestPeer::LeafSizes(appended), (std::vector<size_t>{64, 1}));
  EXPECT_EQ(BTreeTestPeer::LeafSlots(appended), (std::vector<size_t>{64, 8}));
  EXPECT_TRUE(appended.CheckInvariants());

  // A run into the middle of a built leaf: the first insert follows no
  // earlier one and halves the leaf; the run then fills the left half, and
  // its next key splits that half where it lands.
  BTree<int> tree;
  const auto entries = EvenEntries(64);
  ASSERT_TRUE(tree.Build(Views(entries)));
  for (int j = 0; j < 32; ++j) tree.Put(Key(10) + Key(j), j);
  EXPECT_EQ(BTreeTestPeer::LeafSizes(tree), (std::vector<size_t>{64, 32}));
  tree.Put(Key(10) + Key(32), 32);
  // Left: Key(0)..Key(10) and the 32 earlier run keys, trimmed to size.
  // Right: the new key, then Key(12)..Key(62): cut to those 26 keys, then
  // grown one step for the new one.
  EXPECT_EQ(BTreeTestPeer::LeafSizes(tree),
            (std::vector<size_t>{38, 27, 32}));
  EXPECT_EQ(BTreeTestPeer::LeafSlots(tree),
            (std::vector<size_t>{38, 34, 32}));
  EXPECT_TRUE(tree.CheckInvariants());
  auto it = tree.LowerBound(Key(10) + Key(32));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.value(), 32);
  it.Next();
  EXPECT_EQ(it.key(), Key(12));
  EXPECT_EQ(*tree.Find(Key(10) + Key(31)), 31);
}

TEST(BTreeTest, AscendingRunsIntoABuiltTreeKeepLeavesFull) {
  // Four interleaved ascending runs, each into the middle of a different
  // full leaf of a packed tree, like new orders appended per district. Each
  // leaf a run has left is full and exactly sized; only the leaf holding a
  // run's latest key has spare slots.
  constexpr int kBuilt = 64 * 50;
  constexpr int kRuns = 4;
  constexpr int kRunLength = 1000;
  BTree<int> tree;
  const auto entries = EvenEntries(kBuilt);
  ASSERT_TRUE(tree.Build(Views(entries)));
  const int starts[kRuns] = {2 * 400, 2 * 1200, 2 * 2000, 2 * 2800};
  for (int j = 0; j < kRunLength; ++j) {
    for (int start : starts) tree.Put(Key(start) + Key(j), j);
  }
  ASSERT_TRUE(tree.CheckInvariants());
  ASSERT_EQ(tree.size(), static_cast<size_t>(kBuilt + kRuns * kRunLength));
  const auto sizes = BTreeTestPeer::LeafSizes(tree);
  const auto slots = BTreeTestPeer::LeafSlots(tree);
  size_t total_slots = 0;
  int leaves_with_spare_slots = 0;
  for (size_t i = 0; i < sizes.size(); ++i) {
    total_slots += slots[i];
    if (slots[i] > sizes[i]) ++leaves_with_spare_slots;
  }
  EXPECT_LE(leaves_with_spare_slots, kRuns);
  EXPECT_GE(static_cast<double>(tree.size()) / total_slots, 0.95);
  for (int start : starts) {
    for (int j = 0; j < kRunLength; j += 97) {
      ASSERT_NE(tree.Find(Key(start) + Key(j)), nullptr);
    }
  }
}

TEST(BTreeTest, LeavesGrownByInsertsHaveFewerSpareSlotsThanAGrowthStep) {
  // Leaf vectors grow by kLeafGrowth slots, and splits keep no more than
  // that, so without erases no leaf ever has kLeafGrowth spare slots,
  // whatever the insert order and whether the tree started packed.
  const auto check = [](const BTree<int>& tree) {
    const auto sizes = BTreeTestPeer::LeafSizes(tree);
    const auto slots = BTreeTestPeer::LeafSlots(tree);
    ASSERT_EQ(sizes.size(), slots.size());
    for (size_t i = 0; i < sizes.size(); ++i) {
      ASSERT_LE(slots[i] - sizes[i], BTree<int>::kLeafGrowth - 1)
          << "leaf " << i << " holds " << sizes[i] << " keys in " << slots[i]
          << " slots";
    }
  };
  BTree<int> ascending;
  BTree<int> descending;
  for (int i = 0; i < 3000; ++i) {
    ascending.Put(Key(i), i);
    descending.Put(Key(3000 - i), i);
    if (i % 101 == 0) {
      check(ascending);
      check(descending);
    }
  }
  check(ascending);
  check(descending);
  // Random keys, and six interleaved ascending runs like new orders
  // appended per district, into an empty and into a packed tree.
  for (int packed = 0; packed < 2; ++packed) {
    SCOPED_TRACE(packed);
    Rng rng(7 + packed);
    BTree<int> random;
    BTree<int> runs;
    if (packed == 1) {
      const auto entries = EvenEntries(64 * 30 + 17);
      ASSERT_TRUE(random.Build(Views(entries)));
      ASSERT_TRUE(runs.Build(Views(entries)));
    }
    for (int i = 0; i < 4000; ++i) {
      random.Put(Key(static_cast<int>(rng.Uniform(20000))), i);
      runs.Put(Key(2 * 97 * (i % 6) + 1) + Key(i / 6), i);
      if (i % 257 == 0) {
        check(random);
        check(runs);
      }
    }
    check(random);
    check(runs);
    EXPECT_TRUE(random.CheckInvariants());
    EXPECT_TRUE(runs.CheckInvariants());
  }
}

/// Inserts (and a few erases) in random, ascending, descending and
/// interleaved-run order, checked against std::map after every phase.
TEST(BTreeTest, InsertPatternsMatchStdMap) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    BTree<int> tree;
    std::map<std::string, int> model;
    if (seed % 2 == 0) {
      // Half the seeds start from a packed tree.
      const auto entries = EvenEntries(64 * 40 + 17);
      ASSERT_TRUE(tree.Build(Views(entries)));
      for (const auto& [key, value] : entries) model[key] = value;
    }
    int value = 0;
    const auto put = [&](int k) {
      const std::string key = Key(k);
      tree.Put(key, value);
      model[key] = value;
      ++value;
    };
    const int key_space = 20000;
    for (int phase = 0; phase < 24; ++phase) {
      const int start = static_cast<int>(rng.Uniform(key_space));
      const int length = 1 + static_cast<int>(rng.Uniform(300));
      switch (rng.Uniform(4)) {
        case 0:
          for (int i = 0; i < length; ++i) {
            put(static_cast<int>(rng.Uniform(key_space)));
          }
          break;
        case 1:
          for (int i = 0; i < length; ++i) put(start + i);
          break;
        case 2:
          for (int i = 0; i < length; ++i) put(start - i);
          break;
        case 3: {
          // Up to five runs at random points, taking turns.
          int runs[5];
          const int num_runs = 2 + static_cast<int>(rng.Uniform(4));
          for (int r = 0; r < num_runs; ++r) {
            runs[r] = static_cast<int>(rng.Uniform(key_space));
          }
          for (int i = 0; i < length; ++i) {
            for (int r = 0; r < num_runs; ++r) put(runs[r] + i);
          }
          break;
        }
      }
      for (int i = 0; i < 20; ++i) {
        const std::string key = Key(static_cast<int>(rng.Uniform(key_space)));
        ASSERT_EQ(tree.Erase(key), model.erase(key) > 0);
      }
      ASSERT_EQ(tree.size(), model.size());
      ASSERT_TRUE(tree.CheckInvariants()) << "phase " << phase;
      auto it = tree.Begin();
      for (const auto& [k, v] : model) {
        ASSERT_TRUE(it.Valid());
        ASSERT_EQ(it.key(), k);
        ASSERT_EQ(it.value(), v);
        it.Next();
      }
      ASSERT_FALSE(it.Valid());
      for (int i = 0; i < 50; ++i) {
        const std::string key = Key(static_cast<int>(rng.Uniform(key_space)));
        const int* found = tree.Find(key);
        auto ref = model.find(key);
        ASSERT_EQ(found != nullptr, ref != model.end()) << key;
        if (found != nullptr) {
          ASSERT_EQ(*found, ref->second);
        }
      }
    }
  }
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
  std::vector<InternedKey> handles;
  for (int i = 0; i < 20000; ++i) {
    keys.push_back(Key(i) + std::string(i % 7, 'p'));
    handles.push_back(arena.Intern(keys.back()));
  }
  const std::string_view first = handles.front().view();
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(handles[i].view(), keys[i]) << i;
    ASSERT_NE(handles[i].view().data(), keys[i].data());
  }
  EXPECT_EQ(handles.front().view().data(), first.data());
  // Chunks double up to kMaxChunk: the arena holds the keys and their
  // one-byte length prefixes plus at most one partly filled chunk of slack.
  size_t key_bytes = 0;
  for (const std::string& key : keys) {
    ASSERT_EQ(KeyArena::InternedSize(key), key.size() + 1);
    key_bytes += key.size() + 1;
  }
  EXPECT_GE(arena.bytes_allocated(), key_bytes);
  EXPECT_LE(arena.bytes_allocated(), key_bytes + 2 * KeyArena::kMaxChunk);
  EXPECT_TRUE(arena.Intern("").view().empty());
}

TEST(KeyArenaTest, HandlesDecodeEveryLengthPrefix) {
  // One-, two- and three-byte length prefixes, on both sides of each
  // boundary, through chunks and oversized blocks alike.
  KeyArena arena;
  std::vector<std::string> keys;
  std::vector<InternedKey> handles;
  for (size_t len : {0u, 1u, 127u, 128u, 300u, 16383u, 16384u, 70000u}) {
    keys.push_back(std::string(len, static_cast<char>('a' + keys.size())));
    handles.push_back(arena.Intern(keys.back()));
    EXPECT_EQ(KeyArena::InternedSize(keys.back()),
              len + VarintLength(len));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(handles[i].view(), keys[i]) << keys[i].size();
  }
  // A key whose bytes include what looks like a length prefix.
  const std::string binary("\x80\x01\x00\xff", 4);
  EXPECT_EQ(arena.Intern(binary).view(), binary);
}

TEST(KeyArenaTest, OversizedKeysGetTheirOwnBlock) {
  KeyArena arena;
  const std::string_view a = arena.Intern("alpha").view();
  const std::string huge(3 * KeyArena::kMaxChunk, 'h');
  const std::string_view big = arena.Intern(huge).view();
  const std::string_view b = arena.Intern("beta").view();
  EXPECT_EQ(big, huge);
  EXPECT_EQ(a, "alpha");
  EXPECT_EQ(b, "beta");
  // The oversized key left the small-key chunk open: "beta"'s one-byte
  // length prefix follows "alpha".
  EXPECT_EQ(b.data(), a.data() + a.size() + 1);
  // A three-byte prefix: 196608 needs 18 bits.
  ASSERT_EQ(KeyArena::InternedSize(huge), huge.size() + 3);
  EXPECT_EQ(arena.bytes_allocated(), KeyArena::kMinChunk + huge.size() + 3);
  // A key just over half the next chunk also goes to its own block.
  const std::string mid(KeyArena::kMinChunk + 1, 'm');
  EXPECT_EQ(arena.Intern(mid).view(), mid);
  EXPECT_EQ(arena.bytes_allocated(),
            KeyArena::kMinChunk + huge.size() + 3 + mid.size() + 2);
}

TEST(KeyArenaTest, ReserveSizesOneChunkForABulkBuild) {
  KeyArena arena;
  arena.Reserve(1000);
  std::vector<std::string_view> views;
  // 100 nine-byte keys, each behind a one-byte length: exactly 1000 bytes.
  for (int i = 0; i < 100; ++i) views.push_back(arena.Intern(Key(i)).view());
  EXPECT_EQ(arena.bytes_allocated(), 1000u);
  for (int i = 1; i < 100; ++i) {
    EXPECT_EQ(views[i].data(), views[i - 1].data() + views[i - 1].size() + 1);
  }
}

}  // namespace
}  // namespace globaldb
