// VersionChain storage: one version inline, two or more spilled to a heap
// vector, and back inline when erasure leaves a lone survivor.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/storage/mvcc_table.h"

namespace globaldb {
namespace {

TupleVersion Version(Timestamp begin, Timestamp end, std::string value) {
  TupleVersion v;
  v.begin_ts = begin;
  v.end_ts = end;
  v.created_by = begin;
  v.value = std::move(value);
  return v;
}

std::vector<std::string> Values(const VersionChain& chain) {
  std::vector<std::string> out;
  for (const TupleVersion& v : chain) out.emplace_back(v.value.view());
  return out;
}

/// Ended at or before `horizon`: the predicate MvccTable::Vacuum uses.
auto EndedBy(Timestamp horizon) {
  return [horizon](const TupleVersion& v) {
    return v.begin_ts != 0 && v.end_ts != kTimestampMax && v.end_ts <= horizon;
  };
}

// Values longer than a version's 31 inline bytes, so a moved value keeps its
// heap block, and shorter ones, which move with the version.
const std::string kLong(40, 'x');

TEST(VersionChainTest, SingleVersionStaysInline) {
  VersionChain chain;
  EXPECT_TRUE(chain.empty());
  EXPECT_EQ(chain.begin(), chain.end());
  chain.push_back(Version(1, kTimestampMax, "a"));
  EXPECT_EQ(chain.size(), 1u);
  EXPECT_FALSE(chain.spilled());
  EXPECT_EQ(Values(chain), std::vector<std::string>{"a"});
}

TEST(VersionChainTest, SecondVersionSpillsAndKeepsOrder) {
  VersionChain chain;
  chain.push_back(Version(1, 2, kLong));
  chain.push_back(Version(2, 3, "b"));
  EXPECT_TRUE(chain.spilled());
  chain.push_back(Version(3, kTimestampMax, "c"));
  EXPECT_EQ(chain.size(), 3u);
  EXPECT_EQ(Values(chain), (std::vector<std::string>{kLong, "b", "c"}));
  // Newest first through the reverse range.
  EXPECT_EQ(chain.rbegin()->value.view(), "c");
  EXPECT_EQ((chain.rend() - 1)->value.view(), kLong);
}

TEST(VersionChainTest, VacuumToLoneSurvivorMovesItBackInline) {
  VersionChain chain;
  chain.push_back(Version(1, 2, "a"));
  chain.push_back(Version(2, 3, "b"));
  chain.push_back(Version(3, kTimestampMax, kLong));
  EXPECT_EQ(chain.EraseIf(EndedBy(2)), 1u);
  EXPECT_TRUE(chain.spilled());
  EXPECT_EQ(Values(chain), (std::vector<std::string>{"b", kLong}));
  EXPECT_EQ(chain.EraseIf(EndedBy(3)), 1u);
  EXPECT_FALSE(chain.spilled());
  EXPECT_EQ(Values(chain), std::vector<std::string>{kLong});
  EXPECT_EQ(chain.begin()->begin_ts, 3u);
  // It can spill again.
  chain.push_back(Version(4, kTimestampMax, "d"));
  EXPECT_TRUE(chain.spilled());
  EXPECT_EQ(Values(chain), (std::vector<std::string>{kLong, "d"}));
}

TEST(VersionChainTest, EraseEverythingEmptiesBothKinds) {
  VersionChain inline_chain;
  inline_chain.push_back(Version(1, 2, "a"));
  EXPECT_EQ(inline_chain.EraseIf(EndedBy(5)), 1u);
  EXPECT_TRUE(inline_chain.empty());
  EXPECT_EQ(inline_chain.EraseIf(EndedBy(5)), 0u);

  VersionChain spilled;
  spilled.push_back(Version(1, 2, "a"));
  spilled.push_back(Version(2, 3, kLong));
  EXPECT_EQ(spilled.EraseIf(EndedBy(5)), 2u);
  EXPECT_TRUE(spilled.empty());
  EXPECT_FALSE(spilled.spilled());
  spilled.push_back(Version(6, kTimestampMax, "z"));
  EXPECT_EQ(Values(spilled), std::vector<std::string>{"z"});
}

TEST(VersionChainTest, EraseMissKeepsStorage) {
  VersionChain chain;
  chain.push_back(Version(1, kTimestampMax, "a"));
  EXPECT_EQ(chain.EraseIf(EndedBy(5)), 0u);
  EXPECT_EQ(Values(chain), std::vector<std::string>{"a"});
  chain.push_back(Version(2, kTimestampMax, "b"));
  EXPECT_EQ(chain.EraseIf(EndedBy(5)), 0u);
  EXPECT_TRUE(chain.spilled());
}

TEST(VersionChainTest, MovesCarryBothKinds) {
  VersionChain one;
  one.push_back(Version(1, kTimestampMax, "short"));
  VersionChain many;
  many.push_back(Version(1, 2, kLong));
  many.push_back(Version(2, kTimestampMax, "b"));
  const TupleVersion* heap = many.begin();

  VersionChain moved_one(std::move(one));
  EXPECT_TRUE(one.empty());
  EXPECT_EQ(Values(moved_one), std::vector<std::string>{"short"});
  VersionChain moved_many(std::move(many));
  EXPECT_TRUE(many.empty());
  EXPECT_TRUE(moved_many.spilled());
  EXPECT_EQ(moved_many.begin(), heap);  // the heap vector moved, not copied

  // Assignment over each kind, in both directions.
  moved_one = std::move(moved_many);
  EXPECT_TRUE(moved_one.spilled());
  EXPECT_EQ(Values(moved_one), (std::vector<std::string>{kLong, "b"}));
  VersionChain other;
  other.push_back(Version(7, kTimestampMax, "seven"));
  moved_one = std::move(other);
  EXPECT_FALSE(moved_one.spilled());
  EXPECT_EQ(Values(moved_one), std::vector<std::string>{"seven"});
  VersionChain empty;
  moved_one = std::move(empty);
  EXPECT_TRUE(moved_one.empty());
}

TEST(VersionChainTest, LeafShiftsMoveInlineChains) {
  // Chains live in B+-tree leaf vectors, which shift and reallocate them.
  std::vector<VersionChain> chains;
  for (int i = 0; i < 100; ++i) {
    chains.emplace(chains.begin(), VersionChain{});
    chains.front().push_back(Version(1, kTimestampMax, std::to_string(i)));
    if (i % 3 == 0) {
      chains.front().push_back(Version(2, kTimestampMax, kLong));
    }
  }
  for (int i = 0; i < 100; ++i) {
    const VersionChain& chain = chains[99 - i];
    ASSERT_EQ(chain.size(), i % 3 == 0 ? 2u : 1u);
    EXPECT_EQ(chain.begin()->value.view(), std::to_string(i));
  }
}

// A chain is its 64 bytes: no state byte beside the inline version.
static_assert(sizeof(VersionChain) == 64);

enum class State { kEmpty, kInline, kSpilled };

/// A chain in `state` whose versions all hold `value`: none, one (begin 1),
/// or three (begins 1, 2, 3; the first two ended at 2 and 3).
VersionChain MakeChain(State state, const std::string& value) {
  VersionChain chain;
  if (state == State::kInline) chain.push_back(Version(1, kTimestampMax, value));
  if (state == State::kSpilled) {
    chain.push_back(Version(1, 2, value));
    chain.push_back(Version(2, 3, value));
    chain.push_back(Version(3, kTimestampMax, value));
  }
  return chain;
}

void ExpectState(const VersionChain& chain, State state,
                 const std::string& value) {
  const size_t size = state == State::kEmpty    ? 0
                      : state == State::kInline ? 1
                                                : 3;
  EXPECT_EQ(chain.size(), size);
  EXPECT_EQ(chain.empty(), state == State::kEmpty);
  EXPECT_EQ(chain.spilled(), state == State::kSpilled);
  EXPECT_EQ(static_cast<size_t>(chain.end() - chain.begin()), size);
  EXPECT_EQ(Values(chain), std::vector<std::string>(size, value));
  for (const TupleVersion& v : chain) {
    EXPECT_EQ(v.value.on_heap(), value.size() > VersionValue::kInlineCapacity);
  }
}

TEST(VersionChainTest, EveryValueTagInEveryChainState) {
  // The chain keeps its empty and spilled states in the byte that holds an
  // inline version's value tag. Every tag a value can have (inline lengths
  // 0 to 31, and heap) must read back as an inline chain, and neither spare
  // code may be mistaken for a tag, through moves, EraseIf and Unspill.
  const State kStates[] = {State::kEmpty, State::kInline, State::kSpilled};
  for (size_t len = 0; len <= VersionValue::kInlineCapacity + 2; ++len) {
    SCOPED_TRACE(len);
    const std::string value(len, static_cast<char>('a' + len % 26));
    for (State from : kStates) {
      SCOPED_TRACE(static_cast<int>(from));
      VersionChain chain = MakeChain(from, value);
      ExpectState(chain, from, value);

      VersionChain moved(std::move(chain));
      ExpectState(chain, State::kEmpty, value);
      ExpectState(moved, from, value);
      for (State over : kStates) {
        VersionChain target = MakeChain(over, "t");
        VersionChain source = MakeChain(from, value);
        target = std::move(source);
        ExpectState(source, State::kEmpty, value);
        ExpectState(target, from, value);
      }

      // Vacuum a spilled chain down to its last version (Unspill), then to
      // nothing; an inline chain goes straight to empty.
      if (from == State::kSpilled) {
        EXPECT_EQ(moved.EraseIf(EndedBy(3)), 2u);
        ExpectState(moved, State::kInline, value);
        EXPECT_EQ(moved.begin()->begin_ts, 3u);
      }
      EXPECT_EQ(moved.EraseIf([](const TupleVersion&) { return true; }),
                from == State::kEmpty ? 0u : 1u);
      ExpectState(moved, State::kEmpty, value);
      // An emptied chain takes versions again.
      moved.push_back(Version(1, kTimestampMax, value));
      ExpectState(moved, State::kInline, value);
      moved.push_back(Version(2, kTimestampMax, value));
      EXPECT_TRUE(moved.spilled());
      EXPECT_EQ(Values(moved), (std::vector<std::string>{value, value}));
    }
  }
}

}  // namespace
}  // namespace globaldb
