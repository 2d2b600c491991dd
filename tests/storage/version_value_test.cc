// VersionValue: up to 31 bytes in place, longer values in an exact-size heap
// block, across construction, reassignment, moves and copies.

#include "src/storage/version_value.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace globaldb {
namespace {

std::string Bytes(size_t n) {
  std::string s;
  for (size_t i = 0; i < n; ++i) s.push_back(static_cast<char>('a' + i % 26));
  return s;
}

TEST(VersionValueTest, SizesAroundTheInlineCapacity) {
  for (size_t n : {0u, 1u, 15u, 16u, 31u, 32u, 46u, 4096u}) {
    SCOPED_TRACE(n);
    const std::string bytes = Bytes(n);
    VersionValue v(bytes);
    EXPECT_EQ(v.size(), n);
    EXPECT_EQ(v.view(), bytes);
    EXPECT_EQ(v.on_heap(), n > VersionValue::kInlineCapacity);
    // An inline value's bytes are inside the object.
    const char* self = reinterpret_cast<const char*>(&v);
    const bool inside = v.data() >= self && v.data() < self + sizeof(v);
    EXPECT_EQ(inside, !v.on_heap());
  }
}

TEST(VersionValueTest, DefaultIsEmptyAndInline) {
  VersionValue v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_FALSE(v.on_heap());
  EXPECT_EQ(v.view(), "");
}

TEST(VersionValueTest, KeepsEmbeddedZeroBytes) {
  const std::string bytes("a\0b\0", 4);
  VersionValue v(bytes);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v.view(), bytes);
}

TEST(VersionValueTest, ReassignAcrossTheBoundary) {
  VersionValue v(Bytes(10));
  v = Bytes(200);  // inline -> heap
  EXPECT_TRUE(v.on_heap());
  EXPECT_EQ(v.view(), Bytes(200));
  v = Bytes(300);  // heap -> heap
  EXPECT_EQ(v.view(), Bytes(300));
  v = Bytes(31);  // heap -> inline
  EXPECT_FALSE(v.on_heap());
  EXPECT_EQ(v.view(), Bytes(31));
  v = Bytes(5);  // inline -> inline
  EXPECT_EQ(v.view(), Bytes(5));
  v = "";
  EXPECT_EQ(v.size(), 0u);
}

TEST(VersionValueTest, MoveLeavesSourceEmptyAndViewsFollowTheDestination) {
  for (size_t n : {20u, 31u, 32u, 64u}) {
    SCOPED_TRACE(n);
    VersionValue source(Bytes(n));
    const char* heap = source.on_heap() ? source.data() : nullptr;
    VersionValue moved(std::move(source));
    EXPECT_EQ(source.size(), 0u);  // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(source.on_heap());
    EXPECT_EQ(moved.view(), Bytes(n));
    if (heap != nullptr) {
      EXPECT_EQ(moved.data(), heap);  // the block moved, not copied
    } else {
      EXPECT_EQ(moved.data(), reinterpret_cast<const char*>(&moved));
    }

    VersionValue target(Bytes(100));
    target = std::move(moved);  // frees target's old block
    EXPECT_EQ(moved.size(), 0u);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(target.view(), Bytes(n));
    if (heap != nullptr) {
      EXPECT_EQ(target.data(), heap);
    }
  }
}

TEST(VersionValueTest, CopiesOwnTheirBytes) {
  for (size_t n : {3u, 31u, 32u, 80u}) {
    SCOPED_TRACE(n);
    VersionValue original(Bytes(n));
    VersionValue copy(original);
    EXPECT_EQ(copy.view(), original.view());
    EXPECT_NE(copy.data(), original.data());
    VersionValue assigned(Bytes(50));
    assigned = original;
    EXPECT_EQ(assigned.view(), Bytes(n));
    EXPECT_NE(assigned.data(), original.data());
    original = "changed";
    EXPECT_EQ(copy.view(), Bytes(n));
    EXPECT_EQ(assigned.view(), Bytes(n));
  }
}

TEST(VersionValueTest, SelfAssignment) {
  for (size_t n : {7u, 31u, 32u, 90u}) {
    SCOPED_TRACE(n);
    VersionValue v(Bytes(n));
    VersionValue& same = v;
    v = same;
    EXPECT_EQ(v.view(), Bytes(n));
    v = std::move(same);
    EXPECT_EQ(v.view(), Bytes(n));
    // Assigning a view of the value's own bytes.
    v = v.view();
    EXPECT_EQ(v.view(), Bytes(n));
    v = v.view().substr(1);
    EXPECT_EQ(v.view(), Bytes(n).substr(1));
  }
}

TEST(VersionValueTest, SurvivesVectorReallocation) {
  std::vector<VersionValue> values;
  for (size_t i = 0; i < 100; ++i) values.emplace_back(Bytes(i));
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(values[i].view(), Bytes(i));
  values.erase(values.begin(), values.begin() + 50);
  for (size_t i = 0; i < 50; ++i) EXPECT_EQ(values[i].view(), Bytes(i + 50));
}

}  // namespace
}  // namespace globaldb
