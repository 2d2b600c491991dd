// Allocation census of loading rows into an MvccTable. Keys are interned
// into the tree's arena and a single-version chain sits inline in its leaf
// slot with a value of up to 31 bytes in place, so loading N rows allocates
// nothing per row: only leaves, internal nodes and arena chunks, plus one
// block per value too long to sit inline. Replaces the global operator new to count, which is why this test
// has its own binary.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "src/common/codec.h"
#include "src/storage/mvcc_table.h"

namespace {
size_t g_allocations = 0;
}  // namespace

void* operator new(size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace globaldb {
namespace {

constexpr int kRows = 64 * 200;
// Per-row allocations would cost at least kRows; the fixed structure (two
// allocations per leaf, a few per internal node, arena chunks, the build's
// entry vector) stays far below this.
constexpr size_t kStructureBudget = kRows / 16;

/// A 26-byte key, the size of a TPC-C stock key.
std::string Key(int i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "stock/%010d/%08d/", i / 1000, i);
  return buf;
}

std::vector<std::pair<RowKey, std::string>> Rows(size_t value_size) {
  std::vector<std::pair<RowKey, std::string>> rows;
  for (int i = 0; i < kRows; ++i) {
    rows.emplace_back(Key(i), std::string(value_size, 'v'));
  }
  return rows;
}

TEST(RowFootprintTest, LoadCommittedAllocatesNothingPerRow) {
  for (size_t value_size : {8u, 25u, 31u}) {
    SCOPED_TRACE(value_size);
    auto rows = Rows(value_size);
    MvccTable table(1);
    const size_t before = g_allocations;
    ASSERT_TRUE(table.LoadCommitted(std::move(rows), 1, 1).ok());
    EXPECT_LE(g_allocations - before, kStructureBudget);
    EXPECT_EQ(table.KeyCount(), static_cast<size_t>(kRows));
  }
}

TEST(RowFootprintTest, DecodeFromAllocatesOnlyForLongValues) {
  for (size_t value_size : {31u, 32u}) {
    SCOPED_TRACE(value_size);
    MvccTable source(1);
    ASSERT_TRUE(source.LoadCommitted(Rows(value_size), 1, 1).ok());
    std::string image;
    source.EncodeTo(&image);
    MvccTable table(1);
    Slice input(image);
    const size_t before = g_allocations;
    ASSERT_TRUE(table.DecodeFrom(&input).ok());
    const size_t allocations = g_allocations - before;
    const size_t per_value =
        value_size > VersionValue::kInlineCapacity ? kRows : 0;
    EXPECT_GE(allocations, per_value);
    EXPECT_LE(allocations, per_value + kStructureBudget);
    EXPECT_EQ(table.KeyCount(), static_cast<size_t>(kRows));
  }
}

}  // namespace
}  // namespace globaldb
