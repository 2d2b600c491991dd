// Allocation census of loading rows into an MvccTable. Keys are interned
// into the tree's arena and a single-version chain sits inline in its leaf
// slot with a value of up to 31 bytes in place, so loading N rows allocates
// nothing per row: only leaves, internal nodes and arena chunks, plus one
// block per value too long to sit inline. A loaded row then takes its
// 72-byte leaf slot and its length-prefixed key, and little else. Replaces
// the global operator new to count allocations and live bytes, which is
// why this test has its own binary.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "src/common/codec.h"
#include "src/storage/mvcc_table.h"

namespace {
size_t g_allocations = 0;
size_t g_live_bytes = 0;
// Each block carries its requested size in a header this long (which keeps
// the block 16-byte aligned).
constexpr size_t kHeader = 16;
}  // namespace

void* operator new(size_t size) {
  ++g_allocations;
  char* block = static_cast<char*>(std::malloc(kHeader + size));
  if (block == nullptr) throw std::bad_alloc();
  std::memcpy(block, &size, sizeof(size));
  g_live_bytes += size;
  return block + kHeader;
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  char* block = static_cast<char*>(p) - kHeader;
  size_t size = 0;
  std::memcpy(&size, block, sizeof(size));
  g_live_bytes -= size;
  std::free(block);
}
void operator delete(void* p, size_t) noexcept { operator delete(p); }
// Arrays too (key arena chunks): a sanitizer runtime defines these itself
// instead of forwarding them to operator new and delete.
void* operator new[](size_t size) { return operator new(size); }
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete[](void* p, size_t) noexcept { operator delete(p); }

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

// The slot: an 8-byte key handle and a 64-byte version chain.
static_assert(sizeof(BTree<VersionChain>::Entry) == 72);

TEST(RowFootprintTest, LoadedRowTakesItsSlotAndItsKey) {
  const size_t start = g_live_bytes;
  auto rows = Rows(25);
  const size_t rows_bytes = g_live_bytes - start;
  MvccTable table(1);
  const size_t before = g_live_bytes;
  ASSERT_TRUE(table.LoadCommitted(std::move(rows), 1, 1).ok());
  // The rows were consumed; what is left is the table.
  const size_t table_bytes = g_live_bytes + rows_bytes - before;
  // Full leaves of 72-byte slots, and every key behind a one-byte length in
  // one exactly sized arena chunk. Leaf and internal nodes add under two
  // bytes a row.
  const size_t per_row =
      sizeof(BTree<VersionChain>::Entry) + KeyArena::InternedSize(Key(0));
  ASSERT_EQ(per_row, 72u + 27u);
  EXPECT_GE(table_bytes, kRows * per_row);
  EXPECT_LE(table_bytes, kRows * (per_row + 2));
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
