// Golden bytes of ExecuteScanBatch's co-located point join (DESIGN.md §14).
// A pass resolves each distinct join key once and emits the joined rows in
// the order their keys first occur among the scanned rows; a replica pass
// that meets an unresolved provisional write reports the first such blocker
// in that same order. The reply envelope travels on the simulated network,
// where its size sets the transfer delay, and `cpu_cost` is charged to the
// serving node, so both are pinned here: the envelope by size and Hash64,
// the cost and lookup counts exactly. The scanned rows repeat join keys,
// probe keys that are absent (before the first key of the join prefix,
// after its last, inside a leaf and between leaves), and spread over all
// four leaves of the join table.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/scan_batch_exec.h"
#include "src/common/hash.h"
#include "src/storage/shard_store.h"
#include "src/storage/value.h"

namespace globaldb {
namespace {

constexpr TableId kLines = 10;
constexpr TableId kStock = 20;
constexpr TableId kMissing = 30;  // known to the catalog, empty on the shard
constexpr int64_t kWarehouse = 7;
constexpr SimDuration kReadCost = 5;
constexpr SimDuration kScanRowCost = 1;

RowKey IntKey(std::initializer_list<int64_t> parts) {
  RowKey key;
  for (int64_t part : parts) EncodeKeyPart(Value(part), &key);
  return key;
}

std::string RowBytes(const Row& row) {
  std::string bytes;
  EncodeRow(row, &bytes);
  return bytes;
}

/// The join keys the scanned lines carry in column 1, in row order. Every
/// stock item of warehouse 7 is even, from 0 to 398; odd items are absent.
/// 107, 235 and 363 fall between two leaves of the stock table, -5 before
/// the warehouse's first key and 1000 after its last.
const std::vector<int64_t>& LineItems() {
  static const std::vector<int64_t> items = {
      310, 4,   131, 4,   1000, 64,  310, 126, 128, -5,  250, 7,  130, 398,
      0,   131, 252, 254, 107,  235, 363, 108, 236, 364, 106, 234, 362, 64};
  return items;
}

/// A shard holding the scanned lines and a stock table of 220 committed
/// keys: 10 of warehouse 6, 200 of warehouse 7 and 10 of warehouse 8,
/// bulk-built into leaves of 64, 64, 64 and 28 keys. Items 64 and 310 of
/// warehouse 7 carry unresolved updates by txns 900 and 901.
class ScanJoinGoldenTest : public ::testing::Test {
 protected:
  ScanJoinGoldenTest() : store_(0) {
    std::vector<std::pair<RowKey, std::string>> lines;
    for (size_t i = 0; i < LineItems().size(); ++i) {
      const int64_t n = static_cast<int64_t>(i);
      lines.emplace_back(IntKey({n}),
                         RowBytes({n, LineItems()[i], int64_t{n % 5}}));
    }
    EXPECT_TRUE(
        store_.GetOrCreateTable(kLines)->LoadCommitted(lines, 1, 10).ok());

    std::vector<std::pair<RowKey, std::string>> stock;
    auto add_stock = [&](int64_t w, int64_t item) {
      stock.emplace_back(IntKey({w, item}),
                         RowBytes({w, item, int64_t{item % 17},
                                   std::string("dist_") + std::to_string(item)}));
    };
    for (int64_t i = 0; i < 10; ++i) add_stock(6, i);
    for (int64_t item = 0; item < 400; item += 2) add_stock(kWarehouse, item);
    for (int64_t i = 0; i < 10; ++i) add_stock(8, i);
    MvccTable* table = store_.GetOrCreateTable(kStock);
    EXPECT_TRUE(table->LoadCommitted(stock, 1, 10).ok());
    table->ApplyUpdate(IntKey({kWarehouse, 64}),
                       RowBytes({kWarehouse, int64_t{64}, int64_t{-1},
                                 std::string("pending")}),
                       900);
    table->ApplyUpdate(IntKey({kWarehouse, 310}),
                       RowBytes({kWarehouse, int64_t{310}, int64_t{-1},
                                 std::string("pending")}),
                       901);
  }

  /// Range 0 joins every line to its stock row; range 1 joins lines 4..9 to
  /// a table this shard does not store.
  static ScanBatchRequest Request() {
    ScanBatchRequest request;
    request.snapshot = 20;
    ScanBatchRequest::Range range;
    range.table = kLines;
    range.join_table = kStock;
    range.join_key_prefix = IntKey({kWarehouse});
    range.join_key_cols = {1};
    request.ranges.push_back(range);
    range.start = IntKey({4});
    range.end = IntKey({10});
    range.join_table = kMissing;
    request.ranges.push_back(range);
    return request;
  }

  ScanBatchExecResult Execute(const std::function<bool(TxnId)>* must_wait) {
    return ExecuteScanBatch(store_, Request(), kInvalidTxnId,
                            /*default_chunk_bytes=*/1 << 20, kReadCost,
                            kScanRowCost, must_wait);
  }

  ShardStore store_;
};

/// Items of the joined stock rows, in reply order.
std::vector<int64_t> JoinedItems(const ScanBatchReply::RangeResult& result) {
  std::vector<int64_t> items;
  for (const KeyValueView& row : result.joined) {
    Row decoded;
    EXPECT_TRUE(DecodeRow(row.value, &decoded).ok());
    EXPECT_EQ(row.key.ToString(),
              IntKey({kWarehouse, std::get<int64_t>(decoded[1])}));
    items.push_back(std::get<int64_t>(decoded[1]));
  }
  return items;
}

TEST_F(ScanJoinGoldenTest, PrimaryReplyBytesAndCost) {
  const ScanBatchExecResult exec = Execute(nullptr);
  ASSERT_EQ(exec.blocker, kInvalidTxnId);
  EXPECT_FALSE(exec.truncated);
  // 28 lines with 24 distinct items and 6 lines with 6, each range charged
  // one read_cost, each examined row a scan_row_cost, each distinct key a
  // read_cost.
  EXPECT_EQ(exec.join_lookups, 24 + 6);
  EXPECT_EQ(exec.rows_returned, 28 + 6);
  EXPECT_EQ(exec.cpu_cost, 2 * kReadCost + (28 + 6) * kScanRowCost +
                               (24 + 6) * kReadCost);

  auto reply = ScanBatchReply::Decode(exec.reply.envelope, 1);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->results.size(), 2u);
  // First-occurrence order of the present items; the pending updates of 64
  // and 310 are invisible, their committed rows are returned.
  EXPECT_EQ(JoinedItems(reply->results[0]),
            (std::vector<int64_t>{310, 4, 64, 126, 128, 250, 130, 398, 0, 252,
                                  254, 108, 236, 364, 106, 234, 362}));
  EXPECT_TRUE(reply->results[1].joined.empty());
  EXPECT_EQ(reply->results[1].rows.size(), 6u);

  EXPECT_EQ(exec.reply.envelope.size(), 1290u);
  EXPECT_EQ(Hash64(exec.reply.envelope), 8682719383141770481ull);
}

TEST_F(ScanJoinGoldenTest, ReplicaWithNothingPendingMatchesThePrimary) {
  const std::function<bool(TxnId)> never = [](TxnId) { return false; };
  const ScanBatchExecResult replica = Execute(&never);
  const ScanBatchExecResult primary = Execute(nullptr);
  ASSERT_EQ(replica.blocker, kInvalidTxnId);
  EXPECT_EQ(replica.reply.envelope, primary.reply.envelope);
  EXPECT_EQ(replica.cpu_cost, primary.cpu_cost);
}

// Item 310 (txn 901) first occurs in line 0 and item 64 (txn 900) in line
// 5: in key order 64 comes first, but the pass reports 901.
TEST_F(ScanJoinGoldenTest, ReplicaReportsTheFirstBlockerInRowOrder) {
  const std::function<bool(TxnId)> both = [](TxnId txn) {
    return txn == 900 || txn == 901;
  };
  const ScanBatchExecResult exec = Execute(&both);
  EXPECT_EQ(exec.blocker, 901u);
  // Stopped at the first lookup: the range's read_cost, its 28 rows and
  // one join read.
  EXPECT_EQ(exec.join_lookups, 1);
  EXPECT_EQ(exec.cpu_cost, kReadCost + 28 * kScanRowCost + kReadCost);
}

TEST_F(ScanJoinGoldenTest, ReplicaBlockedLaterInRowOrder) {
  const std::function<bool(TxnId)> only_900 = [](TxnId txn) {
    return txn == 900;
  };
  const ScanBatchExecResult exec = Execute(&only_900);
  EXPECT_EQ(exec.blocker, 900u);
  // Distinct items before 64 in row order: 310, 4, 131, 1000, then 64.
  EXPECT_EQ(exec.join_lookups, 5);
  EXPECT_EQ(exec.cpu_cost, kReadCost + 28 * kScanRowCost + 5 * kReadCost);
}

}  // namespace
}  // namespace globaldb
