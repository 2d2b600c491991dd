#include "src/storage/mvcc_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/common/codec.h"
#include "src/storage/value.h"

namespace globaldb {
namespace {

class MvccTableTest : public ::testing::Test {
 protected:
  MvccTable table_{1};
};

TEST_F(MvccTableTest, InsertInvisibleUntilCommit) {
  ASSERT_TRUE(table_.Insert("k", "v1", /*txn=*/10).ok());
  // Not visible to other snapshots while provisional.
  ReadResult r = table_.Read("k", /*snapshot=*/1000, /*reader=*/20);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.provisional_txn, 10u);
  // Visible to the writer itself.
  r = table_.Read("k", 1000, 10);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.value, "v1");
  // After commit at ts=100: visible at snapshots >= 100.
  table_.CommitTxn(10, 100);
  EXPECT_TRUE(table_.Read("k", 100, 20).found);
  EXPECT_FALSE(table_.Read("k", 99, 20).found);
}

TEST_F(MvccTableTest, SnapshotIsolationAcrossVersions) {
  ASSERT_TRUE(table_.Insert("k", "v1", 1).ok());
  table_.CommitTxn(1, 100);
  ASSERT_TRUE(table_.Update("k", "v2", 2, /*snapshot=*/150).ok());
  table_.CommitTxn(2, 200);
  ASSERT_TRUE(table_.Update("k", "v3", 3, /*snapshot=*/250).ok());
  table_.CommitTxn(3, 300);

  EXPECT_FALSE(table_.Read("k", 50).found);
  EXPECT_EQ(table_.Read("k", 100).value, "v1");
  EXPECT_EQ(table_.Read("k", 199).value, "v1");
  EXPECT_EQ(table_.Read("k", 200).value, "v2");
  EXPECT_EQ(table_.Read("k", 299).value, "v2");
  EXPECT_EQ(table_.Read("k", 300).value, "v3");
  EXPECT_EQ(table_.Read("k", 999999).value, "v3");
}

TEST_F(MvccTableTest, DuplicateInsertRejected) {
  ASSERT_TRUE(table_.Insert("k", "v1", 1).ok());
  table_.CommitTxn(1, 100);
  Status s = table_.Insert("k", "v2", 2);
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
  // Own duplicate insert also rejected.
  ASSERT_TRUE(table_.Insert("j", "x", 3).ok());
  EXPECT_EQ(table_.Insert("j", "y", 3).code(), StatusCode::kAlreadyExists);
}

TEST_F(MvccTableTest, DeleteHidesRow) {
  ASSERT_TRUE(table_.Insert("k", "v1", 1).ok());
  table_.CommitTxn(1, 100);
  ASSERT_TRUE(table_.Delete("k", 2, 150).ok());
  table_.CommitTxn(2, 200);
  EXPECT_TRUE(table_.Read("k", 150).found);   // old snapshot still sees it
  EXPECT_FALSE(table_.Read("k", 200).found);  // deleted from 200 on
  // Re-insert after delete works.
  ASSERT_TRUE(table_.Insert("k", "v2", 3).ok());
  table_.CommitTxn(3, 300);
  EXPECT_EQ(table_.Read("k", 300).value, "v2");
}

TEST_F(MvccTableTest, WriteConflictFirstCommitterWins) {
  ASSERT_TRUE(table_.Insert("k", "v1", 1).ok());
  table_.CommitTxn(1, 100);
  // txn 2 commits an update; txn 3 (older snapshot) must then fail.
  ASSERT_TRUE(table_.Update("k", "v2", 2, 150).ok());
  table_.CommitTxn(2, 200);
  Status s = table_.Update("k", "v3", 3, /*snapshot=*/150);
  EXPECT_EQ(s.code(), StatusCode::kAborted);
}

TEST_F(MvccTableTest, ConcurrentProvisionalWriteConflicts) {
  ASSERT_TRUE(table_.Insert("k", "v1", 1).ok());
  table_.CommitTxn(1, 100);
  ASSERT_TRUE(table_.Update("k", "v2", 2, 150).ok());
  // txn 3 sees txn 2's provisional lock.
  EXPECT_EQ(table_.Update("k", "v3", 3, 150).code(), StatusCode::kAborted);
  EXPECT_EQ(table_.Delete("k", 3, 150).code(), StatusCode::kAborted);
}

TEST_F(MvccTableTest, AbortRollsBackEverything) {
  ASSERT_TRUE(table_.Insert("a", "v1", 1).ok());
  table_.CommitTxn(1, 100);
  ASSERT_TRUE(table_.Update("a", "v2", 2, 150).ok());
  ASSERT_TRUE(table_.Insert("b", "new", 2).ok());
  table_.AbortTxn(2);
  EXPECT_EQ(table_.Read("a", 500).value, "v1");
  EXPECT_FALSE(table_.Read("b", 500).found);
  // The lock is released: another txn can update.
  EXPECT_TRUE(table_.Update("a", "v3", 3, 150).ok());
}

TEST_F(MvccTableTest, UpdateOwnWriteOverwrites) {
  ASSERT_TRUE(table_.Insert("k", "v1", 1).ok());
  table_.CommitTxn(1, 100);
  ASSERT_TRUE(table_.Update("k", "v2", 2, 150).ok());
  ASSERT_TRUE(table_.Update("k", "v3", 2, 150).ok());
  table_.CommitTxn(2, 200);
  EXPECT_EQ(table_.Read("k", 200).value, "v3");
  // Exactly one new version was created (old + new).
  EXPECT_EQ(table_.Read("k", 199).value, "v1");
}

TEST_F(MvccTableTest, InsertThenDeleteSameTxnInvisible) {
  ASSERT_TRUE(table_.Insert("k", "v1", 1).ok());
  ASSERT_TRUE(table_.Delete("k", 1, 0).ok());
  // Writer no longer sees it.
  EXPECT_FALSE(table_.Read("k", 1000, 1).found);
  table_.CommitTxn(1, 100);
  EXPECT_FALSE(table_.Read("k", 1000).found);
}

TEST_F(MvccTableTest, ReadYourOwnDeletes) {
  ASSERT_TRUE(table_.Insert("k", "v1", 1).ok());
  table_.CommitTxn(1, 100);
  ASSERT_TRUE(table_.Delete("k", 2, 150).ok());
  EXPECT_FALSE(table_.Read("k", 150, 2).found);   // deleter doesn't see it
  EXPECT_TRUE(table_.Read("k", 150, 3).found);    // others still do
}

TEST_F(MvccTableTest, UpdateNonexistentFails) {
  EXPECT_EQ(table_.Update("nope", "v", 1, 100).code(), StatusCode::kNotFound);
  EXPECT_EQ(table_.Delete("nope", 1, 100).code(), StatusCode::kNotFound);
}

TEST_F(MvccTableTest, ScanReturnsVisibleRange) {
  for (int i = 0; i < 10; ++i) {
    std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(table_.Insert(key, "v" + std::to_string(i), 1).ok());
  }
  table_.CommitTxn(1, 100);
  ASSERT_TRUE(table_.Delete("k3", 2, 150).ok());
  table_.CommitTxn(2, 200);

  auto rows = table_.Scan("k2", "k6", /*snapshot=*/300, kInvalidTxnId, 100,
                          nullptr);
  ASSERT_EQ(rows.size(), 3u);  // k2, k4, k5 (k3 deleted)
  EXPECT_EQ(rows[0].key, "k2");
  EXPECT_EQ(rows[1].key, "k4");
  EXPECT_EQ(rows[2].key, "k5");

  // At an old snapshot, k3 is still there.
  rows = table_.Scan("k2", "k6", 150, kInvalidTxnId, 100, nullptr);
  EXPECT_EQ(rows.size(), 4u);
}

TEST_F(MvccTableTest, ScanCollectsProvisionalTxns) {
  ASSERT_TRUE(table_.Insert("a", "v", 1).ok());
  table_.CommitTxn(1, 100);
  ASSERT_TRUE(table_.Insert("b", "v", 2).ok());  // provisional
  std::vector<TxnId> pending;
  auto rows = table_.Scan("", "", 300, kInvalidTxnId, 100, &pending);
  EXPECT_EQ(rows.size(), 1u);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0], 2u);
}

TEST_F(MvccTableTest, ScanRespectsLimit) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        table_.Insert("k" + std::to_string(1000 + i), "v", 1).ok());
  }
  table_.CommitTxn(1, 100);
  auto rows = table_.Scan("", "", 200, kInvalidTxnId, 7, nullptr);
  EXPECT_EQ(rows.size(), 7u);
}

// Reverse paged scans keep a sliding window of the last `limit` matches.
// Over a range ten times longer than the limit, with deleted rows and a
// pushed-down filter, the result must equal the tail of a forward scan,
// newest first, and the walk must still examine every chain in the range.
TEST_F(MvccTableTest, ReversePagedScanMatchesForwardReference) {
  auto key_of = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%05d", i);
    return std::string(buf);
  };
  for (int i = 0; i < 2000; ++i) {
    std::string value;
    EncodeRow({Value(int64_t{i}), Value(int64_t{i % 3})}, &value);
    ASSERT_TRUE(table_.Insert(key_of(i), value, 1).ok());
  }
  table_.CommitTxn(1, 100);
  for (int i = 0; i < 2000; i += 7) {
    ASSERT_TRUE(table_.Delete(key_of(i), 2, 150).ok());
  }
  table_.CommitTxn(2, 200);

  const std::string start = key_of(200);
  const std::string end = key_of(1800);  // 1600 chains
  for (const int32_t filter_col : {-1, 1}) {
    for (const size_t limit : {size_t{1}, size_t{13}, size_t{37}}) {
      SCOPED_TRACE("filter_col=" + std::to_string(filter_col) +
                   " limit=" + std::to_string(limit));
      std::vector<std::string> expected;
      for (const auto& e :
           table_.Scan(start, end, 300, kInvalidTxnId, SIZE_MAX, nullptr)) {
        Row row;
        ASSERT_TRUE(DecodeRow(e.value, &row).ok());
        if (filter_col >= 0 && std::get<int64_t>(row[filter_col]) != 0) {
          continue;
        }
        expected.push_back(e.key.ToString());
      }
      ASSERT_GE(expected.size(), 10 * limit);
      expected.erase(expected.begin(), expected.end() - limit);
      std::reverse(expected.begin(), expected.end());

      MvccTable::PagedScanOptions opts;
      opts.snapshot = 300;
      opts.limit = limit;
      opts.reverse = true;
      opts.filter_col = filter_col;
      opts.filter_eq = 0;
      MvccTable::PagedScanResult paged =
          table_.ScanPaged(start, end, opts, nullptr);
      std::vector<std::string> got;
      for (const auto& e : paged.rows) got.push_back(e.key.ToString());
      EXPECT_EQ(got, expected);
      EXPECT_TRUE(paged.limit_hit);
      EXPECT_FALSE(paged.truncated);
      EXPECT_EQ(paged.rows_examined, 1600u);
    }
  }

  // A reverse scan that never fills its window returns everything,
  // newest first, without a limit hit.
  MvccTable::PagedScanOptions opts;
  opts.snapshot = 300;
  opts.limit = 100;
  opts.reverse = true;
  MvccTable::PagedScanResult paged =
      table_.ScanPaged(key_of(10), key_of(30), opts, nullptr);
  ASSERT_EQ(paged.rows.size(), 17u);  // 20 keys, 14/21/28 deleted
  EXPECT_EQ(paged.rows.front().key, key_of(29));
  EXPECT_EQ(paged.rows.back().key, key_of(10));
  EXPECT_FALSE(paged.limit_hit);
  EXPECT_EQ(paged.rows_examined, 20u);
}

TEST_F(MvccTableTest, ReplicaApplyPathMirrorsPrimary) {
  // Replay: insert, commit, update, commit, delete, commit.
  table_.ApplyInsert("k", "v1", 1);
  table_.CommitTxn(1, 100);
  table_.ApplyUpdate("k", "v2", 2);
  table_.CommitTxn(2, 200);
  table_.ApplyDelete("k", 3);
  table_.CommitTxn(3, 300);
  EXPECT_EQ(table_.Read("k", 150).value, "v1");
  EXPECT_EQ(table_.Read("k", 250).value, "v2");
  EXPECT_FALSE(table_.Read("k", 300).found);
}

TEST_F(MvccTableTest, ProvisionalReportedToReplicaReaders) {
  table_.ApplyInsert("k", "v1", 1);
  table_.CommitTxn(1, 100);
  table_.ApplyUpdate("k", "v2", 2);  // txn 2 unresolved
  ReadResult r = table_.Read("k", 150);
  EXPECT_TRUE(r.found);  // committed v1 visible
  EXPECT_EQ(r.value, "v1");
  EXPECT_EQ(r.provisional_txn, 2u);  // but a pending writer is flagged
}

TEST_F(MvccTableTest, VacuumReclaimsDeadVersions) {
  ASSERT_TRUE(table_.Insert("k", "v1", 1).ok());
  table_.CommitTxn(1, 100);
  for (int i = 0; i < 5; ++i) {
    TxnId txn = 10 + i;
    ASSERT_TRUE(table_.Update("k", "v" + std::to_string(i), txn, 1000).ok());
    table_.CommitTxn(txn, 200 + i * 100);
  }
  const size_t reclaimed = table_.Vacuum(/*horizon=*/500).reclaimed;
  EXPECT_GE(reclaimed, 3u);
  // Latest version still readable.
  EXPECT_TRUE(table_.Read("k", 10000).found);
}

// --- Bulk load and image install ---------------------------------------------

TEST_F(MvccTableTest, LoadCommittedMatchesInsertThenCommit) {
  MvccTable replayed(1);
  std::vector<std::pair<RowKey, std::string>> rows;
  for (int i = 0; i < 300; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "k%05d", i);
    replayed.ApplyInsert(key, "v" + std::to_string(i), /*txn=*/1);
    rows.emplace_back(key, "v" + std::to_string(i));
  }
  replayed.CommitTxn(1, /*ts=*/1);
  ASSERT_TRUE(table_.LoadCommitted(std::move(rows), 1, 1).ok());

  std::string loaded_image, replayed_image;
  table_.EncodeTo(&loaded_image);
  replayed.EncodeTo(&replayed_image);
  EXPECT_EQ(loaded_image, replayed_image);
  EXPECT_TRUE(table_.ProvisionalTxns().empty());
  EXPECT_EQ(table_.Read("k00123", 1).value, "v123");
  EXPECT_FALSE(table_.Read("k00123", 0).found);
}

TEST_F(MvccTableTest, LoadCommittedRejectsUnsortedRows) {
  EXPECT_EQ(table_.LoadCommitted({{"b", "1"}, {"a", "2"}}, 1, 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table_.KeyCount(), 0u);
}

/// A table image of one-version committed chains with `keys` in the given
/// order, in EncodeTo's format.
std::string ImageWithKeys(const std::vector<std::string>& keys) {
  std::string image;
  PutVarint64(&image, keys.size());
  for (const std::string& key : keys) {
    PutLengthPrefixed(&image, key);
    PutVarint64(&image, 1);  // versions
    PutVarint64(&image, 10);  // begin_ts
    PutVarint64(&image, kTimestampMax);
    PutVarint64(&image, 3);  // created_by
    PutVarint64(&image, kInvalidTxnId);
    PutLengthPrefixed(&image, "v-" + key);
  }
  return image;
}

TEST_F(MvccTableTest, DecodeFromRebuildsSortedImage) {
  const std::string image = ImageWithKeys({"a", "b", "c"});
  Slice input(image);
  ASSERT_TRUE(table_.DecodeFrom(&input).ok());
  EXPECT_TRUE(input.empty());
  std::string reencoded;
  table_.EncodeTo(&reencoded);
  EXPECT_EQ(reencoded, image);
  EXPECT_EQ(table_.Read("b", 10).value, "v-b");
}

TEST_F(MvccTableTest, DecodeFromRejectsUnsortedKeys) {
  const std::string image = ImageWithKeys({"a", "c", "b"});
  Slice input(image);
  EXPECT_EQ(table_.DecodeFrom(&input).code(), StatusCode::kCorruption);
  EXPECT_EQ(table_.KeyCount(), 0u);
}

TEST_F(MvccTableTest, DecodeFromCorruptionLeavesNoProvisionalState) {
  MvccTable source(1);
  source.ApplyInsert("a", "pending", /*txn=*/7);
  source.ApplyInsert("b", "committed", 8);
  source.CommitTxn(8, 10);
  source.ApplyDelete("b", 9);
  std::string image;
  source.EncodeTo(&image);
  for (size_t cut = 0; cut < image.size(); ++cut) {
    MvccTable table(1);
    Slice input(image.data(), cut);
    EXPECT_EQ(table.DecodeFrom(&input).code(), StatusCode::kCorruption) << cut;
    EXPECT_EQ(table.KeyCount(), 0u) << cut;
    EXPECT_TRUE(table.ProvisionalTxns().empty()) << cut;
    EXPECT_FALSE(table.HasTxn(7)) << cut;
  }
  Slice input(image);
  ASSERT_TRUE(table_.DecodeFrom(&input).ok());
  EXPECT_TRUE(table_.HasTxn(7));
  EXPECT_TRUE(table_.HasTxn(9));
}

TEST_F(MvccTableTest, TouchedKeysStayValidAcrossSplitsAndArenaGrowth) {
  ASSERT_TRUE(table_.Insert("m-key", "v", /*txn=*/5).ok());
  std::string key = "n-key";
  table_.ApplyInsert(key, "w", 5);
  key.assign("clobbered");
  // Thousands more keys split the leaves and grow the key arena.
  for (int i = 0; i < 5000; ++i) {
    char other[16];
    snprintf(other, sizeof(other), "k%05d", i);
    table_.ApplyInsert(other, "x", 6);
  }
  const std::vector<std::string_view>* keys = table_.TouchedKeys(5);
  ASSERT_NE(keys, nullptr);
  EXPECT_EQ(*keys, (std::vector<std::string_view>{"m-key", "n-key"}));
  table_.CommitTxn(5, 10);
  EXPECT_EQ(table_.Read("n-key", 10).value, "w");
  EXPECT_EQ(table_.TouchedKeys(5), nullptr);
}

TEST_F(MvccTableTest, DecodeFromRejectsDuplicateKeys) {
  const std::string image = ImageWithKeys({"a", "b", "b"});
  Slice input(image);
  EXPECT_EQ(table_.DecodeFrom(&input).code(), StatusCode::kCorruption);
  EXPECT_EQ(table_.KeyCount(), 0u);
  EXPECT_TRUE(table_.ProvisionalTxns().empty());
}

}  // namespace
}  // namespace globaldb
