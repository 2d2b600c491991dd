#include "src/storage/shard_store.h"

#include <gtest/gtest.h>

namespace globaldb {
namespace {

TEST(ShardStoreTest, GetOrCreateIsIdempotent) {
  ShardStore store(3);
  MvccTable* a = store.GetOrCreateTable(7);
  MvccTable* b = store.GetOrCreateTable(7);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->id(), 7u);
  EXPECT_EQ(store.GetTable(8), nullptr);
  EXPECT_EQ(store.NumTables(), 1u);
  EXPECT_EQ(store.shard(), 3u);
}

TEST(ShardStoreTest, CommitSpansTablesTouchedByTxn) {
  ShardStore store(0);
  store.GetOrCreateTable(1)->ApplyInsert("a", "v1", 9);
  store.GetOrCreateTable(2)->ApplyInsert("b", "v2", 9);
  store.GetOrCreateTable(3)->ApplyInsert("c", "v3", 8);  // different txn
  store.CommitTxn(9, 100);
  EXPECT_TRUE(store.GetTable(1)->Read("a", 100).found);
  EXPECT_TRUE(store.GetTable(2)->Read("b", 100).found);
  EXPECT_FALSE(store.GetTable(3)->Read("c", 100).found);  // still provisional
  store.AbortTxn(8);
  EXPECT_FALSE(store.GetTable(3)->Read("c", 100).found);
  ReadResult r = store.GetTable(3)->Read("c", 100);
  EXPECT_EQ(r.provisional_txn, kInvalidTxnId);  // fully rolled back
}

TEST(ShardStoreTest, DropTableRemovesData) {
  ShardStore store(0);
  store.GetOrCreateTable(1)->ApplyInsert("a", "v", 1);
  store.CommitTxn(1, 10);
  store.DropTable(1);
  EXPECT_EQ(store.GetTable(1), nullptr);
  EXPECT_EQ(store.NumTables(), 0u);
}

TEST(ShardStoreTest, VacuumAggregatesAcrossTables) {
  ShardStore store(0);
  for (TableId t = 1; t <= 3; ++t) {
    MvccTable* table = store.GetOrCreateTable(t);
    table->ApplyInsert("k", "v1", 1);
    table->CommitTxn(1, 10);
    table->ApplyUpdate("k", "v2", 2);
    table->CommitTxn(2, 20);
    table->ApplyUpdate("k", "v3", 3);
    table->CommitTxn(3, 30);
  }
  // Horizon 25: the v1 versions (ended at 20) are reclaimable everywhere.
  const size_t reclaimed = store.Vacuum(25).reclaimed;
  EXPECT_GE(reclaimed, 3u);
  for (TableId t = 1; t <= 3; ++t) {
    EXPECT_EQ(store.GetTable(t)->Read("k", 100).value, "v3");
    EXPECT_EQ(store.GetTable(t)->Read("k", 25).value, "v2");
  }
}

}  // namespace
}  // namespace globaldb
