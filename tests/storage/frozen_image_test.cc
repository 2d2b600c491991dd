// Property test: a checkpoint freeze (ShardStore::Freeze) followed by any
// sequence of changes must build, on demand, the image EncodeShardStore
// took at the freeze, byte for byte. The changes cover every mutating call
// on both the primary and the replay path, commits and aborts, vacuum at
// rising horizons, tables created after the freeze, a table empty at the
// freeze, LoadCommitted under a freeze, ascending runs of new keys (which
// split leaves at the insertion point and trim the half left behind), values
// of every inline length class and on the heap, and a second freeze after a
// build.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/storage/shard_store.h"
#include "src/storage/snapshot.h"

namespace globaldb {
namespace {

/// Drives random changes against one store, keeping a handful of
/// transactions open so images hold provisional state too.
class RandomWriter {
 public:
  RandomWriter(ShardStore* store, uint64_t seed) : store_(store), rng_(seed) {}

  /// Creates table `id` and bulk-loads `rows` committed rows into it.
  void Load(TableId id, int rows) {
    std::vector<std::pair<RowKey, std::string>> batch;
    for (int i = 0; i < rows; ++i) batch.emplace_back(Key(i), Value());
    std::sort(batch.begin(), batch.end());
    batch.erase(std::unique(batch.begin(), batch.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }),
                batch.end());
    ASSERT_TRUE(store_->GetOrCreateTable(id)
                    ->LoadCommitted(std::move(batch), /*txn=*/1, /*ts=*/1)
                    .ok());
  }

  /// One random change to a random existing table (or a new table).
  void Step() {
    const uint64_t op = rng_.Uniform(100);
    if (op < 2) {
      // A table created (and written) under the freeze.
      MvccTable* table = store_->GetOrCreateTable(next_table_++);
      table->ApplyInsert(Key(rng_.Uniform(kKeySpace)), Value(), Txn());
      return;
    }
    if (op < 10) {
      const TxnId txn = Txn();
      store_->CommitTxn(txn, ++clock_);
      Close(txn);
      return;
    }
    if (op < 14) {
      const TxnId txn = Txn();
      store_->AbortTxn(txn);
      Close(txn);
      return;
    }
    if (op < 22) {
      // An ascending run of new keys behind a random one, like new orders
      // appended per district.
      MvccTable* table = PickTable();
      const RowKey base = Key(rng_.Uniform(kKeySpace)) + "/";
      const TxnId txn = Txn();
      for (uint64_t n = 1 + rng_.Uniform(80); n > 0; --n) {
        char seq[16];
        snprintf(seq, sizeof(seq), "%08d", next_seq_++);
        table->ApplyInsert(base + seq, Value(), txn);
      }
      return;
    }
    if (op < 26) {
      horizon_ = std::min(clock_, horizon_ + rng_.Uniform(8));
      const MvccTable::VacuumStats stats = store_->Vacuum(horizon_);
      // The one walk a checkpoint makes counts and sizes what it left.
      EXPECT_EQ(stats.versions, store_->VersionCount());
      EXPECT_EQ(stats.image_bytes, EncodeShardStore(*store_).size());
      return;
    }
    MvccTable* table = PickTable();
    const RowKey key = Key(rng_.Uniform(kKeySpace));
    const TxnId txn = Txn();
    const Timestamp snapshot = clock_;
    switch (op % 6) {
      case 0:
        (void)table->Insert(key, Value(), txn);
        break;
      case 1:
        (void)table->Update(key, Value(), txn, snapshot);
        break;
      case 2:
        (void)table->Delete(key, txn, snapshot);
        break;
      case 3:
        table->ApplyInsert(key, Value(), txn);
        break;
      case 4:
        table->ApplyUpdate(key, Value(), txn);
        break;
      default:
        table->ApplyDelete(key, txn);
        break;
    }
  }

  TableId NewTableId() { return next_table_++; }

 private:
  static constexpr uint64_t kKeySpace = 300;

  static RowKey Key(uint64_t i) {
    return "key-" + std::to_string(1000 + i);
  }

  /// Short values (up to 31 bytes, empty included) sit inline in a
  /// version, long ones in a heap block.
  std::string Value() {
    static constexpr size_t kSizes[] = {0, 8, 31, 32, 48};
    return std::string(kSizes[rng_.Uniform(std::size(kSizes))],
                       static_cast<char>('a' + rng_.Uniform(26)));
  }

  /// An open transaction, or a new one (at most four stay open).
  TxnId Txn() {
    if (open_.size() < 4 && (open_.empty() || rng_.Uniform(3) == 0)) {
      open_.push_back(next_txn_++);
    }
    return open_[rng_.Uniform(open_.size())];
  }

  void Close(TxnId txn) {
    open_.erase(std::find(open_.begin(), open_.end(), txn));
  }

  MvccTable* PickTable() {
    auto it = store_->tables().begin();
    std::advance(it, rng_.Uniform(store_->tables().size()));
    return it->second.get();
  }

  ShardStore* store_;
  Rng rng_;
  std::vector<TxnId> open_;
  TxnId next_txn_ = 100;
  int next_seq_ = 0;
  TableId next_table_ = 10;
  Timestamp clock_ = 10;
  Timestamp horizon_ = 0;
};

class FrozenImageTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FrozenImageTest, BuiltImageEqualsEncodeShardStoreAtTheFreeze) {
  ShardStore store(0);
  RandomWriter writer(&store, GetParam());
  writer.Load(1, 200);
  writer.Load(2, 40);
  for (int i = 0; i < 300; ++i) writer.Step();

  // Each round freezes again after the previous round's build.
  for (int round = 0; round < 4; ++round) {
    // Created empty before the freeze, bulk-loaded under it.
    const TableId empty_at_freeze = writer.NewTableId();
    store.GetOrCreateTable(empty_at_freeze);
    const std::string expected = EncodeShardStore(store);
    store.Freeze();
    EXPECT_EQ(store.FrozenBytes(), 0u);

    writer.Load(empty_at_freeze, 30);
    for (int i = 0; i < 400; ++i) writer.Step();
    ASSERT_TRUE(store.FrozenImage() == expected) << "round " << round;
    EXPECT_EQ(store.FrozenBytes(), expected.size());

    // The built image is cached: later writes leave it as it was.
    for (int i = 0; i < 100; ++i) writer.Step();
    ASSERT_TRUE(store.FrozenImage() == expected) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrozenImageTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(FrozenImageCaptureTest, ReadsAndIdleVacuumKeepNoPreImages) {
  ShardStore store(0);
  MvccTable* table = store.GetOrCreateTable(1);
  table->ApplyInsert("a", "v1", 1);
  table->CommitTxn(1, 10);
  table->ApplyUpdate("a", "v2", 2);
  table->CommitTxn(2, 20);
  table->ApplyInsert("b", "v1", 3);
  table->CommitTxn(3, 30);
  const std::string expected = EncodeShardStore(store);
  store.Freeze();

  EXPECT_EQ(table->Read("a", 100).value, "v2");
  EXPECT_EQ(table->Scan("", "", 100, kInvalidTxnId, 10, nullptr).size(), 2u);
  // Horizon 15 prunes nothing ("a"'s first version ended at 20).
  EXPECT_EQ(store.Vacuum(15).reclaimed, 0u);
  EXPECT_EQ(store.FrozenBytes(), 0u);

  // Horizon 25 prunes only "a": only its chain is kept.
  EXPECT_EQ(store.Vacuum(25).reclaimed, 1u);
  const size_t pruned_chain_bytes = store.FrozenBytes();
  EXPECT_GT(pruned_chain_bytes, 0u);
  // A key born after the freeze keeps no bytes.
  table->ApplyInsert("c", "v1", 4);
  EXPECT_EQ(store.FrozenBytes(), pruned_chain_bytes);
  EXPECT_TRUE(store.FrozenImage() == expected);
}

TEST(FrozenImageCaptureTest, ReplaceTablesEndsTheFreeze) {
  ShardStore store(0);
  MvccTable* table = store.GetOrCreateTable(1);
  table->ApplyInsert("a", "v1", 1);
  store.Freeze();
  table->ApplyUpdate("a", "v2", 1);
  EXPECT_GT(store.FrozenBytes(), 0u);

  ShardStore source(0);
  source.GetOrCreateTable(2)->ApplyInsert("b", "v", 7);
  ASSERT_TRUE(InstallShardStore(Slice(EncodeShardStore(source)), &store).ok());
  EXPECT_EQ(store.FrozenBytes(), 0u);
  EXPECT_DEATH((void)store.FrozenImage(), "no live freeze");

  // A new freeze images the installed tables.
  store.Freeze();
  EXPECT_TRUE(store.FrozenImage() == EncodeShardStore(source));
}

}  // namespace
}  // namespace globaldb
