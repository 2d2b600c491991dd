// Pipelined write batching on the CN (DESIGN.md §10): DoWrite enqueues
// into per-shard buffers and ships kDnWriteBatch RPCs instead of one round
// trip per statement. These tests pin down read-your-writes barriers,
// threshold-triggered pipelining, atomic commit of buffered writes,
// entry-failure abort with full lock release, and the replicated-table
// fan-out.

#include "src/cluster/cluster.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

namespace globaldb {
namespace {

TableSchema AccountsSchema() {
  TableSchema s;
  s.name = "accounts";
  s.columns = {{"id", ColumnType::kInt64},
               {"owner", ColumnType::kString},
               {"balance", ColumnType::kInt64}};
  s.key_columns = {0};
  s.distribution_column = 0;
  return s;
}

TableSchema RatesSchema() {
  TableSchema s;
  s.name = "rates";
  s.columns = {{"id", ColumnType::kInt64}, {"bps", ColumnType::kInt64}};
  s.key_columns = {0};
  s.distribution_column = 0;
  s.distribution = DistributionKind::kReplicated;
  return s;
}

class WriteBatchTest : public ::testing::Test {
 public:  // accessed from coroutine lambdas in tests
  WriteBatchTest() : sim_(33) {}

  void Build(ClusterOptions options) {
    cluster_ = std::make_unique<Cluster>(&sim_, std::move(options));
    cluster_->Start();
  }

  static ClusterOptions ThreeCityOptions() {
    ClusterOptions o;
    o.topology = sim::Topology::ThreeCity();
    o.network.nagle_enabled = false;
    o.num_shards = 6;
    o.replicas_per_shard = 2;
    o.initial_mode = TimestampMode::kGclock;
    return o;
  }

  template <typename T>
  T RunTask(sim::Task<T> task) {
    std::optional<T> result;
    auto wrapper = [](sim::Task<T> t, std::optional<T>* out) -> sim::Task<void> {
      *out = co_await std::move(t);
    };
    sim_.Spawn(wrapper(std::move(task), &result));
    while (!result.has_value()) {
      sim_.RunFor(1 * kMillisecond);
    }
    return std::move(*result);
  }

  /// Sum of a metric across every primary data node.
  int64_t DnTotal(const std::string& name) {
    int64_t total = 0;
    for (size_t s = 0; s < cluster_->num_shards(); ++s) {
      total += cluster_->data_node(s).metrics().Get(name);
    }
    return total;
  }

  size_t TotalLocksHeld() {
    size_t total = 0;
    for (size_t s = 0; s < cluster_->num_shards(); ++s) {
      total += cluster_->data_node(s).locks().TotalHeld();
    }
    return total;
  }

  /// First `n` account ids (starting at 1) that route to `shard`.
  std::vector<int64_t> IdsOnShard(ShardId shard, int n) {
    TableSchema schema = AccountsSchema();
    std::vector<int64_t> ids;
    for (int64_t id = 1; ids.size() < static_cast<size_t>(n); ++id) {
      Row row = {id, std::string("o"), int64_t{0}};
      if (RouteRowToShard(schema, row, cluster_->num_shards()) == shard) {
        ids.push_back(id);
      }
    }
    return ids;
  }

  sim::Simulator sim_;
  std::unique_ptr<Cluster> cluster_;
};

// A transaction must read its own buffered (not yet flushed) writes: Get
// and ScanBatch force a flush barrier first, and the flushed provisional
// versions are visible to the transaction's own snapshot.
TEST_F(WriteBatchTest, ReadYourBufferedWrites) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());

  auto work = [this, &cn]() -> sim::Task<Status> {
    auto txn = co_await cn.Begin();
    if (!txn.ok()) co_return txn.status();
    for (int64_t id = 1; id <= 6; ++id) {
      Row row = {id, std::string("owner"), id * 100};
      Status s = co_await cn.Insert(&*txn, "accounts", row);
      if (!s.ok()) co_return s;
    }
    // Point read of a buffered insert: must flush, then see it.
    Row key3 = {int64_t{3}};
    auto got = co_await cn.Get(&*txn, "accounts", key3);
    if (!got.ok()) co_return got.status();
    EXPECT_TRUE(got->has_value());
    if (got->has_value()) {
      EXPECT_EQ(std::get<int64_t>((**got)[2]), 300);
    }

    // Update then read back through another barrier.
    Row row1 = {int64_t{1}, std::string("owner"), int64_t{777}};
    Status s = co_await cn.Update(&*txn, "accounts", row1);
    if (!s.ok()) co_return s;
    Row key1 = {int64_t{1}};
    got = co_await cn.Get(&*txn, "accounts", key1);
    if (!got.ok()) co_return got.status();
    EXPECT_TRUE(got->has_value());
    if (got->has_value()) {
      EXPECT_EQ(std::get<int64_t>((**got)[2]), 777);
    }

    // A scan overlapping the buffer also forces the barrier.
    Row row2 = {int64_t{2}, std::string("owner"), int64_t{222}};
    s = co_await cn.Update(&*txn, "accounts", row2);
    if (!s.ok()) co_return s;
    std::vector<ScanSpec> all(1);
    all[0].table = "accounts";
    auto scanned = co_await cn.ScanBatch(&*txn, std::move(all));
    if (!scanned.ok()) co_return scanned.status();
    EXPECT_EQ((*scanned)[0].rows.size(), 6u);
    if ((*scanned)[0].rows.size() > 1) {
      EXPECT_EQ(std::get<int64_t>((*scanned)[0].rows[1][2]), 222);
    }
    co_return co_await cn.Commit(&*txn);
  };
  ASSERT_TRUE(RunTask(work()).ok());

  // Everything went through the batch path; the barriers were counted.
  EXPECT_EQ(DnTotal("dn.batched_writes"), 8);  // 6 inserts + 2 updates
  EXPECT_GE(cn.metrics().Get("cn.multiget_flush_barriers"), 2);
  EXPECT_EQ(cn.metrics().Get("cn.scan_flush_barriers"), 1);
  EXPECT_EQ(TotalLocksHeld(), 0u);
}

// With no intervening reads the whole write set rides in per-shard batches
// flushed at commit, and a fresh transaction sees all of it.
TEST_F(WriteBatchTest, CommitFlushesPendingBatchesAtomically) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());

  auto writer = [this, &cn]() -> sim::Task<Status> {
    auto txn = co_await cn.Begin();
    if (!txn.ok()) co_return txn.status();
    for (int64_t id = 1; id <= 10; ++id) {
      Row row = {id, std::string("owner"), id};
      Status s = co_await cn.Insert(&*txn, "accounts", row);
      if (!s.ok()) co_return s;
    }
    co_return co_await cn.Commit(&*txn);
  };
  ASSERT_TRUE(RunTask(writer()).ok());

  EXPECT_EQ(DnTotal("dn.batched_writes"), 10);
  // One batch RPC per touched shard, not one per row.
  const int64_t batches = cn.metrics().Get("cn.write_batches");
  EXPECT_GE(batches, 1);
  EXPECT_LE(batches, 6);
  EXPECT_EQ(DnTotal("dn.write_batches"), batches);

  auto reader = [this,
                 &cn]() -> sim::Task<StatusOr<std::vector<ScanResult>>> {
    auto txn = co_await cn.Begin();
    if (!txn.ok()) co_return txn.status();
    std::vector<ScanSpec> all(1);
    all[0].table = "accounts";
    co_return co_await cn.ScanBatch(&*txn, std::move(all));
  };
  auto scanned = RunTask(reader());
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ((*scanned)[0].rows.size(), 10u);
}

// Filling a shard's buffer past write_batch_max_entries starts the flush
// while the transaction keeps issuing statements: locks are already held
// on the data node before commit is ever called (the pipelining).
TEST_F(WriteBatchTest, ThresholdFlushOverlapsExecution) {
  ClusterOptions options = ThreeCityOptions();
  options.coordinator.write_batch_max_entries = 2;
  Build(options);
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());

  const ShardId shard = 0;
  std::vector<int64_t> ids = IdsOnShard(shard, 4);
  auto work = [this, &cn, shard, ids]() -> sim::Task<Status> {
    auto txn = co_await cn.Begin();
    if (!txn.ok()) co_return txn.status();
    for (int64_t id : ids) {
      Row row = {id, std::string("owner"), id};
      Status s = co_await cn.Insert(&*txn, "accounts", row);
      if (!s.ok()) co_return s;
    }
    // Two threshold flushes (4 entries / max 2) are in flight or landed;
    // give them time to arrive and observe the pre-commit locks.
    co_await sim_.Sleep(300 * kMillisecond);
    EXPECT_EQ(cluster_->data_node(shard).locks().TotalHeld(), 4u);
    co_return co_await cn.Commit(&*txn);
  };
  ASSERT_TRUE(RunTask(work()).ok());
  EXPECT_GE(cn.metrics().Get("cn.write_batches"), 2);
  EXPECT_EQ(TotalLocksHeld(), 0u);
}

// Two writes of the same key split across threshold batches must apply in
// statement order. At most one batch per shard is ever on the wire — the
// second flush chains behind the first — so the later value wins regardless
// of network jitter (the sim network has no per-pair FIFO guarantee).
TEST_F(WriteBatchTest, SameKeyAcrossBatchesAppliesInStatementOrder) {
  ClusterOptions options = ThreeCityOptions();
  options.coordinator.write_batch_max_entries = 2;
  Build(options);
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());

  const ShardId shard = 0;
  std::vector<int64_t> ids = IdsOnShard(shard, 2);
  auto work = [this, &cn, ids]() -> sim::Task<Status> {
    auto txn = co_await cn.Begin();
    if (!txn.ok()) co_return txn.status();
    // Batch 1: two inserts hit the threshold and the flush departs.
    for (int64_t id : ids) {
      Row row = {id, std::string("owner"), int64_t{1}};
      Status s = co_await cn.Insert(&*txn, "accounts", row);
      if (!s.ok()) co_return s;
    }
    // Batch 2 rewrites the same keys while batch 1 is still on the wire:
    // it must be deferred and chained, never overtake.
    for (int64_t id : ids) {
      Row row = {id, std::string("owner"), int64_t{2}};
      Status s = co_await cn.Update(&*txn, "accounts", row);
      if (!s.ok()) co_return s;
    }
    co_return co_await cn.Commit(&*txn);
  };
  ASSERT_TRUE(RunTask(work()).ok());
  EXPECT_GE(cn.metrics().Get("cn.write_batches"), 2);

  for (int64_t id : ids) {
    auto reader = [this, &cn,
                   id]() -> sim::Task<StatusOr<std::optional<Row>>> {
      auto txn = co_await cn.Begin();
      if (!txn.ok()) co_return txn.status();
      Row key = {id};
      co_return co_await cn.Get(&*txn, "accounts", key);
    };
    auto row = RunTask(reader());
    ASSERT_TRUE(row.ok());
    ASSERT_TRUE(row->has_value());
    EXPECT_EQ(std::get<int64_t>((**row)[2]), 2);
  }
  EXPECT_EQ(TotalLocksHeld(), 0u);
}

// A failing entry (duplicate insert) aborts the transaction at the next
// barrier — here the commit flush — and every lock it took anywhere in the
// cluster is released; its provisional writes are rolled back.
TEST_F(WriteBatchTest, FailedEntryAbortsAndReleasesAllLocks) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());

  auto insert_one = [this, &cn](int64_t id) -> Status {
    auto work = [&cn, id]() -> sim::Task<Status> {
      auto txn = co_await cn.Begin();
      if (!txn.ok()) co_return txn.status();
      Row row = {id, std::string("owner"), id};
      Status s = co_await cn.Insert(&*txn, "accounts", row);
      if (!s.ok()) {
        (void)co_await cn.Abort(&*txn);
        co_return s;
      }
      co_return co_await cn.Commit(&*txn);
    };
    return RunTask(work());
  };
  ASSERT_TRUE(insert_one(1).ok());

  auto doomed = [this, &cn]() -> sim::Task<Status> {
    auto txn = co_await cn.Begin();
    if (!txn.ok()) co_return txn.status();
    Row fresh = {int64_t{500}, std::string("owner"), int64_t{1}};
    Status s = co_await cn.Insert(&*txn, "accounts", fresh);
    if (!s.ok()) co_return s;
    Row dup = {int64_t{1}, std::string("owner"), int64_t{2}};
    s = co_await cn.Insert(&*txn, "accounts", dup);
    if (!s.ok()) co_return s;
    co_return co_await cn.Commit(&*txn);
  };
  Status commit = RunTask(doomed());
  EXPECT_FALSE(commit.ok());
  EXPECT_GE(cn.metrics().Get("cn.write_batch_entry_failures"), 1);

  sim_.RunFor(500 * kMillisecond);
  EXPECT_EQ(TotalLocksHeld(), 0u);

  // The fresh row must not have leaked out of the aborted transaction,
  // and its key must be writable again (locks really released).
  auto get500 = [this, &cn]() -> sim::Task<StatusOr<std::optional<Row>>> {
    auto txn = co_await cn.Begin();
    if (!txn.ok()) co_return txn.status();
    Row key = {int64_t{500}};
    co_return co_await cn.Get(&*txn, "accounts", key);
  };
  auto row = RunTask(get500());
  ASSERT_TRUE(row.ok());
  EXPECT_FALSE(row->has_value());
  EXPECT_TRUE(insert_one(500).ok());
}

// Replicated tables fan out each write to every shard through the
// per-shard buffers, and reads are served by the CN's local primary
// afterwards.
class ReplicatedFanOutTest : public WriteBatchTest {};

TEST_F(ReplicatedFanOutTest, Batched) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(RatesSchema())).ok());

  auto writer = [this, &cn]() -> sim::Task<Status> {
    auto txn = co_await cn.Begin();
    if (!txn.ok()) co_return txn.status();
    Row row = {int64_t{7}, int64_t{125}};
    Status s = co_await cn.Insert(&*txn, "rates", row);
    if (!s.ok()) co_return s;
    co_return co_await cn.Commit(&*txn);
  };
  ASSERT_TRUE(RunTask(writer()).ok());
  // One copy applied on every shard.
  EXPECT_EQ(DnTotal("dn.batched_writes"), 6);

  // Every CN (each in a different region) reads its local copy.
  for (size_t c = 0; c < cluster_->num_cns(); ++c) {
    auto& reader_cn = cluster_->cn(c);
    auto reader = [this,
                   &reader_cn]() -> sim::Task<StatusOr<std::optional<Row>>> {
      auto txn = co_await reader_cn.Begin();
      if (!txn.ok()) co_return txn.status();
      Row key = {int64_t{7}};
      co_return co_await reader_cn.Get(&*txn, "rates", key);
    };
    auto row = RunTask(reader());
    ASSERT_TRUE(row.ok()) << "cn=" << c;
    ASSERT_TRUE(row->has_value()) << "cn=" << c;
    EXPECT_EQ(std::get<int64_t>((**row)[1]), 125);
  }
  EXPECT_EQ(TotalLocksHeld(), 0u);
}

}  // namespace
}  // namespace globaldb
