#include "src/cluster/cluster.h"

#include <gtest/gtest.h>

#include <optional>

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

class ClusterTest : public ::testing::Test {
 public:  // accessed from plain-function coroutines in tests
  ClusterTest() : sim_(21) {}

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

  /// Runs a coroutine to completion and returns its result.
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

  Status CreateAccounts(CoordinatorNode& cn) {
    return RunTask(cn.CreateTable(AccountsSchema()));
  }

  Status InsertAccount(CoordinatorNode& cn, int64_t id,
                       const std::string& owner, int64_t balance) {
    auto work = [](CoordinatorNode* cn, int64_t id, std::string owner,
                   int64_t balance) -> sim::Task<Status> {
      auto txn = co_await cn->Begin();
      if (!txn.ok()) co_return txn.status();
      // Note: braced-init-list temporaries inside co_await expressions
      // miscompile on GCC 12; build rows as locals first.
      Row row = {id, owner, balance};
      Status s = co_await cn->Insert(&*txn, "accounts", row);
      if (!s.ok()) {
        (void)co_await cn->Abort(&*txn);
        co_return s;
      }
      co_return co_await cn->Commit(&*txn);
    };
    return RunTask(work(&cn, id, owner, balance));
  }

  StatusOr<std::optional<Row>> GetAccount(CoordinatorNode& cn, int64_t id,
                                          bool read_only = false) {
    auto work = [](CoordinatorNode* cn, int64_t id,
                   bool ro) -> sim::Task<StatusOr<std::optional<Row>>> {
      auto txn = co_await cn->Begin(ro, /*single_shard=*/true);
      if (!txn.ok()) co_return txn.status();
      Row key = {id};
      co_return co_await cn->Get(&*txn, "accounts", key);
    };
    return RunTask(work(&cn, id, read_only));
  }

  sim::Simulator sim_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ClusterTest, CreateInsertRead) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(CreateAccounts(cn).ok());
  for (int64_t id = 1; id <= 20; ++id) {
    ASSERT_TRUE(InsertAccount(cn, id, "owner" + std::to_string(id),
                              id * 100).ok())
        << id;
  }
  for (int64_t id = 1; id <= 20; ++id) {
    auto row = GetAccount(cn, id);
    ASSERT_TRUE(row.ok());
    ASSERT_TRUE(row->has_value());
    EXPECT_EQ(std::get<int64_t>((**row)[2]), id * 100);
  }
  // Missing key.
  auto missing = GetAccount(cn, 999);
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->has_value());
}

TEST_F(ClusterTest, DuplicateInsertFails) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(CreateAccounts(cn).ok());
  ASSERT_TRUE(InsertAccount(cn, 1, "a", 100).ok());
  Status s = InsertAccount(cn, 1, "b", 200);
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
  // Original row intact.
  auto row = GetAccount(cn, 1);
  EXPECT_EQ(std::get<std::string>((**row)[1]), "a");
}

TEST_F(ClusterTest, MultiShardTransferIsAtomic) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(CreateAccounts(cn).ok());
  // Find two ids on different shards.
  const TableSchema* schema = cn.catalog().FindTable("accounts");
  int64_t a = 1, b = 2;
  while (RouteRowToShard(*schema, {b, std::string(), int64_t{0}}, 6) ==
         RouteRowToShard(*schema, {a, std::string(), int64_t{0}}, 6)) {
    ++b;
  }
  ASSERT_TRUE(InsertAccount(cn, a, "alice", 1000).ok());
  ASSERT_TRUE(InsertAccount(cn, b, "bob", 1000).ok());

  auto transfer = [](CoordinatorNode* cn, int64_t from, int64_t to,
                     int64_t amount) -> sim::Task<Status> {
    auto txn = co_await cn->Begin();
    if (!txn.ok()) co_return txn.status();
    Row from_key = {from};
    Row to_key = {to};
    auto src = co_await cn->Get(&*txn, "accounts", from_key);
    auto dst = co_await cn->Get(&*txn, "accounts", to_key);
    if (!src.ok() || !dst.ok() || !src->has_value() || !dst->has_value()) {
      (void)co_await cn->Abort(&*txn);
      co_return Status::NotFound("account");
    }
    Row src_row = **src, dst_row = **dst;
    std::get<int64_t>(src_row[2]) -= amount;
    std::get<int64_t>(dst_row[2]) += amount;
    Status s1 = co_await cn->Update(&*txn, "accounts", src_row);
    Status s2 = co_await cn->Update(&*txn, "accounts", dst_row);
    if (!s1.ok() || !s2.ok()) {
      (void)co_await cn->Abort(&*txn);
      co_return s1.ok() ? s2 : s1;
    }
    co_return co_await cn->Commit(&*txn);
  };
  ASSERT_TRUE(RunTask(transfer(&cn, a, b, 250)).ok());
  EXPECT_EQ(std::get<int64_t>((**GetAccount(cn, a))[2]), 750);
  EXPECT_EQ(std::get<int64_t>((**GetAccount(cn, b))[2]), 1250);
  EXPECT_EQ(cn.metrics().Get("cn.2pc_commits"), 1);
}

TEST_F(ClusterTest, AbortRollsBackAllShards) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(CreateAccounts(cn).ok());
  ASSERT_TRUE(InsertAccount(cn, 1, "a", 100).ok());
  auto work = [](CoordinatorNode* cn) -> sim::Task<Status> {
    auto txn = co_await cn->Begin();
    if (!txn.ok()) co_return txn.status();
    Row row = {int64_t{1}, std::string("a"), int64_t{9999}};
    Status s = co_await cn->Update(&*txn, "accounts", row);
    if (!s.ok()) co_return s;
    Row extra = {int64_t{50}, std::string("x"), int64_t{1}};
    s = co_await cn->Insert(&*txn, "accounts", extra);
    if (!s.ok()) co_return s;
    co_return co_await cn->Abort(&*txn);
  };
  ASSERT_TRUE(RunTask(work(&cn)).ok());
  EXPECT_EQ(std::get<int64_t>((**GetAccount(cn, 1))[2]), 100);
  EXPECT_FALSE(GetAccount(cn, 50)->has_value());
}

TEST_F(ClusterTest, SnapshotIsolationAcrossConcurrentTxns) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(CreateAccounts(cn).ok());
  ASSERT_TRUE(InsertAccount(cn, 1, "a", 100).ok());

  // Reader opens a snapshot, then a writer updates and commits; the reader
  // must still see the old value.
  auto scenario = [](CoordinatorNode* cn, int64_t* seen) -> sim::Task<void> {
    auto reader = co_await cn->Begin();
    EXPECT_TRUE(reader.ok());
    auto writer = co_await cn->Begin();
    EXPECT_TRUE(writer.ok());
    Row updated = {int64_t{1}, std::string("a"), int64_t{500}};
    Status s = co_await cn->Update(&*writer, "accounts", updated);
    EXPECT_TRUE(s.ok());
    EXPECT_TRUE((co_await cn->Commit(&*writer)).ok());
    Row key = {int64_t{1}};
    auto row = co_await cn->Get(&*reader, "accounts", key);
    EXPECT_TRUE(row.ok());
    *seen = std::get<int64_t>((**row)[2]);
  };
  int64_t seen = -1;
  sim_.Spawn(scenario(&cluster_->cn(0), &seen));
  sim_.RunFor(5 * kSecond);
  EXPECT_EQ(seen, 100);
  // A fresh transaction sees the new value.
  EXPECT_EQ(std::get<int64_t>((**GetAccount(cn, 1))[2]), 500);
}

TEST_F(ClusterTest, WriteConflictAbortsSecondWriter) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(CreateAccounts(cn).ok());
  ASSERT_TRUE(InsertAccount(cn, 1, "a", 100).ok());

  Status second_status = Status::OK();
  auto scenario = [](CoordinatorNode* cn, Status* out) -> sim::Task<void> {
    auto t1 = co_await cn->Begin();
    auto t2 = co_await cn->Begin();
    EXPECT_TRUE(t1.ok() && t2.ok());
    Row row1 = {int64_t{1}, std::string("a"), int64_t{111}};
    Row row2 = {int64_t{1}, std::string("a"), int64_t{222}};
    EXPECT_TRUE((co_await cn->Update(&*t1, "accounts", row1)).ok());
    EXPECT_TRUE((co_await cn->Commit(&*t1)).ok());
    // t2's snapshot predates t1's commit: first-committer-wins aborts it.
    // With the pipelined write buffer the conflict surfaces at the commit
    // flush barrier.
    Status s = co_await cn->Update(&*t2, "accounts", row2);
    if (s.ok()) s = co_await cn->Commit(&*t2);
    *out = s;
    if (!s.ok()) (void)co_await cn->Abort(&*t2);
  };
  sim_.Spawn(scenario(&cn, &second_status));
  sim_.RunFor(5 * kSecond);
  EXPECT_EQ(second_status.code(), StatusCode::kAborted);
  EXPECT_EQ(std::get<int64_t>((**GetAccount(cn, 1))[2]), 111);
}

TEST_F(ClusterTest, RorReadsServedFromReplicas) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(CreateAccounts(cn).ok());
  for (int64_t id = 1; id <= 10; ++id) {
    ASSERT_TRUE(InsertAccount(cn, id, "o", id).ok());
  }
  // Let replication and the RCP catch up past the inserts.
  cluster_->WaitForRcp();
  sim_.RunFor(500 * kMillisecond);

  auto row = GetAccount(cn, 5, /*read_only=*/true);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ(std::get<int64_t>((**row)[2]), 5);
  EXPECT_GT(cn.metrics().Get("cn.replica_reads"), 0);
  EXPECT_GT(cn.metrics().Get("cn.ror_txns"), 0);
}

TEST_F(ClusterTest, RcpMonotonicAndRorConsistent) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  auto& remote_cn = cluster_->cn(2);
  ASSERT_TRUE(CreateAccounts(cn).ok());
  ASSERT_TRUE(InsertAccount(cn, 1, "a", 0).ok());
  cluster_->WaitForRcp();
  // Let the RCP move past the insert's commit timestamp on every CN.
  sim_.RunFor(300 * kMillisecond);

  Timestamp last_rcp = 0;
  int64_t last_balance = -1;
  for (int round = 0; round < 20; ++round) {
    // Keep writing; balance only increases.
    auto update = [](CoordinatorNode* cn, int64_t v) -> sim::Task<Status> {
      auto txn = co_await cn->Begin();
      if (!txn.ok()) co_return txn.status();
      Row updated = {int64_t{1}, std::string("a"), v};
      Status s = co_await cn->Update(&*txn, "accounts", updated);
      if (!s.ok()) co_return s;
      co_return co_await cn->Commit(&*txn);
    };
    ASSERT_TRUE(RunTask(update(&cn, (round + 1) * 10)).ok());
    sim_.RunFor(30 * kMillisecond);

    // ROR reads from a remote CN must be monotonic in freshness.
    EXPECT_GE(remote_cn.rcp(), last_rcp);
    last_rcp = remote_cn.rcp();
    auto row = GetAccount(remote_cn, 1, /*read_only=*/true);
    ASSERT_TRUE(row.ok());
    ASSERT_TRUE(row->has_value());
    const int64_t balance = std::get<int64_t>((**row)[2]);
    EXPECT_GE(balance, last_balance);
    last_balance = balance;
  }
  // The final read is reasonably fresh (within a few rounds).
  EXPECT_GE(last_balance, 120);
}

TEST_F(ClusterTest, ReplicaCrashFailsOverToPrimary) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(CreateAccounts(cn).ok());
  ASSERT_TRUE(InsertAccount(cn, 1, "a", 42).ok());
  cluster_->WaitForRcp();
  sim_.RunFor(200 * kMillisecond);

  // Kill every replica so ROR reads must fall back.
  for (ShardId s = 0; s < cluster_->num_shards(); ++s) {
    for (uint32_t r = 0; r < 2; ++r) {
      cluster_->network().SetNodeUp(cluster_->ReplicaNodeId(s, r), false);
    }
  }
  auto row = GetAccount(cn, 1, /*read_only=*/true);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ(std::get<int64_t>((**row)[2]), 42);
}

TEST_F(ClusterTest, DdlVisibleOnRorAfterReplay) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(CreateAccounts(cn).ok());
  ASSERT_TRUE(InsertAccount(cn, 1, "a", 7).ok());
  // Immediately after DDL the RCP is behind the DDL timestamp: ROR reads
  // fall back to the primary but still succeed.
  auto row = GetAccount(cn, 1, /*read_only=*/true);
  ASSERT_TRUE(row.ok());
  // After replay catches up, replica reads serve the table.
  cluster_->WaitForRcp();
  sim_.RunFor(1 * kSecond);
  EXPECT_GT(cn.rcp(), cn.catalog().MaxDdlTimestamp());
  // Reads of remote-mastered shards now come from replicas (locally
  // mastered shards legitimately prefer the local primary).
  const int64_t replica_reads_before = cn.metrics().Get("cn.replica_reads");
  for (int64_t id = 1; id <= 20; ++id) {
    auto r = GetAccount(cn, id, /*read_only=*/true);
    ASSERT_TRUE(r.ok());
  }
  EXPECT_GT(cn.metrics().Get("cn.replica_reads"), replica_reads_before);
}

TEST_F(ClusterTest, SecondCnSeesDdlAndData) {
  Build(ThreeCityOptions());
  auto& cn0 = cluster_->cn(0);
  auto& cn1 = cluster_->cn(1);
  ASSERT_TRUE(CreateAccounts(cn0).ok());
  ASSERT_TRUE(InsertAccount(cn0, 1, "a", 5).ok());
  ASSERT_NE(cn1.catalog().FindTable("accounts"), nullptr);
  auto row = GetAccount(cn1, 1);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(row->has_value());
}

TEST_F(ClusterTest, ScanMergesAcrossShards) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(CreateAccounts(cn).ok());
  for (int64_t id = 1; id <= 30; ++id) {
    ASSERT_TRUE(InsertAccount(cn, id, "o", id).ok());
  }
  auto work =
      [](CoordinatorNode* cn) -> sim::Task<StatusOr<std::vector<ScanResult>>> {
    auto txn = co_await cn->Begin();
    if (!txn.ok()) co_return txn.status();
    std::vector<ScanSpec> all(1);
    all[0].table = "accounts";
    co_return co_await cn->ScanBatch(&*txn, std::move(all));
  };
  auto scanned = RunTask(work(&cn));
  ASSERT_TRUE(scanned.ok());
  const std::vector<Row>& rows = (*scanned)[0].rows;
  ASSERT_EQ(rows.size(), 30u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(std::get<int64_t>(rows[i][0]), static_cast<int64_t>(i + 1));
  }
}

TEST_F(ClusterTest, LiveModeTransitionUnderTraffic) {
  ClusterOptions options = ThreeCityOptions();
  options.initial_mode = TimestampMode::kGtm;
  Build(options);
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(CreateAccounts(cn).ok());
  ASSERT_TRUE(InsertAccount(cn, 1, "a", 0).ok());

  int commits = 0, aborts = 0;
  bool done = false;
  auto writer = [](ClusterTest* test, CoordinatorNode* cn, int* commits,
                   int* aborts, bool* done) -> sim::Task<void> {
    int64_t v = 0;
    while (!*done) {
      co_await test->sim_.Sleep(10 * kMillisecond);
      auto txn = co_await cn->Begin();
      if (!txn.ok()) {
        ++*aborts;
        continue;
      }
      Row updated = {int64_t{1}, std::string("a"), ++v};
      Status s = co_await cn->Update(&*txn, "accounts", updated);
      if (s.ok()) s = co_await cn->Commit(&*txn);
      if (s.ok()) {
        ++*commits;
      } else {
        ++*aborts;
        (void)co_await cn->Abort(&*txn);
      }
    }
  };
  auto control = [](ClusterTest* test, Cluster* cluster,
                    bool* done) -> sim::Task<void> {
    co_await test->sim_.Sleep(100 * kMillisecond);
    auto up = co_await cluster->transition().SwitchToGclock();
    EXPECT_TRUE(up.ok());
    co_await test->sim_.Sleep(200 * kMillisecond);
    auto down = co_await cluster->transition().SwitchToGtm();
    EXPECT_TRUE(down.ok());
    co_await test->sim_.Sleep(100 * kMillisecond);
    *done = true;
  };
  sim_.Spawn(writer(this, &cn, &commits, &aborts, &done));
  sim_.Spawn(control(this, cluster_.get(), &done));
  sim_.RunFor(10 * kSecond);
  EXPECT_GT(commits, 20);
  // The switch may abort at most a handful of in-flight GTM transactions.
  EXPECT_LE(aborts, 3);
  EXPECT_EQ(cluster_->gtm().mode(), TimestampMode::kGtm);
}

}  // namespace
}  // namespace globaldb
