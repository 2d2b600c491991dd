// Batched multi-get on the CN (DESIGN.md §11): MultiGet dedups its key
// set, runs the read-your-writes check with at most one flush barrier,
// groups keys by shard, and fans the groups out as parallel
// kDnReadBatch/kRorReadBatch RPCs. These tests pin down duplicate-key
// dedup, partial misses, the single flush barrier over buffered writes,
// mixed replica/primary routing, per-group failover when a replica dies
// mid-batch, byte-identical equivalence with one-key Get/GetForUpdate,
// Get itself riding the batch RPC, and Abort releasing a lock whose
// lock-read reply was lost.

#include "src/cluster/cluster.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/chaos/fault_scheduler.h"

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

class MultiGetTest : public ::testing::Test {
 public:  // accessed from coroutine lambdas in tests
  MultiGetTest() : sim_(71) {}

  void Build(ClusterOptions options) {
    cluster_ = std::make_unique<Cluster>(&sim_, std::move(options));
    cluster_->Start();
  }

  static ClusterOptions ThreeCityOptions() {
    ClusterOptions o;
    o.topology = sim::Topology::ThreeCity();
    o.network.nagle_enabled = false;
    // Calls into a dead node fail in 200 ms instead of the 5 s default.
    o.network.rpc_timeout = 200 * kMillisecond;
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

  /// First `n` account ids (starting at `from`) that route to `shard`.
  std::vector<int64_t> IdsOnShard(ShardId shard, int n, int64_t from = 1) {
    TableSchema schema = AccountsSchema();
    std::vector<int64_t> ids;
    for (int64_t id = from; ids.size() < static_cast<size_t>(n); ++id) {
      Row row = {id, std::string("o"), int64_t{0}};
      if (RouteRowToShard(schema, row, cluster_->num_shards()) == shard) {
        ids.push_back(id);
      }
    }
    return ids;
  }

  /// Inserts and commits one account row per id (balance = id * 10).
  sim::Task<Status> WriteIds(CoordinatorNode* cn, std::vector<int64_t> ids) {
    auto txn = co_await cn->Begin();
    if (!txn.ok()) co_return txn.status();
    for (int64_t id : ids) {
      Row row = {id, std::string("owner"), id * 10};
      Status s = co_await cn->Insert(&*txn, "accounts", row);
      if (!s.ok()) {
        (void)co_await cn->Abort(&*txn);
        co_return s;
      }
    }
    co_return co_await cn->Commit(&*txn);
  }

  sim::Simulator sim_;
  std::unique_ptr<Cluster> cluster_;
};

// Duplicate keys are fetched once and fanned back to every requesting
// slot; missing keys come back as nullopt without failing the batch.
TEST_F(MultiGetTest, DedupsDuplicatesAndReportsPartialMisses) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());
  ASSERT_TRUE(RunTask(WriteIds(&cn, {1, 2, 3})).ok());

  auto work = [this, &cn]() -> sim::Task<StatusOr<std::vector<std::optional<Row>>>> {
    auto txn = co_await cn.Begin();  // read-write: all groups go to primaries
    if (!txn.ok()) co_return txn.status();
    std::vector<Row> keys = {{int64_t{1}}, {int64_t{3}}, {int64_t{999}},
                             {int64_t{3}}, {int64_t{1}}};
    auto rows = co_await cn.MultiGet(&*txn, "accounts", keys);
    Status done = co_await cn.Commit(&*txn);
    if (!done.ok()) co_return done;
    co_return rows;
  };
  auto rows = RunTask(work());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 5u);
  // 5 requested slots, 3 unique keys: the data nodes saw exactly 3 reads.
  EXPECT_EQ(DnTotal("dn.batched_reads"), 3);
  EXPECT_EQ(cn.metrics().Hist("cn.read_batch_size").values().back(), 3);
  // Misses are nullopt; duplicates got identical rows.
  ASSERT_TRUE((*rows)[0].has_value());
  ASSERT_TRUE((*rows)[1].has_value());
  EXPECT_FALSE((*rows)[2].has_value());
  EXPECT_EQ((*rows)[3], (*rows)[1]);
  EXPECT_EQ((*rows)[4], (*rows)[0]);
  EXPECT_EQ(std::get<int64_t>((*(*rows)[0])[2]), 10);
  EXPECT_EQ(std::get<int64_t>((*(*rows)[1])[2]), 30);
}

// A MultiGet overlapping the transaction's own buffered writes flushes
// exactly once for the whole key set — not once per overlapping key — and
// then observes every buffered write.
TEST_F(MultiGetTest, ReadYourBufferedWritesWithOneFlushBarrier) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());
  ASSERT_TRUE(RunTask(WriteIds(&cn, {50, 51})).ok());

  auto work = [this, &cn]() -> sim::Task<Status> {
    auto txn = co_await cn.Begin();
    if (!txn.ok()) co_return txn.status();
    // Four buffered inserts (threshold 16: nothing departs on its own).
    for (int64_t id = 1; id <= 4; ++id) {
      Row row = {id, std::string("owner"), id * 100};
      Status s = co_await cn.Insert(&*txn, "accounts", row);
      if (!s.ok()) co_return s;
    }
    // All four buffered keys plus two committed ones in one MultiGet.
    std::vector<Row> keys = {{int64_t{1}}, {int64_t{2}}, {int64_t{3}},
                             {int64_t{4}}, {int64_t{50}}, {int64_t{51}}};
    auto rows = co_await cn.MultiGet(&*txn, "accounts", keys);
    if (!rows.ok()) co_return rows.status();
    for (int64_t id = 1; id <= 4; ++id) {
      EXPECT_TRUE((*rows)[id - 1].has_value()) << id;
      if ((*rows)[id - 1].has_value()) {
        EXPECT_EQ(std::get<int64_t>((*(*rows)[id - 1])[2]), id * 100);
      }
    }
    EXPECT_TRUE((*rows)[4].has_value());
    EXPECT_TRUE((*rows)[5].has_value());
    co_return co_await cn.Commit(&*txn);
  };
  ASSERT_TRUE(RunTask(work()).ok());
  EXPECT_EQ(cn.metrics().Get("cn.multiget_flush_barriers"), 1);
  EXPECT_EQ(TotalLocksHeld(), 0u);
}

// A ROR transaction whose key set spans a shard with healthy replicas and
// a shard whose replicas are all down routes the two groups differently:
// one batch to a replica, one to the primary, in the same fan-out.
TEST_F(MultiGetTest, MixedReplicaAndPrimaryRouting) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());

  // Both shards are mastered in a remote region, so with healthy replicas
  // the local-region replica wins the routing cost comparison. Killing
  // shard A's replicas forces only that group back to its remote primary.
  const ShardId shard_a = 1;
  const ShardId shard_b = 4;
  std::vector<int64_t> a_ids = IdsOnShard(shard_a, 2);
  std::vector<int64_t> b_ids = IdsOnShard(shard_b, 2);
  std::vector<int64_t> all = a_ids;
  all.insert(all.end(), b_ids.begin(), b_ids.end());
  ASSERT_TRUE(RunTask(WriteIds(&cn, all)).ok());
  cluster_->WaitForRcp();
  sim_.RunFor(500 * kMillisecond);  // RCP covers the commits above

  // Kill every replica of shard A and let the RCP poller notice: the
  // selector marks them unhealthy, so shard A's group must go primary.
  for (ReplicaNode* replica : cluster_->replicas_of(shard_a)) {
    cluster_->network().SetNodeUp(replica->node_id(), false);
  }
  sim_.RunFor(600 * kMillisecond);

  auto work = [this, &cn, all]() -> sim::Task<StatusOr<std::vector<std::optional<Row>>>> {
    auto txn = co_await cn.Begin(/*read_only=*/true);
    if (!txn.ok()) co_return txn.status();
    EXPECT_TRUE(txn->use_ror);
    std::vector<Row> keys;
    for (int64_t id : all) keys.push_back({id});
    co_return co_await cn.MultiGet(&*txn, "accounts", keys);
  };
  auto rows = RunTask(work());
  ASSERT_TRUE(rows.ok());
  for (size_t i = 0; i < all.size(); ++i) {
    ASSERT_TRUE((*rows)[i].has_value()) << all[i];
    EXPECT_EQ(std::get<int64_t>((*(*rows)[i])[2]), all[i] * 10);
  }
  EXPECT_GE(cn.metrics().Get("cn.read_batch_primary"), 1);
  EXPECT_GE(cn.metrics().Get("cn.read_batch_replica"), 1);
  EXPECT_GE(DnTotal("dn.batched_reads"), 2);  // shard A's group on primary
}

// A replica that dies between routing and delivery fails over only its own
// group to the shard primary (cn.replica_failovers), and the MultiGet
// still returns exactly the rows a serial Get sequence sees.
TEST_F(MultiGetTest, ReplicaCrashMidBatchFailsOverOneGroup) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());

  const ShardId shard_a = 1;
  const ShardId shard_b = 4;
  std::vector<int64_t> a_ids = IdsOnShard(shard_a, 2);
  std::vector<int64_t> b_ids = IdsOnShard(shard_b, 2);
  std::vector<int64_t> all = a_ids;
  all.insert(all.end(), b_ids.begin(), b_ids.end());
  ASSERT_TRUE(RunTask(WriteIds(&cn, all)).ok());
  cluster_->WaitForRcp();
  sim_.RunFor(500 * kMillisecond);

  // Freeze the RCP poller so the crash below goes unnoticed by the
  // selector: the MultiGet must discover the dead replica itself, on the
  // wire, and fail over mid-batch (the serial path's failover semantics).
  for (size_t c = 0; c < cluster_->num_cns(); ++c) {
    cluster_->cn(c).rcp_service().Deactivate();
  }

  // Chaos-style scripted crash of both shard A replicas just before the
  // read fires.
  const SimTime base = sim_.now();
  chaos::FaultScheduler faults(cluster_.get());
  for (ReplicaNode* replica : cluster_->replicas_of(shard_a)) {
    chaos::FaultEvent e;
    e.kind = chaos::FaultKind::kNodeCrash;
    e.at = base + 50 * kMillisecond;
    e.node = replica->node_id();
    faults.AddEvent(e);
  }
  faults.Start();

  auto work = [this, &cn, all]() -> sim::Task<Status> {
    co_await sim_.Sleep(60 * kMillisecond);  // crash has happened
    auto txn = co_await cn.Begin(/*read_only=*/true);
    if (!txn.ok()) co_return txn.status();
    EXPECT_TRUE(txn->use_ror);
    std::vector<Row> keys;
    for (int64_t id : all) keys.push_back({id});
    auto batched = co_await cn.MultiGet(&*txn, "accounts", keys);
    if (!batched.ok()) co_return batched.status();

    // Serial Gets in the same transaction (same snapshot) must agree
    // byte for byte, failover or not.
    for (size_t i = 0; i < all.size(); ++i) {
      Row key = {all[i]};
      auto serial = co_await cn.Get(&*txn, "accounts", key);
      if (!serial.ok()) co_return serial.status();
      EXPECT_EQ((*batched)[i], *serial) << all[i];
      EXPECT_TRUE((*batched)[i].has_value()) << all[i];
      if ((*batched)[i].has_value()) {
        EXPECT_EQ(std::get<int64_t>((*(*batched)[i])[2]), all[i] * 10);
      }
    }
    co_return Status::OK();
  };
  ASSERT_TRUE(RunTask(work()).ok());
  EXPECT_GE(cn.metrics().Get("cn.replica_failovers"), 1);
}

// In one read-write transaction, MultiGet (including a locked key) returns
// exactly what the equivalent serial Get/GetForUpdate calls return, and
// the for_update entry really holds its lock until commit.
TEST_F(MultiGetTest, MatchesSerialReadsByteForByte) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());
  ASSERT_TRUE(RunTask(WriteIds(&cn, {1, 2, 3, 4, 5, 6, 7, 8})).ok());

  auto work = [this, &cn]() -> sim::Task<Status> {
    auto txn = co_await cn.Begin();
    if (!txn.ok()) co_return txn.status();
    std::vector<MultiGetKey> keys;
    for (int64_t id = 1; id <= 8; ++id) {
      keys.push_back({"accounts", {id}, /*for_update=*/id == 5});
    }
    keys.push_back({"accounts", {int64_t{777}}, false});  // a miss
    auto batched = co_await cn.MultiGet(&*txn, keys);
    if (!batched.ok()) co_return batched.status();

    // The locked entry took its row lock on the primary.
    EXPECT_GE(TotalLocksHeld(), 1u);

    for (size_t i = 0; i < keys.size(); ++i) {
      if (keys[i].for_update) {
        auto serial =
            co_await cn.GetForUpdate(&*txn, "accounts", keys[i].key_values);
        if (!serial.ok()) co_return serial.status();
        EXPECT_EQ((*batched)[i], *serial) << i;
      } else {
        auto serial = co_await cn.Get(&*txn, "accounts", keys[i].key_values);
        if (!serial.ok()) co_return serial.status();
        EXPECT_EQ((*batched)[i], *serial) << i;
      }
    }
    EXPECT_FALSE((*batched)[8].has_value());
    co_return co_await cn.Commit(&*txn);
  };
  ASSERT_TRUE(RunTask(work()).ok());
  EXPECT_EQ(TotalLocksHeld(), 0u);
}

// A point Get is a one-key MultiGet: it travels as exactly one
// dn.read_batch RPC, and no per-key read method exists on the wire.
TEST_F(MultiGetTest, GetIsOneKeyReadBatch) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());
  ASSERT_TRUE(RunTask(WriteIds(&cn, {1, 2, 3})).ok());

  Metrics& rpc = cn.rpc_client().metrics();
  auto calls = [&rpc](const std::string& method) {
    return rpc.Hist("rpc." + method + ".latency").count();
  };
  auto work = [&]() -> sim::Task<Status> {
    auto txn = co_await cn.Begin();
    if (!txn.ok()) co_return txn.status();
    const size_t batches_before = calls("dn.read_batch");
    const int64_t dn_batches_before = DnTotal("dn.read_batches");
    const Row key = {int64_t{2}};
    auto row = co_await cn.Get(&*txn, "accounts", key);
    if (!row.ok()) co_return row.status();
    EXPECT_TRUE(row->has_value());
    if (row->has_value()) {
      EXPECT_EQ(std::get<int64_t>((**row)[2]), 20);
    }
    EXPECT_EQ(calls("dn.read_batch"), batches_before + 1);
    EXPECT_EQ(DnTotal("dn.read_batches"), dn_batches_before + 1);
    co_return co_await cn.Commit(&*txn);
  };
  ASSERT_TRUE(RunTask(work()).ok());
  EXPECT_EQ(calls("dn.read"), 0u);
  EXPECT_EQ(calls("ror.read"), 0u);
}

// A lock-read whose reply is lost after the DN granted the lock: the shard
// must already be in the transaction's write set, because only the abort
// broadcast frees an active transaction's locks on the DN.
TEST_F(MultiGetTest, AbortReleasesLockOfLostLockReadReply) {
  // rpc_timeout (200 ms) is below the DN's lock wait (500 ms).
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());
  ASSERT_TRUE(RunTask(WriteIds(&cn, {1})).ok());
  const Row key = {int64_t{1}};

  auto begun = RunTask(cn.Begin());
  ASSERT_TRUE(begun.ok());
  TxnHandle holder = *begun;
  ASSERT_TRUE(RunTask(cn.GetForUpdate(&holder, "accounts", key)).ok());

  begun = RunTask(cn.Begin());
  ASSERT_TRUE(begun.ok());
  TxnHandle waiter = *begun;
  // The waiter queues behind the holder's lock on the DN; its RPC times
  // out first.
  auto lost = RunTask(cn.GetForUpdate(&waiter, "accounts", key));
  ASSERT_FALSE(lost.ok());
  EXPECT_TRUE(rpc::IsTransportError(lost.status()));
  // The holder lets go: the DN grants the queued lock and replies to no
  // one.
  ASSERT_TRUE(RunTask(cn.Abort(&holder)).ok());
  sim_.RunFor(100 * kMillisecond);
  ASSERT_EQ(TotalLocksHeld(), 1u);

  ASSERT_TRUE(RunTask(cn.Abort(&waiter)).ok());
  sim_.RunFor(100 * kMillisecond);
  EXPECT_EQ(TotalLocksHeld(), 0u);
}

}  // namespace
}  // namespace globaldb
