// In-doubt 2PC outcome resolution on a promoted primary (DESIGN.md §13),
// one deterministic scenario per resolution path:
//   - the owning CN's decision cache answers (abort flavor),
//   - a peer participant shard answers (commit flavor, CN dead),
//   - presumed abort once the CN and every peer answer a definitive
//     "unknown" (decision evicted everywhere),
//   - a promoted replica that replayed COMMIT_PREPARED rejects a
//     duplicated late abort via its adopted decision memo,
//   - and a re-driven one-shard commit that reaches a promoted replica the
//     transaction's writes never shipped to is refused, not acknowledged.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/rpc/rpc_client.h"
#include "src/storage/schema.h"

namespace globaldb {
namespace {

ClusterOptions MakeOptions() {
  ClusterOptions options;
  options.topology = sim::Topology::SingleRegion();
  options.network.nagle_enabled = false;
  // Fast transport failures so re-drives against dead nodes churn quickly.
  options.network.rpc_timeout = 250 * kMillisecond;
  options.num_shards = 2;
  options.cns_per_region = 2;
  options.replicas_per_shard = 2;
  // Sync-quorum: the prepare durability wait puts every PREPARE the CN acted
  // on onto the most-caught-up replica before the decision — the basis of
  // in-doubt transfer at promotion.
  options.shipper.mode = ReplicationMode::kSyncQuorum;
  options.shipper.quorum_replicas = 1;
  // Promotions are driven explicitly by the test.
  options.health.enabled = false;
  return options;
}

TableSchema PairSchema() {
  TableSchema schema;
  schema.name = "pairs";
  schema.columns = {{"id", ColumnType::kInt64}, {"val", ColumnType::kInt64}};
  schema.key_columns = {0};
  schema.distribution_column = 0;
  return schema;
}

int64_t KeyOnShard(uint32_t num_shards, ShardId shard, int64_t start) {
  const TableSchema schema = PairSchema();
  for (int64_t id = start;; ++id) {
    if (RouteRowToShard(schema, {id, 0}, num_shards) == shard) return id;
  }
}

void CreatePairsTable(sim::Simulator* sim, Cluster* cluster) {
  bool ready = false;
  auto setup = [](Cluster* cluster, bool* ready) -> sim::Task<void> {
    TableSchema schema = PairSchema();
    EXPECT_TRUE((co_await cluster->cn(0).CreateTable(schema)).ok());
    *ready = true;
  };
  sim->Spawn(setup(cluster, &ready));
  for (int i = 0; i < 200 && !ready; ++i) sim->RunFor(10 * kMillisecond);
  ASSERT_TRUE(ready);
}

/// One cross-shard transaction: insert `a` and `b`, then commit. Reports the
/// commit status and the transaction id.
sim::Task<void> RunPairTxn(Cluster* cluster, int64_t a, int64_t b,
                           Status* commit_status, TxnId* txn_id, bool* done) {
  CoordinatorNode& cn = cluster->cn(0);
  auto txn = co_await cn.Begin();
  EXPECT_TRUE(txn.ok());
  if (!txn.ok()) {
    *done = true;
    co_return;
  }
  if (txn_id != nullptr) *txn_id = txn->id;
  Row row_a = {a, 1};
  Row row_b = {b, 2};
  Status s = co_await cn.Insert(&*txn, "pairs", row_a);
  if (s.ok()) s = co_await cn.Insert(&*txn, "pairs", row_b);
  if (s.ok()) {
    *commit_status = co_await cn.Commit(&*txn);
  } else {
    (void)co_await cn.Abort(&*txn);
    *commit_status = s;
  }
  *done = true;
}

/// Reads `key` through `cn_index` (a regular primary read — a read-only
/// txn's RCP snapshot can be frozen pre-commit when the collector CN or a
/// replica stream died mid-test) and reports whether it exists.
sim::Task<void> ProbeRow(Cluster* cluster, int cn_index, int64_t key,
                         bool* found, bool* done) {
  CoordinatorNode& cn = cluster->cn(cn_index);
  auto txn = co_await cn.Begin();
  EXPECT_TRUE(txn.ok());
  if (txn.ok()) {
    Row key_row = {key};
    auto row = co_await cn.Get(&*txn, "pairs", key_row);
    EXPECT_TRUE(row.ok());
    *found = row.ok() && row->has_value();
    (void)co_await cn.Abort(&*txn);
  }
  *done = true;
}

bool RowExists(sim::Simulator* sim, Cluster* cluster, int cn_index,
               int64_t key) {
  bool found = false;
  bool done = false;
  sim->Spawn(ProbeRow(cluster, cn_index, key, &found, &done));
  for (int i = 0; i < 500 && !done; ++i) sim->RunFor(10 * kMillisecond);
  EXPECT_TRUE(done);
  return found;
}

TEST(InDoubtResolutionTest, ResolvedByOwnerCnAbort) {
  sim::Simulator sim(11);
  ClusterOptions options = MakeOptions();
  Cluster cluster(&sim, options);
  cluster.Start();
  CreatePairsTable(&sim, &cluster);

  const int64_t key0 = KeyOnShard(options.num_shards, 0, 1);
  const int64_t key1 = KeyOnShard(options.num_shards, 1, key0 + 1);

  // The primary of shard 0 dies right after the PREPARE is appended and
  // replicated: the CN sees the precommit fail and aborts, but the crashed
  // shard holds a prepared transaction only its promoted successor can
  // resolve.
  cluster.data_node(0).ArmCrash(CrashStage::kAfterPrepareAppend);
  Status commit_status;
  bool done = false;
  sim.Spawn(RunPairTxn(&cluster, key0, key1, &commit_status, nullptr, &done));
  for (int i = 0; i < 500 && !done; ++i) sim.RunFor(10 * kMillisecond);
  ASSERT_TRUE(done);
  EXPECT_FALSE(commit_status.ok());
  EXPECT_FALSE(cluster.network().IsNodeUp(Cluster::PrimaryNodeId(0)));
  EXPECT_EQ(cluster.data_node(0).metrics().Get("dn.staged_crashes"), 1);

  // Let the CN's abort re-drive exhaust against the dead primary, then
  // promote. The prepared transaction must arrive in doubt, not be blindly
  // aborted at install.
  sim.RunFor(500 * kMillisecond);
  ASSERT_NE(cluster.PromoteShard(0), kInvalidNodeId);
  DataNode& promoted = cluster.data_node(0);
  EXPECT_EQ(promoted.metrics().Get("dn.promotion_in_doubt"), 1);

  // The resolver queries the owning CN's decision cache and learns ABORTED.
  sim.RunFor(1 * kSecond);
  EXPECT_EQ(promoted.in_doubt_count(), 0u);
  EXPECT_GE(promoted.metrics().Get("dn.outcome_queries"), 1);
  EXPECT_EQ(promoted.metrics().Get("dn.outcome_resolved_by_cn"), 1);
  EXPECT_EQ(promoted.metrics().Get("dn.promotion_aborts_resolved"), 1);
  EXPECT_EQ(promoted.metrics().Get("dn.promotion_aborts_presumed"), 0);
  EXPECT_GE(cluster.cn(0).metrics().Get("cn.outcome_queries_served"), 1);

  // Atomicity: the transaction aborted everywhere — neither row exists.
  EXPECT_FALSE(RowExists(&sim, &cluster, 1, key0));
  EXPECT_FALSE(RowExists(&sim, &cluster, 1, key1));
}

TEST(InDoubtResolutionTest, ResolvedByPeerShardCommit) {
  sim::Simulator sim(22);
  ClusterOptions options = MakeOptions();
  Cluster cluster(&sim, options);
  cluster.Start();
  CreatePairsTable(&sim, &cluster);

  const int64_t key0 = KeyOnShard(options.num_shards, 0, 1);
  const int64_t key1 = KeyOnShard(options.num_shards, 1, key0 + 1);

  // The primary of shard 0 dies when the phase-2 commit arrives (nothing of
  // it applies); shard 1 applies and memoizes the commit. Then the owning CN
  // goes down too: the only remaining source of truth is the peer shard.
  cluster.data_node(0).ArmCrash(CrashStage::kOnCommitArrival);
  Status commit_status;
  bool done = false;
  sim.Spawn(RunPairTxn(&cluster, key0, key1, &commit_status, nullptr, &done));
  for (int i = 0; i < 1000 && cluster.network().IsNodeUp(
                                  Cluster::PrimaryNodeId(0));
       ++i) {
    sim.RunFor(1 * kMillisecond);
  }
  ASSERT_FALSE(cluster.network().IsNodeUp(Cluster::PrimaryNodeId(0)));
  cluster.network().SetNodeUp(Cluster::CnNodeId(0), false);

  sim.RunFor(200 * kMillisecond);
  ASSERT_NE(cluster.PromoteShard(0), kInvalidNodeId);
  DataNode& promoted = cluster.data_node(0);
  EXPECT_EQ(promoted.metrics().Get("dn.promotion_in_doubt"), 1);

  // CN queries fail (it is down); the peer participant answers COMMITTED.
  sim.RunFor(2 * kSecond);
  EXPECT_EQ(promoted.in_doubt_count(), 0u);
  EXPECT_EQ(promoted.metrics().Get("dn.outcome_resolved_by_peer"), 1);
  EXPECT_EQ(promoted.metrics().Get("dn.promotion_commits"), 1);
  EXPECT_GE(cluster.data_node(1).metrics().Get("dn.txn_state_queries"), 1);

  // Atomicity: the transaction committed everywhere — both rows exist
  // (read via the surviving CN).
  EXPECT_TRUE(RowExists(&sim, &cluster, 1, key0));
  EXPECT_TRUE(RowExists(&sim, &cluster, 1, key1));
}

TEST(InDoubtResolutionTest, PresumedAbortWhenEverySourceIsDefinitive) {
  sim::Simulator sim(33);
  ClusterOptions options = MakeOptions();
  // Tiny decision memos: the aborted transaction's outcome is evicted from
  // both the CN cache and the peer shard's memo before promotion, leaving
  // every source answering a definitive "unknown".
  options.coordinator.decision_cache_capacity = 2;
  options.data_node.decision_memo_capacity = 2;
  Cluster cluster(&sim, options);
  cluster.Start();
  CreatePairsTable(&sim, &cluster);

  const int64_t key0 = KeyOnShard(options.num_shards, 0, 1);
  const int64_t key1 = KeyOnShard(options.num_shards, 1, key0 + 1);

  cluster.data_node(0).ArmCrash(CrashStage::kAfterPrepareAppend);
  Status commit_status;
  bool done = false;
  sim.Spawn(RunPairTxn(&cluster, key0, key1, &commit_status, nullptr, &done));
  for (int i = 0; i < 500 && !done; ++i) sim.RunFor(10 * kMillisecond);
  ASSERT_TRUE(done);
  EXPECT_FALSE(commit_status.ok());

  // Push the aborted decision out of both bounded memos with fresh
  // single-shard transactions on the surviving shard.
  for (int i = 0; i < 4; ++i) {
    const int64_t filler = KeyOnShard(options.num_shards, 1, 10000 + i * 100);
    Status filler_status;
    bool filler_done = false;
    sim.Spawn(RunPairTxn(&cluster, filler, filler + 0, &filler_status,
                         nullptr, &filler_done));
    for (int j = 0; j < 200 && !filler_done; ++j) {
      sim.RunFor(10 * kMillisecond);
    }
    ASSERT_TRUE(filler_done);
  }

  ASSERT_NE(cluster.PromoteShard(0), kInvalidNodeId);
  DataNode& promoted = cluster.data_node(0);
  EXPECT_EQ(promoted.metrics().Get("dn.promotion_in_doubt"), 1);

  // CN: definitive unknown (evicted, not in flight). Peer: definitive
  // unknown (evicted). Only now is presumed abort allowed.
  sim.RunFor(2 * kSecond);
  EXPECT_EQ(promoted.in_doubt_count(), 0u);
  EXPECT_GE(promoted.metrics().Get("dn.outcome_queries"), 2);
  EXPECT_EQ(promoted.metrics().Get("dn.promotion_aborts_presumed"), 1);
  EXPECT_EQ(promoted.metrics().Get("dn.outcome_resolved_by_cn"), 0);
  EXPECT_EQ(promoted.metrics().Get("dn.outcome_resolved_by_peer"), 0);

  EXPECT_FALSE(RowExists(&sim, &cluster, 1, key0));
}

TEST(InDoubtResolutionTest, PromotedReplicaRejectsDuplicatedLateAbort) {
  sim::Simulator sim(44);
  ClusterOptions options = MakeOptions();
  Cluster cluster(&sim, options);
  cluster.Start();
  CreatePairsTable(&sim, &cluster);

  const int64_t key0 = KeyOnShard(options.num_shards, 0, 1);
  const int64_t key1 = KeyOnShard(options.num_shards, 1, key0 + 1);

  // A clean cross-shard commit: replicas replay PREPARE + COMMIT_PREPARED.
  Status commit_status;
  TxnId txn_id = kInvalidTxnId;
  bool done = false;
  sim.Spawn(RunPairTxn(&cluster, key0, key1, &commit_status, &txn_id, &done));
  for (int i = 0; i < 500 && !done; ++i) sim.RunFor(10 * kMillisecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(commit_status.ok());
  ASSERT_NE(txn_id, kInvalidTxnId);
  sim.RunFor(300 * kMillisecond);

  // Promote a replica of shard 0: it adopts the replayed decision memo.
  const NodeId promoted_id = cluster.PromoteShard(0);
  ASSERT_NE(promoted_id, kInvalidNodeId);
  DataNode& promoted = cluster.data_node(0);
  sim.RunFor(200 * kMillisecond);
  ASSERT_NE(promoted.decisions().Lookup(txn_id), nullptr);

  // A duplicated, reordered-past-the-promotion abort for the committed
  // transaction must be rejected both times — never applied.
  std::vector<Status> replies;
  bool aborts_done = false;
  auto late_aborts = [](Cluster* cluster, NodeId target, TxnId txn,
                        std::vector<Status>* replies,
                        bool* done) -> sim::Task<void> {
    rpc::RpcClient client(&cluster->network(), Cluster::CnNodeId(0));
    TxnControlRequest late;
    late.txn = txn;
    late.two_phase = true;
    for (int i = 0; i < 2; ++i) {
      auto reply = co_await client.Call(target, kDnAbort, late);
      replies->push_back(reply.status());
    }
    *done = true;
  };
  sim.Spawn(late_aborts(&cluster, promoted_id, txn_id, &replies,
                        &aborts_done));
  for (int i = 0; i < 500 && !aborts_done; ++i) sim.RunFor(10 * kMillisecond);
  ASSERT_TRUE(aborts_done);
  ASSERT_EQ(replies.size(), 2u);
  for (const Status& reply : replies) {
    EXPECT_EQ(reply.code(), StatusCode::kFailedPrecondition);
  }
  EXPECT_GE(promoted.metrics().Get("dn.decision_dedup_hits"), 2);

  // The committed rows survived the duplicated aborts.
  EXPECT_TRUE(RowExists(&sim, &cluster, 0, key0));
  EXPECT_TRUE(RowExists(&sim, &cluster, 0, key1));
}

/// A dn.commit handler that kills `node` when the commit arrives: nothing of
/// it applies, and the coordinator's call fails in transport.
sim::Task<std::string> CrashOnArrival(sim::Network* network, NodeId node) {
  network->SetNodeUp(node, false);
  co_return std::string();
}

TEST(InDoubtResolutionTest, CommitUnknownToPromotedPrimaryIsNotAcknowledged) {
  sim::Simulator sim(55);
  ClusterOptions options = MakeOptions();
  // Async shipping: the commit does not wait for its writes to replicate.
  options.shipper.mode = ReplicationMode::kAsync;
  Cluster cluster(&sim, options);
  cluster.Start();
  CreatePairsTable(&sim, &cluster);
  sim.RunFor(200 * kMillisecond);  // the DDL reaches the replicas

  // From here on nothing the shard-0 primary logs reaches its replicas, and
  // it dies the moment the phase-2 commit arrives.
  const NodeId primary = Cluster::PrimaryNodeId(0);
  for (uint32_t i = 0; i < options.replicas_per_shard; ++i) {
    cluster.network().SetPartitioned(primary, cluster.ReplicaNodeId(0, i),
                                      true);
  }
  sim::Network* network = &cluster.network();
  network->RegisterHandler(primary, kDnCommit.name,
                           [network, primary](NodeId, std::string) {
                             return CrashOnArrival(network, primary);
                           });

  // A one-shard transaction: both rows live on shard 0.
  const int64_t key_a = KeyOnShard(options.num_shards, 0, 1);
  const int64_t key_b = KeyOnShard(options.num_shards, 0, key_a + 1);
  Status commit_status;
  bool done = false;
  sim.Spawn(RunPairTxn(&cluster, key_a, key_b, &commit_status, nullptr,
                       &done));
  for (int i = 0; i < 1000 && network->IsNodeUp(primary); ++i) {
    sim.RunFor(1 * kMillisecond);
  }
  ASSERT_FALSE(network->IsNodeUp(primary));
  EXPECT_FALSE(done);

  // The coordinator re-drives the commit; the promoted replica it reaches
  // never received the transaction's writes.
  ASSERT_NE(cluster.PromoteShard(0), kInvalidNodeId);
  for (int i = 0; i < 500 && !done; ++i) sim.RunFor(10 * kMillisecond);
  ASSERT_TRUE(done);
  EXPECT_GE(cluster.cn(0).metrics().Get("cn.commit_retries"), 1);
  EXPECT_EQ(cluster.data_node(0).metrics().Get("dn.commit_unknown"), 1);
  EXPECT_EQ(commit_status.code(), StatusCode::kNotFound);

  // Not acknowledged, and indeed not committed.
  EXPECT_FALSE(RowExists(&sim, &cluster, 1, key_a));
  EXPECT_FALSE(RowExists(&sim, &cluster, 1, key_b));
}

}  // namespace
}  // namespace globaldb
