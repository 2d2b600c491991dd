#include <gtest/gtest.h>

#include <memory>

#include "src/common/codec.h"
#include "src/replication/log_shipper.h"
#include "src/replication/messages.h"
#include "src/replication/replica_applier.h"
#include "src/rpc/rpc_client.h"
#include "src/sim/cpu.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace globaldb {
namespace {

constexpr NodeId kPrimary = 1;
constexpr NodeId kReplicaLocal = 2;   // same region as primary
constexpr NodeId kReplicaRemote = 3;  // remote region

/// The uncompressed wire batch of a slice of the log.
std::string RawBatch(Slice payload) {
  std::string batch;
  LogStream::EncodeBatch(payload, CompressionType::kNone, &batch);
  return batch;
}

class ReplicationTest : public ::testing::Test {
 protected:
  ReplicationTest()
      : sim_(11),
        net_(&sim_, sim::Topology::Uniform(2, 30 * kMillisecond),
             NetOptions()) {
    net_.RegisterNode(kPrimary, 0);
    net_.RegisterNode(kReplicaLocal, 0);
    net_.RegisterNode(kReplicaRemote, 1);
    for (NodeId replica : {kReplicaLocal, kReplicaRemote}) {
      auto state = std::make_unique<ReplicaState>(&sim_, &net_, replica);
      replicas_.push_back(std::move(state));
    }
  }

  struct ReplicaState {
    ShardStore store{0};
    Catalog catalog;
    sim::CpuScheduler cpu;
    ReplicaApplier applier;
    ReplicaState(sim::Simulator* sim, sim::Network* net, NodeId id)
        : cpu(sim, 4),
          applier(sim, net, id, /*shard=*/0, &store, &catalog, &cpu) {}
  };

  static sim::NetworkOptions NetOptions() {
    sim::NetworkOptions o;
    o.nagle_enabled = false;
    o.jitter_fraction = 0;
    return o;
  }

  std::unique_ptr<LogShipper> MakeShipper(ShipperOptions options = {}) {
    auto shipper = std::make_unique<LogShipper>(
        &sim_, &net_, kPrimary, /*shard=*/0, &stream_,
        std::vector<NodeId>{kReplicaLocal, kReplicaRemote}, options);
    shipper->Start();
    return shipper;
  }

  void AppendTxn(TxnId txn, const std::string& key, const std::string& value,
                 Timestamp commit_ts) {
    stream_.Append(RedoRecord::Insert(txn, 1, key, value));
    stream_.Append(RedoRecord::PendingCommit(txn));
    stream_.Append(RedoRecord::Commit(txn, commit_ts));
  }

  sim::Simulator sim_;
  sim::Network net_;
  LogStream stream_;
  std::vector<std::unique_ptr<ReplicaState>> replicas_;
};

TEST_F(ReplicationTest, AsyncShippingReplaysOnAllReplicas) {
  auto shipper = MakeShipper();
  AppendTxn(1, "k1", "v1", 100);
  AppendTxn(2, "k2", "v2", 200);
  shipper->NotifyAppend();
  sim_.RunFor(1 * kSecond);
  shipper->Stop();
  for (auto& replica : replicas_) {
    EXPECT_EQ(replica->applier.applied_lsn(), 6u);
    EXPECT_EQ(replica->applier.max_commit_ts(), 200u);
    MvccTable* table = replica->store.GetTable(1);
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table->Read("k1", 150).value, "v1");
    EXPECT_EQ(table->Read("k2", 250).value, "v2");
    EXPECT_FALSE(table->Read("k2", 150).found);
  }
}

TEST_F(ReplicationTest, AsyncCommitDoesNotWait) {
  auto shipper = MakeShipper();
  AppendTxn(1, "k", "v", 100);
  SimTime elapsed = -1;
  auto waiter = [&]() -> sim::Task<void> {
    const SimTime start = sim_.now();
    Status s = co_await shipper->WaitDurable(3);
    EXPECT_TRUE(s.ok());
    elapsed = sim_.now() - start;
  };
  sim_.Spawn(waiter());
  sim_.RunFor(1 * kSecond);
  shipper->Stop();
  EXPECT_EQ(elapsed, 0);  // async: durable immediately
}

TEST_F(ReplicationTest, SyncQuorumWaitsForNearestReplica) {
  ShipperOptions options;
  options.mode = ReplicationMode::kSyncQuorum;
  options.quorum_replicas = 1;
  options.idle_wait = 200 * kMicrosecond;
  auto shipper = MakeShipper(options);
  AppendTxn(1, "k", "v", 100);
  shipper->NotifyAppend();
  SimTime elapsed = -1;
  auto waiter = [&]() -> sim::Task<void> {
    const SimTime start = sim_.now();
    Status s = co_await shipper->WaitDurable(3);
    EXPECT_TRUE(s.ok());
    elapsed = sim_.now() - start;
  };
  sim_.Spawn(waiter());
  sim_.RunFor(2 * kSecond);
  shipper->Stop();
  // Quorum of 1 is satisfied by the local replica: sub-millisecond-ish,
  // far below the 30 ms remote RTT.
  EXPECT_GE(elapsed, 0);
  EXPECT_LT(elapsed, 15 * kMillisecond);
}

TEST_F(ReplicationTest, SyncAllWaitsForRemoteReplica) {
  ShipperOptions options;
  options.mode = ReplicationMode::kSyncAll;
  options.idle_wait = 200 * kMicrosecond;
  auto shipper = MakeShipper(options);
  AppendTxn(1, "k", "v", 100);
  shipper->NotifyAppend();
  SimTime elapsed = -1;
  auto waiter = [&]() -> sim::Task<void> {
    const SimTime start = sim_.now();
    Status s = co_await shipper->WaitDurable(3);
    EXPECT_TRUE(s.ok());
    elapsed = sim_.now() - start;
  };
  sim_.Spawn(waiter());
  sim_.RunFor(2 * kSecond);
  shipper->Stop();
  // Must cover the 30 ms RTT to the remote replica.
  EXPECT_GE(elapsed, 30 * kMillisecond);
}

TEST_F(ReplicationTest, CompressionShrinksWireBytes) {
  // Ship the same records with and without LZ; compare wire bytes.
  for (int i = 0; i < 200; ++i) {
    AppendTxn(i + 1, "warehouse_key_" + std::to_string(i % 5),
              "customer_payload_with_repetitive_content_" +
                  std::to_string(i % 5),
              (i + 1) * 10);
  }
  ShipperOptions raw;
  raw.compression = CompressionType::kNone;
  auto shipper_raw = MakeShipper(raw);
  sim_.RunFor(2 * kSecond);
  shipper_raw->Stop();
  const int64_t raw_bytes = shipper_raw->metrics().Get("ship.bytes");

  ShipperOptions lz;
  lz.compression = CompressionType::kLz;
  // Fresh replicas to replay into (ack from 0 would be rejected otherwise).
  // Use new replica nodes.
  net_.RegisterNode(10, 0);
  net_.RegisterNode(11, 1);
  ReplicaState r10(&sim_, &net_, 10), r11(&sim_, &net_, 11);
  auto shipper_lz = std::make_unique<LogShipper>(
      &sim_, &net_, kPrimary, 0, &stream_, std::vector<NodeId>{10, 11}, lz);
  shipper_lz->Start();
  sim_.RunFor(2 * kSecond);
  shipper_lz->Stop();
  const int64_t lz_bytes = shipper_lz->metrics().Get("ship.bytes");

  EXPECT_GT(raw_bytes, 0);
  EXPECT_LT(lz_bytes, raw_bytes / 2);
  // And the data still replays correctly.
  EXPECT_EQ(r10.applier.max_commit_ts(), 2000u);
}

TEST_F(ReplicationTest, PendingCommitLocksTuplesUntilResolved) {
  auto shipper = MakeShipper();
  // Data + PENDING_COMMIT arrive, but the COMMIT record is delayed.
  stream_.Append(RedoRecord::Insert(7, 1, "k", "v"));
  stream_.Append(RedoRecord::PendingCommit(7));
  shipper->NotifyAppend();
  sim_.RunFor(200 * kMillisecond);

  auto& replica = *replicas_[0];
  EXPECT_TRUE(replica.applier.IsPending(7));
  MvccTable* table = replica.store.GetTable(1);
  ASSERT_NE(table, nullptr);
  ReadResult r = table->Read("k", 1000);
  EXPECT_FALSE(r.found);              // not yet committed
  EXPECT_EQ(r.provisional_txn, 7u);   // reader must wait on txn 7

  // A reader waits for resolution; the commit arrives later.
  bool resolved = false;
  auto reader = [&]() -> sim::Task<void> {
    co_await replica.applier.WaitResolved(7);
    resolved = true;
    EXPECT_TRUE(replica.store.GetTable(1)->Read("k", 1000).found);
  };
  sim_.Spawn(reader());
  sim_.RunFor(50 * kMillisecond);
  EXPECT_FALSE(resolved);
  stream_.Append(RedoRecord::Commit(7, 500));
  shipper->NotifyAppend();
  sim_.RunFor(500 * kMillisecond);
  shipper->Stop();
  EXPECT_TRUE(resolved);
  EXPECT_FALSE(replica.applier.IsPending(7));
}

TEST_F(ReplicationTest, AbortResolvesPendingWithoutData) {
  auto shipper = MakeShipper();
  stream_.Append(RedoRecord::Insert(7, 1, "k", "v"));
  stream_.Append(RedoRecord::PendingCommit(7));
  stream_.Append(RedoRecord::Abort(7));
  shipper->NotifyAppend();
  sim_.RunFor(500 * kMillisecond);
  shipper->Stop();
  auto& replica = *replicas_[0];
  EXPECT_FALSE(replica.applier.IsPending(7));
  ReadResult r = replica.store.GetTable(1)->Read("k", 1000);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.provisional_txn, kInvalidTxnId);  // rolled back entirely
}

TEST_F(ReplicationTest, TwoPhaseCommitPrepareBlocksUntilCommitPrepared) {
  auto shipper = MakeShipper();
  stream_.Append(RedoRecord::Insert(9, 1, "k", "v"));
  stream_.Append(RedoRecord::Prepare(9));
  shipper->NotifyAppend();
  sim_.RunFor(200 * kMillisecond);
  auto& replica = *replicas_[0];
  EXPECT_TRUE(replica.applier.IsPending(9));
  stream_.Append(RedoRecord::CommitPrepared(9, 900));
  shipper->NotifyAppend();
  sim_.RunFor(500 * kMillisecond);
  shipper->Stop();
  EXPECT_FALSE(replica.applier.IsPending(9));
  EXPECT_EQ(replica.store.GetTable(1)->Read("k", 900).value, "v");
  EXPECT_EQ(replica.applier.max_commit_ts(), 900u);
}

TEST_F(ReplicationTest, HeartbeatAdvancesMaxCommitTs) {
  auto shipper = MakeShipper();
  AppendTxn(1, "k", "v", 100);
  stream_.Append(RedoRecord::Heartbeat(5000));
  shipper->NotifyAppend();
  sim_.RunFor(1 * kSecond);
  shipper->Stop();
  EXPECT_EQ(replicas_[0]->applier.max_commit_ts(), 5000u);
}

TEST_F(ReplicationTest, DdlReplayUpdatesReplicaCatalog) {
  auto shipper = MakeShipper();
  TableSchema schema;
  schema.id = 5;
  schema.name = "accounts";
  schema.columns = {{"id", ColumnType::kInt64}};
  schema.key_columns = {0};
  stream_.Append(
      RedoRecord::Ddl(700, Catalog::MakeCreatePayload(schema)));
  shipper->NotifyAppend();
  sim_.RunFor(1 * kSecond);
  shipper->Stop();
  for (auto& replica : replicas_) {
    ASSERT_NE(replica->catalog.FindTable("accounts"), nullptr);
    EXPECT_EQ(replica->catalog.LastDdlTimestamp(5), 700u);
    EXPECT_EQ(replica->applier.max_commit_ts(), 700u);
  }
}

TEST_F(ReplicationTest, StalledReplicaCatchesUpAfterRecovery) {
  auto shipper = MakeShipper();
  replicas_[1]->applier.set_stalled(true);
  AppendTxn(1, "k", "v", 100);
  shipper->NotifyAppend();
  sim_.RunFor(300 * kMillisecond);
  EXPECT_EQ(replicas_[0]->applier.applied_lsn(), 3u);
  EXPECT_EQ(replicas_[1]->applier.applied_lsn(), 0u);
  replicas_[1]->applier.set_stalled(false);
  sim_.RunFor(1 * kSecond);
  shipper->Stop();
  EXPECT_EQ(replicas_[1]->applier.applied_lsn(), 3u);
  EXPECT_EQ(replicas_[1]->applier.max_commit_ts(), 100u);
}

TEST_F(ReplicationTest, CrashedReplicaRetriedAndRecovered) {
  auto shipper = MakeShipper();
  net_.SetNodeUp(kReplicaRemote, false);
  AppendTxn(1, "k", "v", 100);
  shipper->NotifyAppend();
  sim_.RunFor(300 * kMillisecond);
  EXPECT_EQ(replicas_[1]->applier.applied_lsn(), 0u);
  net_.SetNodeUp(kReplicaRemote, true);
  sim_.RunFor(10 * kSecond);
  shipper->Stop();
  EXPECT_EQ(replicas_[1]->applier.applied_lsn(), 3u);
}

TEST_F(ReplicationTest, LaggingReplicaHasLowerMaxCommitTs) {
  auto shipper = MakeShipper();
  replicas_[1]->applier.set_extra_apply_delay(40 * kMillisecond);
  for (int i = 0; i < 20; ++i) {
    AppendTxn(i + 1, "k" + std::to_string(i), "v", (i + 1) * 10);
    shipper->NotifyAppend();
    sim_.RunFor(5 * kMillisecond);
  }
  // Mid-stream: the delayed replica is behind.
  EXPECT_LT(replicas_[1]->applier.applied_lsn(),
            replicas_[0]->applier.applied_lsn());
  sim_.RunFor(5 * kSecond);
  shipper->Stop();
  EXPECT_EQ(replicas_[1]->applier.applied_lsn(),
            replicas_[0]->applier.applied_lsn());
}

TEST_F(ReplicationTest, DuplicateBatchDeliveryIsIdempotent) {
  // Craft a manual duplicate delivery of the same batch.
  AppendTxn(1, "k", "v", 100);
  auto extent = stream_.Extent(1, 100, 1 << 20);
  ASSERT_TRUE(extent.ok());
  ReplAppendRequest request;
  request.shard = 0;
  request.start_lsn = 1;
  const std::string request_batch = RawBatch(extent->payload);
  request.batch = request_batch;

  rpc::RpcClient client(&net_, kPrimary);
  auto deliver = [&]() -> sim::Task<void> {
    auto r1 = co_await client.Call(kReplicaLocal, kReplAppend, request);
    EXPECT_TRUE(r1.ok());
    auto r2 = co_await client.Call(kReplicaLocal, kReplAppend, request);
    EXPECT_TRUE(r2.ok());
    if (r2.ok()) {
      EXPECT_EQ(r2->applied_lsn, 3u);
    }
  };
  sim_.Spawn(deliver());
  sim_.Run();
  // Applied exactly once: a single version of "k".
  EXPECT_EQ(replicas_[0]->store.GetTable(1)->Read("k", 200).value, "v");
  EXPECT_EQ(replicas_[0]->applier.metrics().Get("apply.records"), 3);
}

TEST_F(ReplicationTest, GapBatchBufferedNotApplied) {
  AppendTxn(1, "k", "v", 100);
  AppendTxn(2, "j", "w", 200);
  auto extent = stream_.Extent(4, 100, 1 << 20);  // second txn only
  ASSERT_TRUE(extent.ok());
  ReplAppendRequest request;
  request.shard = 0;
  request.start_lsn = 4;  // gap: replica has applied nothing
  const std::string request_batch = RawBatch(extent->payload);
  request.batch = request_batch;
  rpc::RpcClient client(&net_, kPrimary);
  auto deliver = [&]() -> sim::Task<void> {
    auto r = co_await client.Call(kReplicaLocal, kReplAppend, request);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      // Accepted into the reorder buffer, but the cumulative ack does not
      // move: nothing was applied.
      EXPECT_TRUE(r->accepted);
      EXPECT_EQ(r->applied_lsn, 0u);
    }
  };
  sim_.Spawn(deliver());
  sim_.Run();
  ReplicaApplier& applier = replicas_[0]->applier;
  EXPECT_EQ(applier.applied_lsn(), 0u);
  EXPECT_EQ(applier.reorder_batches(), 1u);
  EXPECT_EQ(applier.metrics().Get("apply.reordered"), 1);
  EXPECT_EQ(applier.metrics().Get("apply.records"), 0);
}

TEST_F(ReplicationTest, GapBatchRefusedWhenReorderingDisabled) {
  AppendTxn(1, "k", "v", 100);
  AppendTxn(2, "j", "w", 200);
  net_.RegisterNode(4, 0);
  ShardStore store(0);
  Catalog catalog;
  sim::CpuScheduler cpu(&sim_, 4);
  ApplierOptions options;
  options.reorder_buffer_bytes = 0;  // strict refuse-any-gap policy
  ReplicaApplier applier(&sim_, &net_, 4, /*shard=*/0, &store, &catalog, &cpu,
                         options);
  auto extent = stream_.Extent(4, 100, 1 << 20);  // second txn only
  ASSERT_TRUE(extent.ok());
  ReplAppendRequest request;
  request.shard = 0;
  request.start_lsn = 4;  // gap: replica has applied nothing
  const std::string request_batch = RawBatch(extent->payload);
  request.batch = request_batch;
  rpc::RpcClient client(&net_, kPrimary);
  auto deliver = [&]() -> sim::Task<void> {
    auto r = co_await client.Call(4, kReplAppend, request);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_FALSE(r->accepted);  // refused
      EXPECT_EQ(r->applied_lsn, 0u);
    }
  };
  sim_.Spawn(deliver());
  sim_.Run();
  EXPECT_EQ(applier.metrics().Get("apply.reorder_refused"), 1);
  EXPECT_EQ(applier.reorder_batches(), 0u);
}

}  // namespace
}  // namespace globaldb
