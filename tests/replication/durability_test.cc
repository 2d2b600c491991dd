// Durability lifecycle units (DESIGN.md §12): truncation watermark math,
// MVCC vacuum-horizon safety, snapshot encode/install roundtrips, the
// shipper's truncated-cursor -> snapshot fallback, and the applier's
// snapshot-install interaction with the reorder buffer and apply gate.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/codec.h"
#include "src/common/metrics.h"
#include "src/log/log_stream.h"
#include "src/replication/durability_manager.h"
#include "src/replication/log_shipper.h"
#include "src/replication/messages.h"
#include "src/replication/replica_applier.h"
#include "src/rpc/rpc_client.h"
#include "src/sim/cpu.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/storage/snapshot.h"

namespace globaldb {
namespace {

constexpr NodeId kPrimary = 1;
constexpr NodeId kReplicaA = 2;
constexpr NodeId kReplicaB = 3;

/// The uncompressed wire batch of a slice of the log.
std::string RawBatch(Slice payload) {
  std::string batch;
  LogStream::EncodeBatch(payload, CompressionType::kNone, &batch);
  return batch;
}

// --- Watermark math (no network) -------------------------------------------

TEST(DurabilityManagerTest, WatermarkWithoutShipperFollowsCheckpoint) {
  LogStream stream;
  Metrics metrics;
  DurabilityManager dm(&stream, &metrics);
  for (int i = 0; i < 10; ++i) {
    stream.Append(RedoRecord::Insert(1, 1, "k" + std::to_string(i), "v"));
  }
  // No shipper: the primary itself is the whole quorum, so the checkpoint
  // LSN alone bounds truncation.
  ShardSnapshot snap;
  snap.checkpoint_lsn = 6;
  snap.catalog_image = "c";
  dm.PublishCheckpoint(std::move(snap));
  EXPECT_EQ(dm.TruncationWatermark(), 6u);
  EXPECT_EQ(stream.begin_lsn(), 7u);
  // Records past the checkpoint stay readable.
  EXPECT_TRUE(stream.Extent(7, 1, 1 << 20).ok());
  EXPECT_FALSE(stream.Extent(6, 1, 1 << 20).ok());
}

TEST(DurabilityManagerTest, ReadHorizonIsMonotoneAcrossModeFallback) {
  LogStream stream;
  Metrics metrics;
  DurabilityManager dm(&stream, &metrics);
  dm.AdvanceReadHorizon(100);
  EXPECT_EQ(dm.VacuumHorizon(), 100u);
  // A GClock -> GTM fallback can momentarily report a lower cluster
  // horizon; the clamp must hold so vacuumed versions never "come back"
  // into visibility range.
  dm.AdvanceReadHorizon(50);
  EXPECT_EQ(dm.VacuumHorizon(), 100u);
  dm.AdvanceReadHorizon(170);
  EXPECT_EQ(dm.VacuumHorizon(), 170u);
}

TEST(MvccVacuumTest, NeverReclaimsVersionsVisibleAtTheHorizon) {
  MvccTable table(1);
  table.ApplyInsert("k", "v1", /*txn=*/1);
  table.CommitTxn(1, 10);
  table.ApplyUpdate("k", "v2", /*txn=*/2);
  table.CommitTxn(2, 20);
  ASSERT_EQ(table.VersionCount(), 2u);

  // Horizon below the old version's end: a reader at 15 still needs v1.
  EXPECT_EQ(table.Vacuum(15).reclaimed, 0u);
  EXPECT_EQ(table.Read("k", 15).value, "v1");

  // Vacuum *at* the end timestamp is safe: visibility at snapshot S needs
  // end_ts > S, and vacuum only removes end_ts <= horizon. The oldest
  // in-flight read at 20 sees v2, which survives.
  EXPECT_EQ(table.Vacuum(20).reclaimed, 1u);
  EXPECT_EQ(table.VersionCount(), 1u);
  EXPECT_EQ(table.Read("k", 20).value, "v2");
  EXPECT_EQ(table.Read("k", 25).value, "v2");
}

// --- Snapshot roundtrip ------------------------------------------------------

TEST(ShardSnapshotTest, StoreImageRoundTripsIncludingProvisionalState) {
  ShardStore store(0);
  MvccTable* t1 = store.GetOrCreateTable(1);
  t1->ApplyInsert("a", "v1", 1);
  t1->CommitTxn(1, 10);
  t1->ApplyUpdate("a", "v2", 2);
  t1->CommitTxn(2, 20);
  // In-flight transaction 3: provisional insert, not yet resolved.
  t1->ApplyInsert("b", "pending", 3);
  store.GetOrCreateTable(2)->ApplyInsert("x", "y", 4);
  store.GetOrCreateTable(2)->CommitTxn(4, 30);

  const std::string image = EncodeShardStore(store);
  ShardStore restored(0);
  ASSERT_TRUE(InstallShardStore(Slice(image), &restored).ok());

  EXPECT_EQ(restored.VersionCount(), store.VersionCount());
  EXPECT_EQ(restored.GetTable(1)->Read("a", 15).value, "v1");
  EXPECT_EQ(restored.GetTable(1)->Read("a", 25).value, "v2");
  EXPECT_EQ(restored.GetTable(2)->Read("x", 35).value, "y");
  // Provisional bookkeeping survives: txn 3 is resolvable after install.
  ASSERT_EQ(restored.ProvisionalTxns(), std::vector<TxnId>{3});
  restored.CommitTxn(3, 40);
  EXPECT_EQ(restored.GetTable(1)->Read("b", 45).value, "pending");
  EXPECT_TRUE(restored.ProvisionalTxns().empty());
}

TEST(ShardSnapshotTest, StoreImageLengthPrefixesEachTableImage) {
  ShardStore store(0);
  for (TableId id : {1u, 2u, 300u}) {
    MvccTable* table = store.GetOrCreateTable(id);
    for (int i = 0; i < 200 * static_cast<int>(id % 7); ++i) {
      table->ApplyInsert("key" + std::to_string(i), std::string(i % 40, 'v'),
                         1);
    }
    table->CommitTxn(1, 10);
    table->ApplyUpdate("key1", "newer", 2);
  }
  std::string expected;
  PutVarint64(&expected, store.tables().size());
  for (const auto& [id, table] : store.tables()) {
    PutVarint32(&expected, id);
    std::string table_image;
    table->EncodeTo(&table_image);
    EXPECT_EQ(table->EncodedSize(), table_image.size());
    PutLengthPrefixed(&expected, table_image);
  }
  EXPECT_TRUE(EncodeShardStore(store) == expected);
}

TEST(ShardSnapshotTest, CorruptImageLeavesStoreUnchanged) {
  ShardStore source(0);
  source.GetOrCreateTable(1)->ApplyInsert("a", "new-a", 5);
  source.GetOrCreateTable(1)->CommitTxn(5, 10);
  source.GetOrCreateTable(1)->ApplyInsert("p", "pending", 7);
  source.GetOrCreateTable(2)->ApplyInsert("x", "new-x", 6);
  source.GetOrCreateTable(2)->CommitTxn(6, 10);
  const std::string image = EncodeShardStore(source);

  ShardStore store(0);
  store.GetOrCreateTable(1)->ApplyInsert("a", "old-a", 1);
  store.GetOrCreateTable(1)->CommitTxn(1, 10);
  store.GetOrCreateTable(3)->ApplyInsert("q", "old-pending", 9);
  const std::string before = EncodeShardStore(store);
  for (size_t cut = 0; cut < image.size(); ++cut) {
    ASSERT_EQ(InstallShardStore(Slice(image.data(), cut), &store).code(),
              StatusCode::kCorruption)
        << cut;
    ASSERT_TRUE(EncodeShardStore(store) == before) << cut;
    ASSERT_EQ(store.ProvisionalTxns(), std::vector<TxnId>{9}) << cut;
  }
  EXPECT_EQ(store.GetTable(1)->Read("a", 10).value, "old-a");
  ASSERT_TRUE(InstallShardStore(Slice(image), &store).ok());
  EXPECT_EQ(store.ProvisionalTxns(), std::vector<TxnId>{7});
  EXPECT_EQ(store.GetTable(3), nullptr);
  EXPECT_EQ(store.GetTable(1)->Read("a", 10).value, "new-a");
}

TEST(ShardSnapshotTest, StoreImageWithRepeatedTableIsCorruption) {
  ShardStore store(0);
  store.GetOrCreateTable(1)->ApplyInsert("a", "v1", 1);
  store.GetOrCreateTable(1)->CommitTxn(1, 10);
  std::string table_image;
  store.GetTable(1)->EncodeTo(&table_image);
  std::string image;
  PutVarint64(&image, 2);
  for (int i = 0; i < 2; ++i) {
    PutVarint32(&image, 1);
    PutLengthPrefixed(&image, table_image);
  }
  ShardStore restored(0);
  EXPECT_EQ(InstallShardStore(Slice(image), &restored).code(),
            StatusCode::kCorruption);
}

// --- Shipper + applier integration ------------------------------------------

class DurabilityShipperTest : public ::testing::Test {
 protected:
  DurabilityShipperTest()
      : sim_(17),
        net_(&sim_, sim::Topology::Uniform(2, 10 * kMillisecond),
             NetOptions()) {
    net_.RegisterNode(kPrimary, 0);
    net_.RegisterNode(kReplicaA, 0);
    net_.RegisterNode(kReplicaB, 1);
    for (NodeId replica : {kReplicaA, kReplicaB}) {
      replicas_.push_back(
          std::make_unique<ReplicaState>(&sim_, &net_, replica));
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
    o.rpc_timeout = 200 * kMillisecond;
    return o;
  }

  std::unique_ptr<LogShipper> MakeShipper(ShipperOptions options = {}) {
    auto shipper = std::make_unique<LogShipper>(
        &sim_, &net_, kPrimary, /*shard=*/0, &stream_,
        std::vector<NodeId>{kReplicaA, kReplicaB}, options);
    shipper->SetDurability(&durability_);
    durability_.set_shipper(shipper.get());
    shipper->Start();
    return shipper;
  }

  void AppendTxn(TxnId txn, const std::string& key, const std::string& value,
                 Timestamp commit_ts) {
    stream_.Append(RedoRecord::Insert(txn, 1, key, value));
    stream_.Append(RedoRecord::PendingCommit(txn));
    stream_.Append(RedoRecord::Commit(txn, commit_ts));
  }

  /// Publishes a checkpoint of replica A's replayed state (exactly what a
  /// real checkpoint at its applied LSN would contain), freezing its store.
  void PublishCheckpointFromReplicaA() {
    ReplicaState& source = *replicas_[0];
    ShardSnapshot snap;
    snap.checkpoint_lsn = source.applier.applied_lsn();
    snap.checkpoint_ts = 0;
    snap.max_commit_ts = source.applier.max_commit_ts();
    snap.catalog_image = EncodeCatalog(source.catalog);
    source.store.Freeze();
    snap.store = &source.store;
    durability_.PublishCheckpoint(std::move(snap));
  }

  sim::Simulator sim_;
  sim::Network net_;
  LogStream stream_;
  Metrics metrics_;
  DurabilityManager durability_{&stream_, &metrics_};
  std::vector<std::unique_ptr<ReplicaState>> replicas_;
};

TEST_F(DurabilityShipperTest, TruncationNeverPassesQuorumAck) {
  ShipperOptions options;
  options.mode = ReplicationMode::kSyncQuorum;
  options.quorum_replicas = 2;  // quorum tracks the *slowest* replica
  auto shipper = MakeShipper(options);
  AppendTxn(1, "k1", "v1", 100);
  shipper->NotifyAppend();
  sim_.RunFor(200 * kMillisecond);

  // Black-hole replica B, then keep committing: B's ack freezes, so the
  // 2-replica quorum freezes with it.
  net_.SetPartitioned(kPrimary, kReplicaB, true);
  const Lsn frozen_ack = shipper->AckedLsn(kReplicaB);
  for (int i = 0; i < 20; ++i) {
    AppendTxn(10 + i, "p" + std::to_string(i), "v", 200 + i);
  }
  shipper->NotifyAppend();
  sim_.RunFor(300 * kMillisecond);
  ASSERT_EQ(shipper->QuorumAckedLsn(), frozen_ack);

  // A checkpoint at the tail must clamp truncation to the quorum ack: every
  // record B has not acked stays shippable.
  PublishCheckpointFromReplicaA();
  EXPECT_EQ(durability_.TruncationWatermark(), frozen_ack);
  EXPECT_EQ(stream_.begin_lsn(), frozen_ack + 1);

  // Heal: B catches up via redo alone — no snapshot was ever needed.
  net_.SetPartitioned(kPrimary, kReplicaB, false);
  sim_.RunFor(2 * kSecond);
  shipper->Stop();
  EXPECT_EQ(replicas_[1]->applier.applied_lsn(), stream_.next_lsn() - 1);
  EXPECT_EQ(shipper->metrics().Get("ship.snapshots"), 0);
}

// Regression (satellite a): before the durability manager existed, a
// truncated cursor silently resynced to begin_lsn(), skipping the dropped
// records on the lagging replica forever. It must route through the
// snapshot fallback instead.
TEST_F(DurabilityShipperTest, TruncatedCursorFallsBackToSnapshotNotResync) {
  ShipperOptions options;
  options.quorum_replicas = 1;  // quorum = fastest replica; B can be outrun
  auto shipper = MakeShipper(options);
  AppendTxn(1, "k1", "v1", 100);
  shipper->NotifyAppend();
  sim_.RunFor(200 * kMillisecond);

  net_.SetPartitioned(kPrimary, kReplicaB, true);
  for (int i = 0; i < 20; ++i) {
    AppendTxn(10 + i, "p" + std::to_string(i), "v", 200 + i);
  }
  shipper->NotifyAppend();
  sim_.RunFor(300 * kMillisecond);

  // Checkpoint at replica A's applied tail truncates past B's cursor.
  PublishCheckpointFromReplicaA();
  ASSERT_GT(stream_.begin_lsn(), shipper->AckedLsn(kReplicaB) + 1);

  net_.SetPartitioned(kPrimary, kReplicaB, false);
  sim_.RunFor(3 * kSecond);
  shipper->Stop();

  // B converged — and did so through a full-state install (whether the
  // truncation was noticed at the Extent read or at the post-failure
  // rewind), not by silently skipping the truncated records.
  EXPECT_EQ(replicas_[1]->applier.applied_lsn(), stream_.next_lsn() - 1);
  EXPECT_GE(shipper->metrics().Get("ship.snapshots"), 1);
  EXPECT_GE(shipper->metrics().Get("ship.snapshot_installs"), 1);
  EXPECT_EQ(replicas_[1]->store.GetTable(1)->Read("p9", 1000).value, "v");
  // The shipper's ack bookkeeping reflects the install.
  EXPECT_EQ(shipper->AckedLsn(kReplicaB), stream_.next_lsn() - 1);
}

// A checkpoint freezes the primary's store instead of imaging it. A replica
// that lags past the truncation point installs it after the primary kept
// writing (updates and deletes of frozen rows, new rows, an open
// transaction): the image built on demand is the one EncodeShardStore took
// at the checkpoint, and replay from the checkpoint converges.
TEST_F(DurabilityShipperTest, LaggingReplicaInstallsFrozenCheckpoint) {
  ShipperOptions options;
  options.quorum_replicas = 1;  // quorum = fastest replica; B can be outrun
  auto shipper = MakeShipper(options);
  for (int i = 0; i < 10; ++i) {
    AppendTxn(1 + i, "k" + std::to_string(i), "v0", 100 + i);
  }
  shipper->NotifyAppend();
  sim_.RunFor(200 * kMillisecond);

  net_.SetPartitioned(kPrimary, kReplicaB, true);
  for (int i = 0; i < 10; ++i) {
    AppendTxn(20 + i, "p" + std::to_string(i), "v0", 200 + i);
  }
  shipper->NotifyAppend();
  sim_.RunFor(300 * kMillisecond);
  ReplicaState& source = *replicas_[0];
  const std::string eager = EncodeShardStore(source.store);
  PublishCheckpointFromReplicaA();
  ASSERT_GT(stream_.begin_lsn(), shipper->AckedLsn(kReplicaB) + 1);

  // The primary keeps writing under the freeze.
  for (int i = 0; i < 10; ++i) {
    const TxnId txn = 40 + i;
    const std::string key = "k" + std::to_string(i);
    stream_.Append(i % 3 == 0 ? RedoRecord::Delete(txn, 1, key)
                              : RedoRecord::Update(txn, 1, key, "v1"));
    stream_.Append(RedoRecord::PendingCommit(txn));
    stream_.Append(RedoRecord::Commit(txn, 300 + i));
  }
  AppendTxn(60, "q0", "v0", 400);
  stream_.Append(RedoRecord::Update(61, 1, "p0", "open"));  // left open
  shipper->NotifyAppend();
  sim_.RunFor(300 * kMillisecond);
  EXPECT_GT(source.store.FrozenBytes(), 0u);

  // Hold B's replay after the install so its store shows the image.
  ReplicaState& lagging = *replicas_[1];
  lagging.applier.set_extra_apply_delay(150 * kMillisecond);
  net_.SetPartitioned(kPrimary, kReplicaB, false);
  for (int i = 0; i < 3000 &&
                  lagging.applier.metrics().Get("apply.snapshot_installs") == 0;
       ++i) {
    sim_.RunFor(kMillisecond);
  }
  ASSERT_EQ(lagging.applier.metrics().Get("apply.snapshot_installs"), 1);
  EXPECT_TRUE(EncodeShardStore(lagging.store) == eager);
  EXPECT_TRUE(source.store.FrozenImage() == eager);
  // Every send (one was lost to the partition) shipped the frozen image.
  EXPECT_EQ(shipper->metrics().Get("ship.snapshot_bytes"),
            shipper->metrics().Get("ship.snapshots") *
                static_cast<int64_t>(eager.size() +
                                     EncodeCatalog(source.catalog).size()));

  lagging.applier.set_extra_apply_delay(0);
  sim_.RunFor(2 * kSecond);
  shipper->Stop();
  EXPECT_EQ(lagging.applier.applied_lsn(), stream_.next_lsn() - 1);
  EXPECT_TRUE(EncodeShardStore(lagging.store) ==
              EncodeShardStore(source.store));
  EXPECT_EQ(lagging.store.GetTable(1)->Read("k1", 1000).value, "v1");
  EXPECT_FALSE(lagging.store.GetTable(1)->Read("k0", 1000).found);
}

// Satellite b: a snapshot install clears the reorder buffer (its parked
// batches predate the image) and re-validates in-flight appends at the
// apply gate, so nothing stale replays on top of the installed state.
TEST_F(DurabilityShipperTest, SnapshotInstallClearsReorderBufferAndPending) {
  ReplicaState& replica = *replicas_[1];
  rpc::RpcClient client(&net_, kPrimary);

  // Build the log: 6 records (two txns).
  AppendTxn(1, "a", "v1", 10);
  AppendTxn(2, "b", "v2", 20);

  bool done = false;
  auto driver = [&]() -> sim::Task<void> {
    // Ship records 4..6 ahead of 1..3: they park in the reorder buffer.
    auto tail = stream_.Extent(4, 3, 1 << 20);
    EXPECT_TRUE(tail.ok());
    if (!tail.ok()) co_return;
    ReplAppendRequest ahead;
    ahead.shard = 0;
    ahead.start_lsn = 4;
    const std::string ahead_batch = RawBatch(tail->payload);
    ahead.batch = ahead_batch;
    auto reply = co_await client.Call(kReplicaB, kReplAppend, ahead);
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) co_return;
    EXPECT_TRUE(reply->accepted);     // buffered, not applied
    EXPECT_EQ(reply->applied_lsn, 0u);
    EXPECT_EQ(replica.applier.reorder_batches(), 1u);

    // Install a snapshot covering the whole log (cut from a store holding
    // both txns' effects).
    ShardStore source(0);
    MvccTable* t = source.GetOrCreateTable(1);
    t->ApplyInsert("a", "v1", 1);
    t->CommitTxn(1, 10);
    t->ApplyInsert("b", "v2", 2);
    t->CommitTxn(2, 20);
    Catalog source_catalog;
    const std::string catalog_image = EncodeCatalog(source_catalog);
    const std::string store_image = EncodeShardStore(source);
    ReplSnapshotRequest snap;
    snap.shard = 0;
    snap.checkpoint_lsn = 6;
    snap.max_commit_ts = 20;
    snap.catalog_image = catalog_image;
    snap.store_image = store_image;
    auto snap_reply = co_await client.Call(kReplicaB, kReplSnapshot, snap);
    EXPECT_TRUE(snap_reply.ok());
    if (!snap_reply.ok()) co_return;
    EXPECT_TRUE(snap_reply->accepted);
    EXPECT_EQ(snap_reply->applied_lsn, 6u);

    // The parked batch is gone, the pending set rebuilt from the image
    // (both txns resolved), and the FIFO gate accepts the next in-order
    // batch at exactly checkpoint_lsn + 1.
    EXPECT_EQ(replica.applier.reorder_batches(), 0u);
    EXPECT_EQ(replica.applier.reorder_bytes(), 0u);
    EXPECT_FALSE(replica.applier.IsPending(1));
    EXPECT_FALSE(replica.applier.IsPending(2));
    EXPECT_EQ(replica.applier.applied_lsn(), 6u);

    AppendTxn(3, "c", "v3", 30);
    auto next = stream_.Extent(7, 3, 1 << 20);
    EXPECT_TRUE(next.ok());
    if (!next.ok()) co_return;
    ReplAppendRequest follow;
    follow.shard = 0;
    follow.start_lsn = 7;
    const std::string follow_batch = RawBatch(next->payload);
    follow.batch = follow_batch;
    auto follow_reply = co_await client.Call(kReplicaB, kReplAppend, follow);
    EXPECT_TRUE(follow_reply.ok());
    if (!follow_reply.ok()) co_return;
    EXPECT_TRUE(follow_reply->accepted);
    EXPECT_EQ(follow_reply->applied_lsn, 9u);
    EXPECT_EQ(replica.store.GetTable(1)->Read("c", 100).value, "v3");
    done = true;
  };
  sim_.Spawn(driver());
  sim_.RunFor(2 * kSecond);
  EXPECT_TRUE(done);
}

// A reset install pins the applier to the installing primary: appends from
// any other sender (the dead primary's unreplicated tail) are refused.
TEST_F(DurabilityShipperTest, ResetInstallRefusesOtherSendersAppends) {
  ReplicaState& replica = *replicas_[1];
  rpc::RpcClient old_primary(&net_, kPrimary);
  rpc::RpcClient new_primary(&net_, kReplicaA);

  AppendTxn(1, "a", "v1", 10);
  bool done = false;
  auto driver = [&]() -> sim::Task<void> {
    // Reset install arrives from the *new* primary (replica A's node).
    ShardStore source(0);
    Catalog source_catalog;
    const std::string catalog_image = EncodeCatalog(source_catalog);
    const std::string store_image = EncodeShardStore(source);
    ReplSnapshotRequest snap;
    snap.shard = 0;
    snap.checkpoint_lsn = 40;
    snap.reset = true;
    snap.catalog_image = catalog_image;
    snap.store_image = store_image;
    auto snap_reply = co_await new_primary.Call(kReplicaB, kReplSnapshot,
                                                snap);
    EXPECT_TRUE(snap_reply.ok());
    if (!snap_reply.ok()) co_return;
    EXPECT_TRUE(snap_reply->accepted);
    EXPECT_EQ(replica.applier.applied_lsn(), 40u);

    // The dead primary's tail (LSNs that would collide with the new
    // timeline) must be refused, not buffered or applied.
    LogStream colliding;
    colliding.ResetBase(41);  // LSNs 41..43, like the new primary's appends
    colliding.Append(RedoRecord::Insert(9, 1, "z", "stale"));
    colliding.Append(RedoRecord::PendingCommit(9));
    colliding.Append(RedoRecord::Commit(9, 99));
    auto batch = colliding.Extent(41, 3, 1 << 20);
    EXPECT_TRUE(batch.ok());
    if (!batch.ok()) co_return;
    ReplAppendRequest stale;
    stale.shard = 0;
    stale.start_lsn = 41;  // "collides" with the new primary's next append
    const std::string stale_batch = RawBatch(batch->payload);
    stale.batch = stale_batch;
    auto reply = co_await old_primary.Call(kReplicaB, kReplAppend, stale);
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) co_return;
    EXPECT_FALSE(reply->accepted);
    EXPECT_EQ(replica.applier.applied_lsn(), 40u);

    // The same batch from the installing primary is applied normally.
    auto good = co_await new_primary.Call(kReplicaB, kReplAppend, stale);
    EXPECT_TRUE(good.ok());
    if (!good.ok()) co_return;
    EXPECT_TRUE(good->accepted);
    EXPECT_EQ(good->applied_lsn, 43u);
    done = true;
  };
  sim_.Spawn(driver());
  sim_.RunFor(2 * kSecond);
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace globaldb
