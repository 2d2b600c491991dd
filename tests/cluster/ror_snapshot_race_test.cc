// Regression: a ROR read that parks on a pending-commit transaction
// (WaitResolved) while a snapshot install rebuilds the replica's store must
// re-fetch the table on resume. The install frees every MvccTable, and the
// resolved-signal broadcast fires right after it — a reader that cached the
// table pointer across the wait dereferenced freed memory (seen as a
// BTree::Find segfault in the durability soak after a promotion forced the
// survivors onto reset snapshots).

#include <gtest/gtest.h>

#include "src/cluster/messages.h"
#include "src/cluster/replica_node.h"
#include "src/replication/messages.h"
#include "src/rpc/rpc_client.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/storage/snapshot.h"

namespace globaldb {
namespace {

constexpr NodeId kClient = 1;
constexpr NodeId kReplica = 2;

sim::NetworkOptions NetOptions() {
  sim::NetworkOptions o;
  o.nagle_enabled = false;
  o.jitter_fraction = 0;
  o.rpc_timeout = 500 * kMillisecond;
  return o;
}

/// A kReplSnapshot request for `store`, with the images its views point
/// into (so it is neither copied nor moved).
struct SnapshotOf {
  SnapshotOf(const ShardStore& store, Lsn checkpoint_lsn,
             Timestamp max_commit_ts, bool reset)
      : catalog_image(EncodeCatalog(Catalog())),
        store_image(EncodeShardStore(store)) {
    request.shard = 0;
    request.checkpoint_lsn = checkpoint_lsn;
    request.max_commit_ts = max_commit_ts;
    request.reset = reset;
    request.catalog_image = catalog_image;
    request.store_image = store_image;
  }
  SnapshotOf(const SnapshotOf&) = delete;
  SnapshotOf& operator=(const SnapshotOf&) = delete;

  const std::string catalog_image;
  const std::string store_image;
  ReplSnapshotRequest request;
};

TEST(RorSnapshotRaceTest, ParkedReadSurvivesSnapshotInstall) {
  sim::Simulator sim(23);
  sim::Network net(&sim, sim::Topology::Uniform(2, 10 * kMillisecond),
                   NetOptions());
  net.RegisterNode(kClient, 0);
  net.RegisterNode(kReplica, 0);
  ReplicaNode replica(&sim, &net, kReplica, /*shard=*/0);
  rpc::RpcClient client(&net, kClient);

  // Image #1: key "k" written by txn 5, still provisional (captured
  // mid-2PC). A reader at any snapshot must wait for its resolution.
  bool installed_first = false;
  auto install_pending = [&]() -> sim::Task<void> {
    ShardStore source(0);
    MvccTable* t = source.GetOrCreateTable(1);
    t->ApplyInsert("k", "v-pending", 5);
    const SnapshotOf snap(source, 3, 0, /*reset=*/false);
    auto reply =
        co_await client.Call(kReplica, kReplSnapshot, snap.request);
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) co_return;
    EXPECT_TRUE(reply->accepted);
    installed_first = true;
  };
  sim.Spawn(install_pending());
  sim.RunFor(100 * kMillisecond);
  ASSERT_TRUE(installed_first);

  // The read parks on WaitResolved(5).
  bool read_done = false;
  auto reader = [&]() -> sim::Task<void> {
    ReadBatchRequest request;
    request.snapshot = 100;
    ReadBatchRequest::Entry entry;
    entry.table = 1;
    entry.key = "k";
    request.entries.push_back(entry);
    auto reply = co_await client.Call(kReplica, kRorReadBatch, request);
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) co_return;
    // Resumed by the install's resolved-signal broadcast: the answer must
    // come from the freshly installed image, through a re-fetched table.
    EXPECT_EQ(reply->results.size(), 1u);
    if (reply->results.size() != 1) co_return;
    EXPECT_EQ(reply->results[0].code, StatusCode::kOk);
    EXPECT_TRUE(reply->results[0].found);
    EXPECT_EQ(reply->results[0].value, "v-final");
    read_done = true;
  };
  sim.Spawn(reader());
  sim.RunFor(100 * kMillisecond);
  ASSERT_FALSE(read_done);
  ASSERT_EQ(replica.metrics().Get("ror.pending_waits"), 1);

  // Image #2 (reset, as after a promotion): the whole store is rebuilt —
  // every MvccTable from image #1 is freed — with txn 5 committed at ts 10.
  // Installing it resolves the parked reader.
  auto install_final = [&]() -> sim::Task<void> {
    ShardStore source(0);
    MvccTable* t = source.GetOrCreateTable(1);
    t->ApplyInsert("k", "v-final", 5);
    t->CommitTxn(5, 10);
    const SnapshotOf snap(source, 9, 10, /*reset=*/true);
    auto reply =
        co_await client.Call(kReplica, kReplSnapshot, snap.request);
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) co_return;
    EXPECT_TRUE(reply->accepted);
  };
  sim.Spawn(install_final());
  sim.RunFor(500 * kMillisecond);
  EXPECT_TRUE(read_done);
}

// Same property for the batched scan handler (DESIGN.md §14): a
// kRorScanBatch chunk that parks on a pending-commit transaction holds no
// cursor into the store — after the install frees every MvccTable, the
// whole chunk is rebuilt from the request alone. A server-side iterator
// kept across the wait would dangle (caught under ASan).
TEST(RorSnapshotRaceTest, ParkedScanBatchChunkSurvivesSnapshotInstall) {
  sim::Simulator sim(29);
  sim::Network net(&sim, sim::Topology::Uniform(2, 10 * kMillisecond),
                   NetOptions());
  net.RegisterNode(kClient, 0);
  net.RegisterNode(kReplica, 0);
  ReplicaNode replica(&sim, &net, kReplica, /*shard=*/0);
  rpc::RpcClient client(&net, kClient);

  // Image #1: "a" committed, "k" provisional by txn 5 — the scan must park.
  bool installed_first = false;
  auto install_pending = [&]() -> sim::Task<void> {
    ShardStore source(0);
    MvccTable* t = source.GetOrCreateTable(1);
    t->ApplyInsert("a", "v-old", 4);
    t->CommitTxn(4, 2);
    t->ApplyInsert("k", "v-pending", 5);
    const SnapshotOf snap(source, 3, 2, /*reset=*/false);
    auto reply =
        co_await client.Call(kReplica, kReplSnapshot, snap.request);
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) co_return;
    EXPECT_TRUE(reply->accepted);
    installed_first = true;
  };
  sim.Spawn(install_pending());
  sim.RunFor(100 * kMillisecond);
  ASSERT_TRUE(installed_first);

  bool scan_done = false;
  auto scanner = [&]() -> sim::Task<void> {
    ScanBatchRequest request;
    request.snapshot = 100;
    ScanBatchRequest::Range range;
    range.table = 1;
    request.ranges.push_back(range);  // unbounded: whole table
    auto reply = co_await client.Call(kReplica, kRorScanBatch, request);
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) co_return;
    // Resumed by the install's resolved-signal broadcast: the chunk was
    // re-executed against the freshly installed image end to end.
    EXPECT_EQ(reply->results.size(), 1u);
    if (reply->results.size() != 1u) co_return;
    EXPECT_EQ(reply->results[0].rows.size(), 2u);
    if (reply->results[0].rows.size() != 2u) co_return;
    EXPECT_EQ(reply->results[0].rows[0].key, "k");
    EXPECT_EQ(reply->results[0].rows[0].value, "v-final");
    EXPECT_EQ(reply->results[0].rows[1].key, "z");
    EXPECT_EQ(reply->results[0].rows[1].value, "v-new");
    scan_done = true;
  };
  sim.Spawn(scanner());
  sim.RunFor(100 * kMillisecond);
  ASSERT_FALSE(scan_done);
  ASSERT_EQ(replica.metrics().Get("ror.pending_waits"), 1);

  // Image #2 (reset): the store from image #1 is freed wholesale. "a" is
  // gone, txn 5 committed at ts 10, and a new row "z" exists — the
  // re-executed chunk must reflect exactly this image.
  auto install_final = [&]() -> sim::Task<void> {
    ShardStore source(0);
    MvccTable* t = source.GetOrCreateTable(1);
    t->ApplyInsert("k", "v-final", 5);
    t->CommitTxn(5, 10);
    t->ApplyInsert("z", "v-new", 6);
    t->CommitTxn(6, 11);
    const SnapshotOf snap(source, 9, 11, /*reset=*/true);
    auto reply =
        co_await client.Call(kReplica, kReplSnapshot, snap.request);
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) co_return;
    EXPECT_TRUE(reply->accepted);
  };
  sim.Spawn(install_final());
  sim.RunFor(500 * kMillisecond);
  EXPECT_TRUE(scan_done);
}

}  // namespace
}  // namespace globaldb
