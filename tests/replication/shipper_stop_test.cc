// Regression tests for LogShipper shutdown and per-replica health:
//  - Stop() must fail blocked WaitDurable waiters (not leak them forever).
//  - Stop() must wake loops parked on idle/backoff timers.
//  - NotifyAppend must wake an idle loop promptly (not wait out idle_wait).
//  - Retry backoff is exponential and capped; sustained failures mark the
//    replica unhealthy, the first success marks it recovered.
//  - AnnounceReplica rewinds the cursor without corrupting replica state.
//  - A loop parked on a full window ignores appends, resumes on its own
//    ack, and Stop releases it.
#include <gtest/gtest.h>

#include <memory>

#include "src/replication/log_shipper.h"
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

class ShipperStopTest : public ::testing::Test {
 protected:
  ShipperStopTest()
      : sim_(23),
        net_(&sim_, sim::Topology::Uniform(2, 30 * kMillisecond),
             NetOptions()) {
    net_.RegisterNode(kPrimary, 0);
    net_.RegisterNode(kReplicaLocal, 0);
    net_.RegisterNode(kReplicaRemote, 1);
    for (NodeId replica : {kReplicaLocal, kReplicaRemote}) {
      replicas_.push_back(std::make_unique<ReplicaState>(&sim_, &net_, replica));
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

  std::unique_ptr<LogShipper> MakeShipper(
      ShipperOptions options = {},
      std::vector<NodeId> replicas = {kReplicaLocal, kReplicaRemote}) {
    auto shipper = std::make_unique<LogShipper>(
        &sim_, &net_, kPrimary, /*shard=*/0, &stream_, std::move(replicas),
        options);
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

TEST_F(ShipperStopTest, StopFailsBlockedDurabilityWaiters) {
  // Both replicas are dead, so a sync-all commit can never become durable.
  net_.SetNodeUp(kReplicaLocal, false);
  net_.SetNodeUp(kReplicaRemote, false);
  ShipperOptions options;
  options.mode = ReplicationMode::kSyncAll;
  auto shipper = MakeShipper(options);
  AppendTxn(1, "k", "v", 100);
  shipper->NotifyAppend();

  bool done = false;
  Status status = Status::OK();
  auto waiter = [&]() -> sim::Task<void> {
    status = co_await shipper->WaitDurable(3);
    done = true;
  };
  sim_.Spawn(waiter());
  sim_.RunFor(300 * kMillisecond);
  EXPECT_FALSE(done);  // still blocked: nothing is acked

  shipper->Stop();
  sim_.RunFor(10 * kMillisecond);
  ASSERT_TRUE(done);  // the regression: this used to hang forever
  EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
  EXPECT_EQ(shipper->metrics().Get("ship.durability_waits"), 1);
}

TEST_F(ShipperStopTest, WaitDurableAfterStopFailsImmediately) {
  ShipperOptions options;
  options.mode = ReplicationMode::kSyncAll;
  auto shipper = MakeShipper(options);
  AppendTxn(1, "k", "v", 100);
  shipper->Stop();

  bool done = false;
  Status status = Status::OK();
  auto waiter = [&]() -> sim::Task<void> {
    status = co_await shipper->WaitDurable(3);
    done = true;
  };
  sim_.Spawn(waiter());
  sim_.RunFor(1 * kMillisecond);
  ASSERT_TRUE(done);
  EXPECT_TRUE(status.IsUnavailable());
}

TEST_F(ShipperStopTest, StopWakesLoopsParkedInBackoff) {
  // Drive the remote loop into its (long) retry backoff, then Stop. The
  // loop must observe stopped_ right away: once the node comes back, no
  // further ship attempts may happen.
  net_.SetNodeUp(kReplicaRemote, false);
  auto shipper = MakeShipper();
  AppendTxn(1, "k", "v", 100);
  shipper->NotifyAppend();
  sim_.RunFor(500 * kMillisecond);
  const int64_t failures_at_stop = shipper->metrics().Get("ship.failures");
  EXPECT_GT(failures_at_stop, 0);

  shipper->Stop();
  net_.SetNodeUp(kReplicaRemote, true);
  sim_.RunFor(5 * kSecond);
  EXPECT_EQ(shipper->metrics().Get("ship.failures"), failures_at_stop);
  EXPECT_EQ(replicas_[1]->applier.applied_lsn(), 0u);  // nothing shipped
}

TEST_F(ShipperStopTest, NotifyAppendWakesIdleLoopPromptly) {
  ShipperOptions options;
  options.idle_wait = 500 * kMillisecond;  // long, so waking matters
  auto shipper = MakeShipper(options);
  sim_.RunFor(100 * kMillisecond);  // loops are parked in idle sleep
  AppendTxn(1, "k", "v", 100);
  shipper->NotifyAppend();
  // The local replica applies well before idle_wait would have elapsed.
  sim_.RunFor(50 * kMillisecond);
  shipper->Stop();
  EXPECT_EQ(replicas_[0]->applier.applied_lsn(), 3u);
}

TEST_F(ShipperStopTest, BackoffIsExponentialAndCapped) {
  net_.SetNodeUp(kReplicaRemote, false);
  auto shipper = MakeShipper();
  AppendTxn(1, "k", "v", 100);
  shipper->NotifyAppend();
  sim_.RunFor(10 * kSecond);

  // 50 ms doubling capped at 2 s gives ~10 attempts in 10 s; a fixed 50 ms
  // backoff (the old behaviour) would make ~200.
  const int64_t failures = shipper->metrics().Get("ship.failures");
  EXPECT_GE(failures, 5);
  EXPECT_LE(failures, 25);
  EXPECT_FALSE(shipper->IsReplicaHealthy(kReplicaRemote));
  EXPECT_TRUE(shipper->IsReplicaHealthy(kReplicaLocal));
  EXPECT_EQ(shipper->metrics().Get("ship.replica_down"), 1);

  net_.SetNodeUp(kReplicaRemote, true);
  sim_.RunFor(5 * kSecond);
  shipper->Stop();
  EXPECT_EQ(replicas_[1]->applier.applied_lsn(), 3u);
  EXPECT_TRUE(shipper->IsReplicaHealthy(kReplicaRemote));
  EXPECT_EQ(shipper->metrics().Get("ship.replica_recovered"), 1);
}

TEST_F(ShipperStopTest, AnnounceRewindsCursorIdempotently) {
  auto shipper = MakeShipper();
  AppendTxn(1, "k", "v", 100);
  shipper->NotifyAppend();
  sim_.RunFor(1 * kSecond);
  EXPECT_EQ(shipper->AckedLsn(kReplicaLocal), 3u);

  // A (spurious) restart announcement from LSN 0 rewinds the cursor; the
  // re-shipped batch must be deduplicated by the applier, not double-applied.
  shipper->AnnounceReplica(kReplicaLocal, 0);
  sim_.RunFor(1 * kSecond);
  shipper->Stop();
  EXPECT_EQ(shipper->metrics().Get("ship.hellos"), 1);
  EXPECT_EQ(shipper->AckedLsn(kReplicaLocal), 3u);
  EXPECT_EQ(replicas_[0]->applier.applied_lsn(), 3u);
  EXPECT_EQ(replicas_[0]->applier.metrics().Get("apply.records"), 3);
  EXPECT_EQ(replicas_[0]->applier.metrics().Get("apply.reorder_refused"), 0);
}

TEST_F(ShipperStopTest, FullWindowParksUntilItsOwnAck) {
  // One batch in flight at a time to the remote replica (30 ms RTT), one
  // transaction per batch. The fallback timer is longer than the test.
  ShipperOptions options;
  options.max_inflight_batches = 1;
  options.max_batch_records = 3;
  options.idle_wait = 10 * kSecond;
  auto shipper = MakeShipper(options, {kReplicaRemote});
  AppendTxn(1, "k1", "v", 100);
  shipper->NotifyAppend();
  sim_.RunFor(1 * kMillisecond);
  EXPECT_EQ(shipper->InflightBatches(kReplicaRemote), 1u);
  EXPECT_EQ(shipper->LoopsParkedOnWindow(), 1u);
  EXPECT_EQ(shipper->metrics().Get("ship.window_full"), 1);

  // Appends do not wake it: it neither re-checks its window nor ships.
  for (TxnId txn = 2; txn <= 5; ++txn) {
    AppendTxn(txn, "k" + std::to_string(txn), "v", 100 + txn);
    shipper->NotifyAppend();
    sim_.RunFor(1 * kMillisecond);
  }
  EXPECT_EQ(shipper->LoopsParkedOnWindow(), 1u);
  EXPECT_EQ(shipper->metrics().Get("ship.window_full"), 1);
  EXPECT_EQ(shipper->metrics().Get("ship.batches"), 1);

  // The ack frees the slot: the loop ships the next batch and parks again.
  sim_.RunFor(40 * kMillisecond);
  EXPECT_EQ(shipper->AckedLsn(kReplicaRemote), 3u);
  EXPECT_EQ(shipper->metrics().Get("ship.batches"), 2);
  EXPECT_EQ(shipper->metrics().Get("ship.window_full"), 2);
  EXPECT_EQ(shipper->LoopsParkedOnWindow(), 1u);

  // Stop releases the parked loop: it exits, and the rest is never shipped.
  shipper->Stop();
  sim_.RunFor(1 * kMillisecond);
  EXPECT_EQ(shipper->LoopsParkedOnWindow(), 0u);
  sim_.RunFor(1 * kSecond);
  EXPECT_EQ(shipper->metrics().Get("ship.batches"), 2);
  // The batch in flight at the stop lands, but a stopped shipper drops its
  // reply.
  EXPECT_EQ(shipper->AckedLsn(kReplicaRemote), 3u);
  EXPECT_EQ(replicas_[1]->applier.applied_lsn(), 6u);
  EXPECT_EQ(sim_.pending_events(), 0u);
}

}  // namespace
}  // namespace globaldb
