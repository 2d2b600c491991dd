// The sliding-window pipelined shipper: catch-up throughput scales with the
// window instead of being capped at one batch per RTT, the in-flight window
// is bounded, and a crash mid-catch-up rewinds to the cumulative ack and
// converges exactly.

#include <gtest/gtest.h>

#include <string>

#include "src/replication/log_shipper.h"
#include "src/replication/replica_applier.h"
#include "src/sim/cpu.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/storage/mvcc_table.h"

namespace globaldb {
namespace {

constexpr NodeId kPrimary = 1;

sim::NetworkOptions WanOptions() {
  sim::NetworkOptions o;
  o.nagle_enabled = false;
  o.jitter_fraction = 0;
  o.bbr_enabled = true;
  return o;
}

/// One primary + one remote replica over a 50 ms RTT link with a shipping
/// backlog; returns how long the replica took to ack the full tail.
SimDuration MeasureCatchup(size_t window) {
  sim::Simulator sim(7);
  sim::Network net(&sim, sim::Topology::Uniform(2, 50 * kMillisecond),
                   WanOptions());
  const NodeId replica = 2;
  net.RegisterNode(kPrimary, 0);
  net.RegisterNode(replica, 1);

  LogStream stream;
  const std::string value(200, 'x');
  for (int t = 0; t < 24000; ++t) {
    stream.Append(
        RedoRecord::Insert(t + 1, 1, "key_" + std::to_string(t), value));
    stream.Append(RedoRecord::Commit(t + 1, t + 1));
  }
  const Lsn tail = stream.next_lsn() - 1;

  ShardStore store(0);
  Catalog catalog;
  sim::CpuScheduler cpu(&sim, 8);
  ReplicaApplier applier(&sim, &net, replica, /*shard=*/0, &store, &catalog,
                         &cpu);

  ShipperOptions options;
  options.compression = CompressionType::kNone;
  options.max_inflight_batches = window;
  LogShipper shipper(&sim, &net, kPrimary, /*shard=*/0, &stream, {replica},
                     options);
  const SimTime start = sim.now();
  shipper.Start();
  shipper.NotifyAppend();
  while (shipper.AckedLsn(replica) < tail && sim.now() < 120 * kSecond) {
    sim.RunFor(1 * kMillisecond);
  }
  EXPECT_EQ(shipper.AckedLsn(replica), tail);
  EXPECT_EQ(applier.applied_lsn(), tail);
  EXPECT_EQ(applier.metrics().Get("apply.records"),
            static_cast<int64_t>(tail));
  const SimDuration elapsed = sim.now() - start;
  shipper.Stop();
  sim.RunFor(10 * kMillisecond);
  return elapsed;
}

TEST(PipelineTest, WindowedCatchupBeatsStopAndWaitByFourX) {
  const SimDuration stop_and_wait = MeasureCatchup(1);
  const SimDuration window8 = MeasureCatchup(8);
  EXPECT_GE(stop_and_wait, 4 * window8)
      << "stop-and-wait " << stop_and_wait / kMillisecond << " ms vs window=8 "
      << window8 / kMillisecond << " ms";
}

TEST(PipelineTest, InflightNeverExceedsWindow) {
  sim::Simulator sim(9);
  sim::Network net(&sim, sim::Topology::Uniform(2, 10 * kMillisecond),
                   WanOptions());
  const NodeId replica = 2;
  net.RegisterNode(kPrimary, 0);
  net.RegisterNode(replica, 1);

  LogStream stream;
  const std::string value(100, 'y');
  for (int t = 0; t < 4000; ++t) {
    stream.Append(
        RedoRecord::Insert(t + 1, 1, "key_" + std::to_string(t), value));
    stream.Append(RedoRecord::Commit(t + 1, t + 1));
  }
  const Lsn tail = stream.next_lsn() - 1;

  ShardStore store(0);
  Catalog catalog;
  sim::CpuScheduler cpu(&sim, 4);
  ReplicaApplier applier(&sim, &net, replica, /*shard=*/0, &store, &catalog,
                         &cpu);
  applier.set_extra_apply_delay(2 * kMillisecond);  // slow consumer

  ShipperOptions options;
  options.max_inflight_batches = 2;
  options.max_batch_bytes = 8 * 1024;  // many small batches
  LogShipper shipper(&sim, &net, kPrimary, /*shard=*/0, &stream, {replica},
                     options);
  shipper.Start();
  shipper.NotifyAppend();
  size_t max_inflight = 0;
  while (shipper.AckedLsn(replica) < tail && sim.now() < 60 * kSecond) {
    sim.RunFor(500 * kMicrosecond);
    max_inflight = std::max(max_inflight, shipper.InflightBatches(replica));
    EXPECT_LE(shipper.metrics().Get("ship.inflight"), 2);
  }
  EXPECT_EQ(shipper.AckedLsn(replica), tail);
  EXPECT_LE(max_inflight, 2u);
  EXPECT_EQ(max_inflight, 2u);  // the window actually filled
  // The loop parked on a full window instead of over-sending.
  EXPECT_GT(shipper.metrics().Get("ship.window_full"), 0);
  shipper.Stop();
  sim.RunFor(10 * kMillisecond);
}

TEST(PipelineTest, CrashMidCatchupRewindsAndConvergesExactly) {
  sim::Simulator sim(33);
  sim::Network net(&sim, sim::Topology::Uniform(2, 10 * kMillisecond),
                   WanOptions());
  const NodeId replica = 2;
  net.RegisterNode(kPrimary, 0);
  net.RegisterNode(replica, 1);

  LogStream stream;
  const std::string value(120, 'w');
  const int kTxns = 6000;
  for (int t = 0; t < kTxns; ++t) {
    stream.Append(
        RedoRecord::Insert(t + 1, 1, "key_" + std::to_string(t), value));
    stream.Append(RedoRecord::Commit(t + 1, t + 1));
  }
  const Lsn tail = stream.next_lsn() - 1;

  ShardStore store(0);
  Catalog catalog;
  sim::CpuScheduler cpu(&sim, 4);
  ReplicaApplier applier(&sim, &net, replica, /*shard=*/0, &store, &catalog,
                         &cpu);

  ShipperOptions options;
  options.max_batch_bytes = 16 * 1024;
  LogShipper shipper(&sim, &net, kPrimary, /*shard=*/0, &stream, {replica},
                     options);
  shipper.Start();
  shipper.NotifyAppend();

  // Let part of the window land, then crash the replica: all in-flight
  // sends of the window fail (RST), which must charge one failure burst and
  // rewind once — not one failure per in-flight batch.
  sim.RunFor(30 * kMillisecond);
  EXPECT_GT(applier.applied_lsn(), 0u);
  EXPECT_LT(applier.applied_lsn(), tail);
  net.SetNodeUp(replica, false);
  sim.RunFor(600 * kMillisecond);
  EXPECT_FALSE(shipper.IsReplicaHealthy(replica));
  EXPECT_EQ(shipper.metrics().Get("ship.replica_down"), 1);

  net.SetNodeUp(replica, true);
  while (shipper.AckedLsn(replica) < tail && sim.now() < 20 * kSecond) {
    sim.RunFor(5 * kMillisecond);
  }
  EXPECT_EQ(shipper.AckedLsn(replica), tail);
  EXPECT_EQ(applier.applied_lsn(), tail);
  EXPECT_TRUE(shipper.IsReplicaHealthy(replica));
  EXPECT_EQ(shipper.metrics().Get("ship.replica_recovered"), 1);
  // Zero lost and zero duplicated rows: every record applied exactly once.
  EXPECT_EQ(applier.metrics().Get("apply.records"),
            static_cast<int64_t>(tail));
  MvccTable* table = store.GetTable(1);
  ASSERT_NE(table, nullptr);
  const auto rows = table->Scan("", "", kTimestampMax - 1, kInvalidTxnId,
                                2 * kTxns, nullptr);
  EXPECT_EQ(rows.size(), static_cast<size_t>(kTxns));
  shipper.Stop();
  sim.RunFor(10 * kMillisecond);
}

}  // namespace
}  // namespace globaldb
