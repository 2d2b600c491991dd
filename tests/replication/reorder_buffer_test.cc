// The replica applier's bounded out-of-order reorder buffer: batches ahead
// of applied_lsn+1 (later window slots of the pipelined shipper racing an
// earlier one) are parked and drained in LSN order; the byte cap evicts the
// farthest-ahead batches (whose resend the shipper reaches last) and refuses
// the newcomer when it *is* the farthest, falling back to the shipper's
// cumulative-ack rewind. Acks stay cumulative throughout: a buffered batch
// never advances the ack.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/replication/messages.h"
#include "src/replication/replica_applier.h"
#include "src/rpc/rpc_client.h"
#include "src/sim/cpu.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace globaldb {
namespace {

constexpr NodeId kPrimary = 1;
constexpr NodeId kReplica = 2;

class ReorderBufferTest : public ::testing::Test {
 protected:
  ReorderBufferTest()
      : sim_(13),
        net_(&sim_, sim::Topology::Uniform(2, 10 * kMillisecond), NetOptions()),
        client_(&net_, kPrimary) {
    net_.RegisterNode(kPrimary, 0);
    net_.RegisterNode(kReplica, 0);
  }

  static sim::NetworkOptions NetOptions() {
    sim::NetworkOptions o;
    o.nagle_enabled = false;
    o.jitter_fraction = 0;
    return o;
  }

  void MakeApplier(ApplierOptions options = {}) {
    cpu_ = std::make_unique<sim::CpuScheduler>(&sim_, 4);
    applier_ = std::make_unique<ReplicaApplier>(&sim_, &net_, kReplica,
                                                /*shard=*/0, &store_, &catalog_,
                                                cpu_.get(), options);
  }

  /// Three records per txn (insert, pending-commit, commit), fixed-length
  /// values so every txn's batch encodes to the same size.
  void AppendTxn(TxnId txn, const std::string& key, Timestamp commit_ts) {
    stream_.Append(RedoRecord::Insert(txn, 1, key, std::string(40, 'v')));
    stream_.Append(RedoRecord::PendingCommit(txn));
    stream_.Append(RedoRecord::Commit(txn, commit_ts));
  }

  std::string EncodeRange(Lsn from, Lsn to) {
    auto extent = stream_.Extent(from, to - from + 1, 1 << 20);
    EXPECT_TRUE(extent.ok());
    std::string batch;
    LogStream::EncodeBatch(extent->payload, CompressionType::kNone, &batch);
    return batch;
  }

  /// Ships the stream range [from, to] as one batch and returns the reply.
  StatusOr<ReplAppendReply> Deliver(Lsn from, Lsn to) {
    ReplAppendRequest request;
    request.shard = 0;
    request.start_lsn = from;
    const std::string request_batch = EncodeRange(from, to);
    request.batch = request_batch;
    StatusOr<ReplAppendReply> result = Status::Unavailable("no reply");
    auto deliver = [](rpc::RpcClient* client, ReplAppendRequest req,
                      StatusOr<ReplAppendReply>* out) -> sim::Task<void> {
      *out = co_await client->Call(kReplica, kReplAppend, req);
    };
    sim_.Spawn(deliver(&client_, request, &result));
    sim_.Run();
    EXPECT_TRUE(result.ok());
    return result;
  }

  sim::Simulator sim_;
  sim::Network net_;
  rpc::RpcClient client_;
  LogStream stream_;
  ShardStore store_{0};
  Catalog catalog_;
  std::unique_ptr<sim::CpuScheduler> cpu_;
  std::unique_ptr<ReplicaApplier> applier_;
};

TEST_F(ReorderBufferTest, OutOfOrderArrivalBuffersAndDrainsInLsnOrder) {
  MakeApplier();
  AppendTxn(1, "a", 100);  // LSNs 1..3
  AppendTxn(2, "b", 200);  // LSNs 4..6
  AppendTxn(3, "c", 300);  // LSNs 7..9

  auto r1 = Deliver(4, 6);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->accepted);
  EXPECT_EQ(r1->applied_lsn, 0u);  // buffered, not applied: ack cumulative
  EXPECT_EQ(applier_->reorder_batches(), 1u);

  auto r2 = Deliver(7, 9);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->accepted);
  EXPECT_EQ(r2->applied_lsn, 0u);
  EXPECT_EQ(applier_->reorder_batches(), 2u);

  // The gap filler arrives: everything drains in LSN order.
  auto r3 = Deliver(1, 3);
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(r3->accepted);
  EXPECT_EQ(r3->applied_lsn, 9u);
  EXPECT_EQ(applier_->reorder_batches(), 0u);
  EXPECT_EQ(applier_->reorder_bytes(), 0u);
  EXPECT_EQ(applier_->applied_lsn(), 9u);
  EXPECT_EQ(applier_->max_commit_ts(), 300u);
  EXPECT_EQ(applier_->metrics().Get("apply.reordered"), 2);
  EXPECT_EQ(applier_->metrics().Get("apply.reorder_drained"), 2);
  EXPECT_EQ(applier_->metrics().Get("apply.records"), 9);
  for (const char* key : {"a", "b", "c"}) {
    EXPECT_TRUE(store_.GetTable(1)->Read(key, 400).found) << key;
  }
}

TEST_F(ReorderBufferTest, CapOverflowEvictsFarthestAndRefusesTail) {
  AppendTxn(1, "a", 100);  // 1..3
  AppendTxn(2, "b", 200);  // 4..6
  AppendTxn(3, "c", 300);  // 7..9
  AppendTxn(4, "d", 400);  // 10..12
  // Cap fits exactly one buffered batch (all four encode to the same size).
  ApplierOptions options;
  options.reorder_buffer_bytes = EncodeRange(4, 6).size();
  MakeApplier(options);

  auto r1 = Deliver(7, 9);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->accepted);
  EXPECT_EQ(applier_->reorder_batches(), 1u);

  // Over the cap and farther ahead than anything buffered: refused, so the
  // shipper falls back to its cumulative-ack rewind for this range.
  auto r2 = Deliver(10, 12);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->accepted);
  EXPECT_EQ(r2->applied_lsn, 0u);
  EXPECT_EQ(applier_->metrics().Get("apply.reorder_refused"), 1);
  EXPECT_EQ(applier_->reorder_batches(), 1u);

  // Nearer the applied tail than the buffered batch: the farther one is
  // evicted in its favor.
  auto r3 = Deliver(4, 6);
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(r3->accepted);
  EXPECT_EQ(applier_->metrics().Get("apply.reorder_evictions"), 1);
  EXPECT_EQ(applier_->reorder_batches(), 1u);

  // The cumulative-ack fallback: resend everything from the ack forward, in
  // order, exactly as the shipper's rewind would.
  EXPECT_EQ(Deliver(1, 3)->applied_lsn, 6u);  // drains [4..6]
  EXPECT_EQ(Deliver(7, 9)->applied_lsn, 9u);
  EXPECT_EQ(Deliver(10, 12)->applied_lsn, 12u);
  EXPECT_EQ(applier_->applied_lsn(), 12u);
  EXPECT_EQ(applier_->metrics().Get("apply.records"), 12);
  for (const char* key : {"a", "b", "c", "d"}) {
    EXPECT_TRUE(store_.GetTable(1)->Read(key, 500).found) << key;
  }
}

TEST_F(ReorderBufferTest, DuplicateBufferedBatchKeptOnce) {
  MakeApplier();
  AppendTxn(1, "a", 100);  // 1..3
  AppendTxn(2, "b", 200);  // 4..6

  EXPECT_TRUE(Deliver(4, 6)->accepted);
  const size_t bytes_after_first = applier_->reorder_bytes();
  // A window retry resends the same range before the gap fills.
  EXPECT_TRUE(Deliver(4, 6)->accepted);
  EXPECT_EQ(applier_->metrics().Get("apply.reorder_duplicates"), 1);
  EXPECT_EQ(applier_->reorder_batches(), 1u);
  EXPECT_EQ(applier_->reorder_bytes(), bytes_after_first);

  EXPECT_EQ(Deliver(1, 3)->applied_lsn, 6u);
  // Each record applied exactly once despite the duplicate.
  EXPECT_EQ(applier_->metrics().Get("apply.records"), 6);
  EXPECT_EQ(store_.GetTable(1)->Read("b", 300).value, std::string(40, 'v'));
}

TEST_F(ReorderBufferTest, DuplicateBatchAfterWindowRetryIsIdempotent) {
  MakeApplier();
  AppendTxn(1, "a", 100);  // 1..3
  AppendTxn(2, "b", 200);  // 4..6

  EXPECT_EQ(Deliver(1, 3)->applied_lsn, 3u);
  EXPECT_EQ(Deliver(4, 6)->applied_lsn, 6u);
  // Full-batch retry after the window rewound.
  auto dup = Deliver(4, 6);
  EXPECT_TRUE(dup->accepted);
  EXPECT_EQ(dup->applied_lsn, 6u);
  // Partially-overlapping retry (rewind to mid-batch).
  EXPECT_EQ(Deliver(2, 6)->applied_lsn, 6u);
  EXPECT_EQ(applier_->metrics().Get("apply.records"), 6);
  EXPECT_EQ(applier_->metrics().Get("apply.reorder_refused"), 0);
}

TEST_F(ReorderBufferTest, RestartClearsBufferAndResendRecovers) {
  MakeApplier();
  AppendTxn(1, "a", 100);  // 1..3
  AppendTxn(2, "b", 200);  // 4..6

  EXPECT_TRUE(Deliver(4, 6)->accepted);
  EXPECT_EQ(applier_->reorder_batches(), 1u);
  // The buffer is volatile: a restart drops it (the batches were never
  // acked, so the shipper's rewind to the durable LSN resends them).
  applier_->OnRestart();
  EXPECT_EQ(applier_->reorder_batches(), 0u);
  EXPECT_EQ(applier_->reorder_bytes(), 0u);

  EXPECT_EQ(Deliver(1, 3)->applied_lsn, 3u);  // nothing stale to drain
  EXPECT_EQ(Deliver(4, 6)->applied_lsn, 6u);
  EXPECT_EQ(applier_->metrics().Get("apply.records"), 6);
  EXPECT_TRUE(store_.GetTable(1)->Read("b", 300).found);
}

}  // namespace
}  // namespace globaldb
