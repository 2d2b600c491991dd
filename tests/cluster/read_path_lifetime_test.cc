// Lifetimes on the zero-copy read path (DESIGN.md §5). Server handlers
// gather views into table versions and must turn them into reply bytes
// before any suspension point: a write, commit or vacuum that lands while
// the handler waits for CPU may move or free the version a view points
// into. Clients keep rows as views into the received envelope, so the
// envelope's bytes must not move when the reply does — even an envelope
// short enough for std::string's inline storage.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/data_node.h"
#include "src/cluster/messages.h"
#include "src/rpc/rpc_client.h"
#include "src/rpc/wire.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace globaldb {
namespace {

constexpr NodeId kClient = 1;
constexpr NodeId kPrimary = 2;
constexpr TableId kTable = 1;

// One value short enough for inline string storage, one on the heap.
const std::string kShortOld = "old-a";
const std::string kLongOld(48, 'o');

class ReadPathLifetimeTest : public ::testing::Test {
 public:  // accessed from coroutine lambdas in tests
  ReadPathLifetimeTest()
      : sim_(41),
        net_(&sim_, sim::Topology::Uniform(2, 10 * kMillisecond), NetOptions()),
        client_((RegisterNodes(), &net_), kClient) {
    DataNodeOptions options;
    options.cores = 1;
    options.read_cost = 4 * kMillisecond;
    options.scan_row_cost = 5 * kMillisecond;
    options.enable_checkpoints = false;
    primary_ = std::make_unique<DataNode>(&sim_, &net_, kPrimary, 0, options);
    MvccTable* table = primary_->store().GetOrCreateTable(kTable);
    table->ApplyInsert("a", kShortOld, 5);
    table->ApplyInsert("b", kLongOld, 5);
    table->CommitTxn(5, 10);
  }

  static sim::NetworkOptions NetOptions() {
    sim::NetworkOptions o;
    o.nagle_enabled = false;
    o.jitter_fraction = 0;
    o.rpc_timeout = 500 * kMillisecond;
    return o;
  }

  void RegisterNodes() {
    net_.RegisterNode(kClient, 0);
    net_.RegisterNode(kPrimary, 1);
  }

  /// Overwrites both rows, commits, and vacuums the old versions away, so
  /// any view still pointing at them reads moved or freed memory.
  void RewriteRows() {
    MvccTable* table = primary_->store().GetTable(kTable);
    ASSERT_TRUE(table->Update("a", "new-a", 20, 100).ok());
    ASSERT_TRUE(table->Update("b", std::string(48, 'n'), 20, 100).ok());
    table->CommitTxn(20, 50);
    ASSERT_EQ(table->Vacuum(60).reclaimed, 2u);
  }

  sim::Simulator sim_;
  sim::Network net_;
  rpc::RpcClient client_;
  std::unique_ptr<DataNode> primary_;
};

TEST_F(ReadPathLifetimeTest, PrimaryScanReturnsPreUpdateBytesAcrossCpuWait) {
  bool done = false;
  auto scanner = [&]() -> sim::Task<void> {
    ScanBatchRequest request;
    request.snapshot = 30;
    ScanBatchRequest::Range range;
    range.table = kTable;
    request.ranges.push_back(range);
    auto reply = co_await client_.Call(kPrimary, kDnScanBatch, request);
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) co_return;
    EXPECT_EQ(reply->results.size(), 1u);
    if (reply->results.size() != 1u) co_return;
    const auto& rows = reply->results[0].rows;
    EXPECT_EQ(rows.size(), 2u);
    if (rows.size() != 2u) co_return;
    EXPECT_EQ(rows[0].key, "a");
    EXPECT_EQ(rows[0].value, kShortOld);
    EXPECT_EQ(rows[1].key, "b");
    EXPECT_EQ(rows[1].value, kLongOld);
    done = true;
  };
  sim_.Spawn(scanner());
  // The request lands after 5 ms (half the 10 ms RTT); the pass then waits
  // for 4 + 2 * 5 ms of CPU before the handler reports its counters.
  sim_.RunFor(15 * kMillisecond);
  ASSERT_EQ(primary_->metrics().Get("dn.scan_batches"), 1);
  ASSERT_EQ(primary_->metrics().Get("dn.scan_ranges"), 0);
  RewriteRows();
  sim_.RunFor(100 * kMillisecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(primary_->metrics().Get("dn.scan_ranges"), 1);
}

TEST_F(ReadPathLifetimeTest, PrimaryReadBatchKeepsEarlierEntriesAcrossCpuWait) {
  bool done = false;
  auto reader = [&]() -> sim::Task<void> {
    ReadBatchRequest request;
    request.snapshot = 30;
    for (const char* key : {"a", "b", "a"}) {
      ReadBatchRequest::Entry entry;
      entry.table = kTable;
      entry.key = key;
      request.entries.push_back(entry);
    }
    auto reply = co_await client_.Call(kPrimary, kDnReadBatch, request);
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) co_return;
    EXPECT_EQ(reply->results.size(), 3u);
    if (reply->results.size() != 3u) co_return;
    // Entries 1 and 2 were read before the rewrite; entry 3 after it, at
    // the same snapshot, after the old version was vacuumed.
    EXPECT_EQ(reply->results[0].value, kShortOld);
    EXPECT_EQ(reply->results[1].value, kLongOld);
    EXPECT_FALSE(reply->results[2].found);
    done = true;
  };
  sim_.Spawn(reader());
  // The request lands after 5 ms (half the 10 ms RTT); entries are read at
  // 9 ms and 13 ms; the third entry's CPU wait runs until 17 ms.
  sim_.RunFor(15 * kMillisecond);
  ASSERT_EQ(primary_->metrics().Get("dn.batched_reads"), 2);
  RewriteRows();
  sim_.RunFor(100 * kMillisecond);
  EXPECT_TRUE(done);
}

TEST_F(ReadPathLifetimeTest,
       ShortEnvelopeViewsSurviveMovesThroughStatusOrAndScanGroup) {
  ScanBatchReply source;
  source.results.resize(1);
  source.results[0].rows = {{"k", "v"}};
  const std::string envelope = rpc::EncodeOk(source).envelope;
  ASSERT_LT(envelope.size(), 16u);

  // As CoordinatorNode::CallScanGroup does: each chunk arrives in a
  // StatusOr, moves into the group's growing reply vector, and its rows are
  // kept as views beside it. The StatusOr is freed after every move, and
  // the vector reallocates as it grows.
  std::vector<ScanBatchReply> replies;
  std::vector<KeyValueView> rows;
  for (int i = 0; i < 9; ++i) {
    auto holder = std::make_unique<StatusOr<ScanBatchReply>>(
        rpc::DecodeEnvelope<ScanBatchReply>(std::string(envelope)));
    ASSERT_TRUE(holder->ok());
    StatusOr<ScanBatchReply> moved = std::move(*holder);
    holder.reset();
    const ScanBatchReply& chunk = replies.emplace_back(std::move(*moved));
    rows.insert(rows.end(), chunk.results[0].rows.begin(),
                chunk.results[0].rows.end());
  }
  ASSERT_EQ(rows.size(), 9u);
  for (const KeyValueView& row : rows) {
    EXPECT_EQ(row.key, "k");
    EXPECT_EQ(row.value, "v");
  }

  std::string read_envelope = rpc::BeginOkEnvelope();
  ReadBatchReply::PutCount(&read_envelope, 1);
  ReadBatchReply::PutEntry(&read_envelope, {StatusCode::kOk, "", true, "v"});
  ASSERT_LT(read_envelope.size(), 16u);
  std::vector<StatusOr<ReadBatchReply>> read_replies;
  for (int i = 0; i < 9; ++i) {
    auto holder = std::make_unique<StatusOr<ReadBatchReply>>(
        rpc::DecodeEnvelope<ReadBatchReply>(std::string(read_envelope)));
    read_replies.push_back(std::move(*holder));
  }
  for (const auto& reply : read_replies) {
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->results[0].value, "v");
  }
}

}  // namespace
}  // namespace globaldb
