// Batched streaming scans on the CN (DESIGN.md §14): ScanBatch groups its
// ranges by shard, pushes filter/limit/reverse and co-located lookup joins
// down to the scan servers, streams byte-capped chunks with client-driven
// continuation, and k-way-merges each spec's per-shard cursors into one
// globally ordered result. These tests pin down predicate and limit
// pushdown (with server-side filtered-row accounting), reverse last-N
// scans, join pushdown, chunk truncation + continuation, the cross-shard
// ordered merge, joins of rows the merge's limit drops, and whole-group
// failover when a replica dies mid-stream
// (scan_equivalence_test.cc checks results against direct table scans
// across seeds).

#include "src/cluster/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
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

/// Co-located detail rows: distributed by the same leading int64 as
/// accounts, so a join keyed on the account id stays on the account's
/// shard.
TableSchema LinesSchema() {
  TableSchema s;
  s.name = "lines";
  s.columns = {{"id", ColumnType::kInt64},
               {"seq", ColumnType::kInt64},
               {"note", ColumnType::kString}};
  s.key_columns = {0, 1};
  s.distribution_column = 0;
  return s;
}

std::pair<RowKey, RowKey> WholeTable() { return {"", ""}; }

class ScanBatchTest : public ::testing::Test {
 public:  // accessed from coroutine lambdas in tests
  ScanBatchTest() : sim_(83) {}

  void Build(ClusterOptions options) {
    cluster_ = std::make_unique<Cluster>(&sim_, std::move(options));
    cluster_->Start();
  }

  static ClusterOptions ThreeCityOptions() {
    ClusterOptions o;
    o.topology = sim::Topology::ThreeCity();
    o.network.nagle_enabled = false;
    o.network.rpc_timeout = 200 * kMillisecond;
    o.num_shards = 6;
    o.replicas_per_shard = 2;
    o.initial_mode = TimestampMode::kGclock;
    return o;
  }

  template <typename T>
  T RunTask(sim::Task<T> task) {
    std::optional<T> result;
    auto wrapper = [](sim::Task<T> t,
                      std::optional<T>* out) -> sim::Task<void> {
      *out = co_await std::move(t);
    };
    sim_.Spawn(wrapper(std::move(task), &result));
    while (!result.has_value()) {
      sim_.RunFor(1 * kMillisecond);
    }
    return std::move(*result);
  }

  int64_t DnTotal(const std::string& name) {
    int64_t total = 0;
    for (size_t s = 0; s < cluster_->num_shards(); ++s) {
      total += cluster_->data_node(s).metrics().Get(name);
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

  /// Inserts and commits one account per id (balance = id % 3) plus two
  /// lines rows per id.
  sim::Task<Status> WriteIds(CoordinatorNode* cn, std::vector<int64_t> ids,
                             bool with_lines = false) {
    auto txn = co_await cn->Begin();
    if (!txn.ok()) co_return txn.status();
    for (int64_t id : ids) {
      Row row = {id, std::string("owner"), id % 3};
      Status s = co_await cn->Insert(&*txn, "accounts", row);
      if (!s.ok()) {
        (void)co_await cn->Abort(&*txn);
        co_return s;
      }
      if (with_lines) {
        for (int64_t seq = 1; seq <= 2; ++seq) {
          Row line = {id, seq, "note_" + std::to_string(id)};
          s = co_await cn->Insert(&*txn, "lines", line);
          if (!s.ok()) {
            (void)co_await cn->Abort(&*txn);
            co_return s;
          }
        }
      }
    }
    co_return co_await cn->Commit(&*txn);
  }

  /// Runs one batch in a fresh read-write transaction and commits.
  sim::Task<StatusOr<std::vector<ScanResult>>> RunBatch(
      CoordinatorNode* cn, std::vector<ScanSpec> specs) {
    auto txn = co_await cn->Begin();
    if (!txn.ok()) co_return txn.status();
    auto out = co_await cn->ScanBatch(&*txn, std::move(specs));
    Status done = co_await cn->Commit(&*txn);
    if (!done.ok()) co_return done;
    co_return out;
  }

  sim::Simulator sim_;
  std::unique_ptr<Cluster> cluster_;
};

// The equality filter and the limit ride down to the data node: filtered
// rows are dropped (and counted) server-side, and a range whose post-filter
// limit is reached stops scanning early (dn.scan_limit_hits).
TEST_F(ScanBatchTest, FilterAndLimitPushdown) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());
  // 9 ids on one shard: balances id % 3 cycle 0,1,2.
  std::vector<int64_t> ids = IdsOnShard(1, 9);
  ASSERT_TRUE(RunTask(WriteIds(&cn, ids)).ok());

  ScanSpec spec;
  std::tie(spec.start, spec.end) = WholeTable();
  spec.table = "accounts";
  spec.filter_col = 2;  // balance
  spec.filter_eq = 0;
  spec.limit = 2;
  spec.route = Value(ids[0]);
  auto out = RunTask(RunBatch(&cn, {spec}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)[0].rows.size(), 2u);
  for (const Row& row : (*out)[0].rows) {
    EXPECT_EQ(std::get<int64_t>(row[2]), 0);
  }
  // 9 ids, 3 match the filter, the limit stops the scan after the 2nd
  // match: at least the non-matching rows walked up to that point were
  // filtered server-side, and the limit hit was recorded.
  EXPECT_GE(DnTotal("dn.scan_rows_filtered"), 1);
  EXPECT_GE(DnTotal("dn.scan_limit_hits"), 1);
  EXPECT_EQ(cn.metrics().Get("cn.scan_batches"), 1);
}

// reverse=true returns the last N rows in descending key order — the
// index-backed "latest order" shape — merged descending across shards.
TEST_F(ScanBatchTest, ReverseScanReturnsLatestRowsDescending) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());
  std::vector<int64_t> ids;
  for (int64_t id = 1; id <= 20; ++id) ids.push_back(id);
  ASSERT_TRUE(RunTask(WriteIds(&cn, ids)).ok());

  ScanSpec spec;
  std::tie(spec.start, spec.end) = WholeTable();
  spec.table = "accounts";
  spec.reverse = true;
  spec.limit = 3;  // no route: all shards contribute their own last 3
  auto out = RunTask(RunBatch(&cn, {spec}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)[0].rows.size(), 3u);
  EXPECT_EQ(std::get<int64_t>((*out)[0].rows[0][0]), 20);
  EXPECT_EQ(std::get<int64_t>((*out)[0].rows[1][0]), 19);
  EXPECT_EQ(std::get<int64_t>((*out)[0].rows[2][0]), 18);
}

// The co-located prefix join fetches each scanned account's lines rows on
// the same shard, in the same reply — deduped and key-ordered.
TEST_F(ScanBatchTest, PrefixJoinFetchesCoLocatedRows) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());
  ASSERT_TRUE(RunTask(cn.CreateTable(LinesSchema())).ok());
  std::vector<int64_t> ids = IdsOnShard(2, 4);
  ASSERT_TRUE(RunTask(WriteIds(&cn, ids, /*with_lines=*/true)).ok());

  ScanSpec spec;
  std::tie(spec.start, spec.end) = WholeTable();
  spec.table = "accounts";
  spec.route = Value(ids[0]);
  spec.join_table = "lines";
  spec.join_key_cols = {0};  // account id -> lines prefix
  spec.join_prefix = true;
  spec.join_limit = 10;
  auto out = RunTask(RunBatch(&cn, {spec}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)[0].rows.size(), ids.size());
  // Two lines per account, every one joined in, none fetched via a
  // separate client round trip.
  ASSERT_EQ((*out)[0].joined.size(), 2 * ids.size());
  EXPECT_GE(DnTotal("dn.scan_join_lookups"), static_cast<int64_t>(ids.size()));
  for (size_t i = 0; i + 1 < (*out)[0].joined.size(); ++i) {
    const Row& a = (*out)[0].joined[i];
    const Row& b = (*out)[0].joined[i + 1];
    EXPECT_LE(std::make_pair(std::get<int64_t>(a[0]), std::get<int64_t>(a[1])),
              std::make_pair(std::get<int64_t>(b[0]), std::get<int64_t>(b[1])));
  }
}

// A tiny chunk budget forces the server to truncate mid-scan; the CN
// resumes from the continuation cursor (rewritten start key + remaining
// limit) until the stream drains, and the result is identical to an
// unchunked run.
TEST_F(ScanBatchTest, ChunkTruncationAndContinuationDrainTheScan) {
  ClusterOptions options = ThreeCityOptions();
  options.coordinator.scan_chunk_bytes = 64;  // a couple of rows per chunk
  Build(options);
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());
  std::vector<int64_t> ids;
  for (int64_t id = 1; id <= 30; ++id) ids.push_back(id);
  ASSERT_TRUE(RunTask(WriteIds(&cn, ids)).ok());

  ScanSpec spec;
  std::tie(spec.start, spec.end) = WholeTable();
  spec.table = "accounts";
  auto out = RunTask(RunBatch(&cn, {spec}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)[0].rows.size(), 30u);
  for (int64_t id = 1; id <= 30; ++id) {
    EXPECT_EQ(std::get<int64_t>((*out)[0].rows[id - 1][0]), id);
  }
  // The stream really chunked: more round trips than shard groups, and the
  // servers recorded the truncations.
  EXPECT_GT(cn.metrics().Get("cn.scan_chunks"),
            cn.metrics().Hist("cn.scan_fanout").values().back());
  EXPECT_GE(DnTotal("dn.scan_chunks_truncated"), 1);
}

// Specs without a route broadcast to every shard; the k-way merge yields
// one globally ascending sequence capped at the spec limit.
TEST_F(ScanBatchTest, CrossShardMergeIsGloballyOrdered) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());
  std::vector<int64_t> ids;
  for (int64_t id = 1; id <= 24; ++id) ids.push_back(id);
  ASSERT_TRUE(RunTask(WriteIds(&cn, ids)).ok());

  ScanSpec spec;
  std::tie(spec.start, spec.end) = WholeTable();
  spec.table = "accounts";
  spec.limit = 10;
  auto out = RunTask(RunBatch(&cn, {spec}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)[0].rows.size(), 10u);
  for (int64_t id = 1; id <= 10; ++id) {
    EXPECT_EQ(std::get<int64_t>((*out)[0].rows[id - 1][0]), id);
  }
  EXPECT_EQ(cn.metrics().Hist("cn.scan_fanout").values().back(),
            static_cast<int64_t>(cluster_->num_shards()));
  EXPECT_EQ(cn.metrics().Hist("cn.scan_merge_rows").values().back(), 10);
}

// Each of two shards joins every row it returns, but the global limit drops
// some of those rows in the merge: no joined row may outlive its base row,
// for point joins and prefix joins alike.
TEST_F(ScanBatchTest, LimitDroppedRowsTakeTheirJoinsWithThem) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());
  ASSERT_TRUE(RunTask(cn.CreateTable(LinesSchema())).ok());
  std::vector<int64_t> ids = IdsOnShard(1, 5);
  for (int64_t id : IdsOnShard(2, 5)) ids.push_back(id);
  ASSERT_TRUE(RunTask(WriteIds(&cn, ids, /*with_lines=*/true)).ok());
  std::sort(ids.begin(), ids.end());

  // Point join: each account to its own row, by id.
  ScanSpec point;
  std::tie(point.start, point.end) = WholeTable();
  point.table = "accounts";
  point.limit = 4;
  point.join_table = "accounts";
  point.join_key_cols = {0};
  // Prefix join: each account to its two lines.
  ScanSpec prefix = point;
  prefix.join_table = "lines";
  prefix.join_prefix = true;
  prefix.join_limit = 10;
  auto out = RunTask(RunBatch(&cn, {point, prefix}));
  ASSERT_TRUE(out.ok());
  // Both shards answered with all five of their rows, so the merge dropped
  // six.
  EXPECT_EQ(cn.metrics().Hist("cn.scan_fanout").values().back(),
            static_cast<int64_t>(cluster_->num_shards()));
  for (const ScanResult& result : *out) {
    ASSERT_EQ(result.rows.size(), 4u);
    std::vector<int64_t> returned;
    for (size_t i = 0; i < result.rows.size(); ++i) {
      returned.push_back(std::get<int64_t>(result.rows[i][0]));
      EXPECT_EQ(returned.back(), ids[i]);
    }
    for (const Row& joined : result.joined) {
      EXPECT_NE(std::find(returned.begin(), returned.end(),
                          std::get<int64_t>(joined[0])),
                returned.end())
          << "joined row of dropped id " << std::get<int64_t>(joined[0]);
    }
  }
  EXPECT_EQ((*out)[0].joined.size(), 4u);
  EXPECT_EQ((*out)[1].joined.size(), 8u);
}

// A replica that dies mid-stream fails over its WHOLE group to the shard
// primary: accumulated partial chunks are discarded, so the final result
// has no duplicated or missing rows.
TEST_F(ScanBatchTest, ReplicaCrashMidStreamFailsOverWholeGroup) {
  ClusterOptions options = ThreeCityOptions();
  options.coordinator.scan_chunk_bytes = 64;  // multi-chunk streams
  Build(options);
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());
  const ShardId shard = 1;
  std::vector<int64_t> ids = IdsOnShard(shard, 12);
  ASSERT_TRUE(RunTask(WriteIds(&cn, ids)).ok());
  cluster_->WaitForRcp();
  sim_.RunFor(500 * kMillisecond);

  // Freeze the RCP poller: the scan must discover the dead replica on the
  // wire and fail over itself.
  for (size_t c = 0; c < cluster_->num_cns(); ++c) {
    cluster_->cn(c).rcp_service().Deactivate();
  }
  const SimTime base = sim_.now();
  chaos::FaultScheduler faults(cluster_.get());
  for (ReplicaNode* replica : cluster_->replicas_of(shard)) {
    chaos::FaultEvent e;
    e.kind = chaos::FaultKind::kNodeCrash;
    e.at = base + 50 * kMillisecond;
    e.node = replica->node_id();
    faults.AddEvent(e);
  }
  faults.Start();

  auto work = [this, &cn,
               &ids]() -> sim::Task<StatusOr<std::vector<ScanResult>>> {
    co_await sim_.Sleep(60 * kMillisecond);  // crash has happened
    auto txn = co_await cn.Begin(/*read_only=*/true);
    if (!txn.ok()) co_return txn.status();
    EXPECT_TRUE(txn->use_ror);
    ScanSpec spec;
    std::tie(spec.start, spec.end) = WholeTable();
    spec.table = "accounts";
    spec.route = Value(ids[0]);
    // Built outside the call: GCC 12 miscompiles brace-init-list arguments
    // in coroutines ("array used as initializer").
    std::vector<ScanSpec> specs;
    specs.push_back(std::move(spec));
    auto out = co_await cn.ScanBatch(&*txn, std::move(specs));
    (void)co_await cn.Abort(&*txn);
    co_return out;
  };
  auto out = RunTask(work());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)[0].rows.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(std::get<int64_t>((*out)[0].rows[i][0]), ids[i]);
  }
  EXPECT_GE(cn.metrics().Get("cn.replica_failovers"), 1);
}

}  // namespace
}  // namespace globaldb
