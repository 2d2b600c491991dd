// Pushdown-equivalence oracle (DESIGN.md §14): for any mix of ScanSpecs —
// bounded ranges, filters, limits, reverse order, routes, co-located joins
// — the batched scan path must return byte-for-byte what a direct scan of
// every shard primary's MvccTable at the same snapshot returns, with the
// route, filter, limit, reverse order and join applied in the test. That
// includes a tiny chunk budget forcing mid-scan truncation and
// client-driven continuation. Randomized across three seeds so the spec
// mix, data distribution, and truncation points all vary.

#include "src/cluster/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

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

template <typename T>
T RunTask(sim::Simulator* sim, sim::Task<T> task) {
  std::optional<T> result;
  auto wrapper = [](sim::Task<T> t, std::optional<T>* out) -> sim::Task<void> {
    *out = co_await std::move(t);
  };
  sim->Spawn(wrapper(std::move(task), &result));
  while (!result.has_value()) {
    sim->RunFor(1 * kMillisecond);
  }
  return std::move(*result);
}

sim::Task<Status> LoadData(CoordinatorNode* cn, int64_t num_ids,
                           uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto txn = co_await cn->Begin();
  if (!txn.ok()) co_return txn.status();
  for (int64_t id = 1; id <= num_ids; ++id) {
    Row row = {id, "owner_" + std::to_string(id),
               static_cast<int64_t>(rng() % 4)};
    Status s = co_await cn->Insert(&*txn, "accounts", row);
    if (!s.ok()) {
      (void)co_await cn->Abort(&*txn);
      co_return s;
    }
    int64_t lines = 1 + static_cast<int64_t>(rng() % 3);
    for (int64_t seq = 1; seq <= lines; ++seq) {
      Row line = {id, seq, "n" + std::to_string(id * 10 + seq)};
      s = co_await cn->Insert(&*txn, "lines", line);
      if (!s.ok()) {
        (void)co_await cn->Abort(&*txn);
        co_return s;
      }
    }
  }
  co_return co_await cn->Commit(&*txn);
}

/// A random spec over the loaded data: ~half bounded, ~half filtered,
/// a third reversed, ~half routed to a single shard, a third joined.
ScanSpec RandomSpec(std::mt19937_64* rng, int64_t num_ids) {
  ScanSpec spec;
  spec.table = "accounts";
  if ((*rng)() % 2 == 0) {
    int64_t lo = 1 + static_cast<int64_t>((*rng)() % num_ids);
    int64_t hi = lo + 1 + static_cast<int64_t>((*rng)() % num_ids);
    EncodeKeyPart(Value(lo), &spec.start);
    EncodeKeyPart(Value(hi), &spec.end);
  }
  if ((*rng)() % 2 == 0) {
    spec.filter_col = 2;
    spec.filter_eq = static_cast<int64_t>((*rng)() % 4);
  }
  if ((*rng)() % 3 == 0) spec.reverse = true;
  if ((*rng)() % 2 == 0) {
    spec.limit = 1 + static_cast<uint32_t>((*rng)() % 12);
  }
  if ((*rng)() % 2 == 0) {
    spec.route = Value(1 + static_cast<int64_t>((*rng)() % num_ids));
  }
  if ((*rng)() % 3 == 0) {
    spec.join_table = "lines";
    spec.join_key_cols = {0};
    spec.join_prefix = true;
    spec.join_limit = 1 + static_cast<uint32_t>((*rng)() % 4);
  }
  return spec;
}

/// One ScanBatch in a read-only transaction, with the snapshot it ran at.
struct BatchRun {
  StatusOr<std::vector<ScanResult>> results{Status::Unavailable("not run")};
  Timestamp snapshot = 0;
};

sim::Task<BatchRun> RunSpecs(CoordinatorNode* cn,
                             std::vector<ScanSpec> specs) {
  BatchRun run;
  auto txn = co_await cn->Begin(/*read_only=*/true);
  if (!txn.ok()) {
    run.results = txn.status();
    co_return run;
  }
  run.snapshot = txn->snapshot;
  run.results = co_await cn->ScanBatch(&*txn, std::move(specs));
  (void)co_await cn->Abort(&*txn);
  co_return run;
}

/// Every row of `table` in [start, end) at `snapshot`, read straight from
/// the MvccTables of `shards`' primaries, in ascending key order.
std::vector<std::pair<RowKey, Row>> DirectScan(
    Cluster& cluster, TableId table, const std::vector<ShardId>& shards,
    const RowKey& start, const RowKey& end, Timestamp snapshot,
    size_t limit) {
  std::vector<std::pair<RowKey, Row>> out;
  for (ShardId shard : shards) {
    const MvccTable* t = cluster.data_node(shard).store().GetTable(table);
    if (t == nullptr) continue;
    for (const auto& entry :
         t->Scan(start, end, snapshot, kInvalidTxnId, limit, nullptr)) {
      Row row;
      EXPECT_TRUE(DecodeRow(Slice(entry.value), &row).ok());
      out.emplace_back(entry.key.ToString(), std::move(row));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

/// The oracle's answer to one spec: route, filter, reverse, limit and the
/// prefix/point join applied here, over direct MvccTable scans.
ScanResult ExpectedResult(Cluster& cluster, const ScanSpec& spec,
                          Timestamp snapshot) {
  Catalog& catalog = cluster.cn(0).catalog();
  const TableSchema* schema = catalog.FindTable(spec.table);
  const uint32_t num_shards = static_cast<uint32_t>(cluster.num_shards());
  std::vector<ShardId> all_shards;
  for (ShardId s = 0; s < num_shards; ++s) all_shards.push_back(s);
  std::vector<ShardId> shards = all_shards;
  if (spec.route.has_value()) {
    shards = {RouteToShard(*schema, *spec.route, num_shards)};
  }
  constexpr size_t kAll = std::numeric_limits<size_t>::max();
  ScanResult out;
  for (auto& [key, row] : DirectScan(cluster, schema->id, shards, spec.start,
                                     spec.end, snapshot, kAll)) {
    if (spec.filter_col >= 0) {
      const int64_t* v = std::get_if<int64_t>(&row[spec.filter_col]);
      if (v == nullptr || *v != spec.filter_eq) continue;
    }
    out.rows.push_back(std::move(row));
  }
  if (spec.reverse) std::reverse(out.rows.begin(), out.rows.end());
  if (out.rows.size() > spec.limit) out.rows.resize(spec.limit);
  if (spec.join_table.empty()) return out;

  const TableSchema* join_schema = catalog.FindTable(spec.join_table);
  std::map<RowKey, Row> joined;  // deduped, ascending key order
  for (const Row& row : out.rows) {
    RowKey key = spec.join_key_prefix;
    for (uint32_t col : spec.join_key_cols) EncodeKeyPart(row[col], &key);
    const RowKey end = spec.join_prefix ? PrefixSuccessor(key) : key + '\0';
    const size_t limit = spec.join_prefix ? spec.join_limit : 1;
    for (auto& [jkey, jrow] : DirectScan(cluster, join_schema->id, all_shards,
                                         key, end, snapshot, limit)) {
      joined.emplace(std::move(jkey), std::move(jrow));
    }
  }
  for (auto& [key, row] : joined) out.joined.push_back(std::move(row));
  return out;
}

TEST(ScanEquivalenceTest, BatchedMatchesSerialAcrossSeeds) {
  for (uint64_t seed : {41u, 42u, 43u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    sim::Simulator sim(seed);
    ClusterOptions options;
    options.topology = sim::Topology::ThreeCity();
    options.network.nagle_enabled = false;
    options.num_shards = 6;
    options.replicas_per_shard = 2;
    options.initial_mode = TimestampMode::kGclock;
    // A couple of rows per chunk: unbounded specs truncate mid-scan and
    // exercise the continuation cursor.
    options.coordinator.scan_chunk_bytes = 96;
    Cluster cluster(&sim, options);
    cluster.Start();
    auto& cn = cluster.cn(0);
    ASSERT_TRUE(RunTask(&sim, cn.CreateTable(AccountsSchema())).ok());
    ASSERT_TRUE(RunTask(&sim, cn.CreateTable(LinesSchema())).ok());
    const int64_t num_ids = 60;
    ASSERT_TRUE(RunTask(&sim, LoadData(&cn, num_ids, seed)).ok());
    // Let RCP advance past the load commit so the read-only snapshot (and
    // the replicas) actually cover the data.
    cluster.WaitForRcp();
    sim.RunFor(500 * kMillisecond);

    std::mt19937_64 rng(seed * 7919);
    std::vector<ScanSpec> specs;
    // One unbounded, unfiltered, unlimited forward scan: every shard holds
    // ~10 rows (well over the 96-byte budget), so this spec always
    // truncates mid-scan and drives the continuation path.
    ScanSpec full;
    full.table = "accounts";
    specs.push_back(full);
    for (int i = 0; i < 7; ++i) specs.push_back(RandomSpec(&rng, num_ids));

    BatchRun run = RunTask(&sim, RunSpecs(&cn, specs));
    ASSERT_TRUE(run.results.ok());
    const std::vector<ScanResult>& batched = *run.results;
    // The tiny budget really forced continuation: more chunks than the
    // batch had shard groups.
    int64_t fanout = 0;
    for (int64_t f : cn.metrics().Hist("cn.scan_fanout").values()) fanout += f;
    EXPECT_GT(cn.metrics().Get("cn.scan_chunks"), fanout);
    // Both replica- and primary-routed groups were exercised.
    EXPECT_GE(cn.metrics().Get("cn.scan_batch_replica"), 1);

    ASSERT_EQ(batched.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      SCOPED_TRACE("spec=" + std::to_string(i));
      const ScanResult& b = batched[i];
      const ScanResult s = ExpectedResult(cluster, specs[i], run.snapshot);
      ASSERT_EQ(b.rows.size(), s.rows.size());
      for (size_t r = 0; r < b.rows.size(); ++r) {
        EXPECT_TRUE(b.rows[r] == s.rows[r]) << "row " << r;
      }
      ASSERT_EQ(b.joined.size(), s.joined.size());
      for (size_t r = 0; r < b.joined.size(); ++r) {
        EXPECT_TRUE(b.joined[r] == s.joined[r]) << "joined row " << r;
      }
    }
  }
}

}  // namespace
}  // namespace globaldb
