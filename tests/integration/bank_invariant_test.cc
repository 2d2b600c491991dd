// End-to-end invariant test: a bank with cross-shard transfers keeps a
// constant total balance under concurrent load, replica crashes and
// recoveries, a full GTM -> GClock -> GTM mode-transition cycle, and
// consistent read-only audits served from replicas throughout.

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/common/rng.h"

namespace globaldb {
namespace {

constexpr int kAccounts = 40;
constexpr int64_t kInitial = 500;

sim::Task<Status> Transfer(CoordinatorNode* cn, int64_t from, int64_t to,
                           int64_t amount) {
  auto txn = co_await cn->Begin();
  if (!txn.ok()) co_return txn.status();
  Row from_key = {from};
  Row to_key = {to};
  auto src = co_await cn->GetForUpdate(&*txn, "accounts", from_key);
  auto dst = co_await cn->GetForUpdate(&*txn, "accounts", to_key);
  if (!src.ok() || !dst.ok() || !src->has_value() || !dst->has_value()) {
    (void)co_await cn->Abort(&*txn);
    co_return Status::NotFound("account");
  }
  Row src_row = **src, dst_row = **dst;
  std::get<int64_t>(src_row[1]) -= amount;
  std::get<int64_t>(dst_row[1]) += amount;
  Status s = co_await cn->Update(&*txn, "accounts", src_row);
  if (s.ok()) s = co_await cn->Update(&*txn, "accounts", dst_row);
  if (!s.ok()) {
    (void)co_await cn->Abort(&*txn);
    co_return s;
  }
  co_return co_await cn->Commit(&*txn);
}

sim::Task<void> TransferLoop(Cluster* cluster, int cn_index, uint64_t seed,
                             int* commits, const bool* stop) {
  Rng rng(seed);
  CoordinatorNode* cn = &cluster->cn(cn_index);
  while (!*stop) {
    co_await cluster->simulator()->Sleep(
        rng.UniformRange(1 * kMillisecond, 5 * kMillisecond));
    int64_t from = rng.UniformRange(1, kAccounts);
    int64_t to = rng.UniformRange(1, kAccounts);
    if (from == to) continue;
    Status s = co_await Transfer(cn, from, to, rng.UniformRange(1, 20));
    if (s.ok()) ++*commits;
  }
}

/// Audits via a read-only (replica-served when possible) scan; returns the
/// total or -1 on error.
sim::Task<void> Audit(CoordinatorNode* cn, int64_t* out) {
  auto txn = co_await cn->Begin(/*read_only=*/true);
  if (!txn.ok()) {
    *out = -1;
    co_return;
  }
  std::vector<ScanSpec> all(1);
  all[0].table = "accounts";
  auto scanned = co_await cn->ScanBatch(&*txn, std::move(all));
  if (!scanned.ok()) {
    *out = -1;
    co_return;
  }
  const std::vector<Row>& rows = (*scanned)[0].rows;
  int64_t total = 0;
  for (const Row& row : rows) total += std::get<int64_t>(row[1]);
  // A consistent snapshot may be slightly stale but must never tear a
  // transfer in half.
  EXPECT_EQ(rows.size(), static_cast<size_t>(kAccounts));
  *out = total;
}

TEST(BankInvariantTest, TotalConservedUnderFaultsAndTransitions) {
  sim::Simulator sim(77);
  ClusterOptions options;
  options.topology = sim::Topology::ThreeCity();
  options.network.nagle_enabled = false;
  options.initial_mode = TimestampMode::kGtm;  // exercise transitions too
  Cluster cluster(&sim, options);
  cluster.Start();

  // Schema + initial balances.
  bool ready = false;
  auto setup = [](Cluster* cluster, bool* ready) -> sim::Task<void> {
    CoordinatorNode& cn = cluster->cn(0);
    TableSchema schema;
    schema.name = "accounts";
    schema.columns = {{"id", ColumnType::kInt64},
                      {"balance", ColumnType::kInt64}};
    schema.key_columns = {0};
    schema.distribution_column = 0;
    EXPECT_TRUE((co_await cn.CreateTable(schema)).ok());
    auto txn = co_await cn.Begin();
    EXPECT_TRUE(txn.ok());
    for (int64_t id = 1; id <= kAccounts; ++id) {
      Row row = {id, kInitial};
      EXPECT_TRUE((co_await cn.Insert(&*txn, "accounts", row)).ok());
    }
    EXPECT_TRUE((co_await cn.Commit(&*txn)).ok());
    *ready = true;
  };
  sim.Spawn(setup(&cluster, &ready));
  while (!ready) sim.RunFor(10 * kMillisecond);
  cluster.WaitForRcp();

  bool stop = false;
  int commits = 0;
  for (int c = 0; c < 6; ++c) {
    sim.Spawn(TransferLoop(&cluster, c % 3, 1000 + c, &commits, &stop));
  }

  // Chaos + audits driven from outside the simulation.
  auto chaos = [](Cluster* cluster, sim::Simulator* sim,
                  bool* stop) -> sim::Task<void> {
    co_await sim->Sleep(300 * kMillisecond);
    // Crash one replica of every shard.
    for (ShardId s = 0; s < cluster->num_shards(); ++s) {
      cluster->network().SetNodeUp(cluster->ReplicaNodeId(s, 0), false);
    }
    co_await sim->Sleep(300 * kMillisecond);
    // Live transition to GClock under load.
    auto up = co_await cluster->transition().SwitchToGclock();
    EXPECT_TRUE(up.ok());
    co_await sim->Sleep(300 * kMillisecond);
    // Replicas recover.
    for (ShardId s = 0; s < cluster->num_shards(); ++s) {
      cluster->network().SetNodeUp(cluster->ReplicaNodeId(s, 0), true);
    }
    co_await sim->Sleep(300 * kMillisecond);
    // And back to GTM.
    auto down = co_await cluster->transition().SwitchToGtm();
    EXPECT_TRUE(down.ok());
    co_await sim->Sleep(300 * kMillisecond);
    *stop = true;
  };
  sim.Spawn(chaos(&cluster, &sim, &stop));

  // Audit from a rotating CN every ~400 ms while chaos unfolds.
  int audits = 0;
  while (!stop) {
    sim.RunFor(100 * kMillisecond);
    int64_t total = -2;
    sim.Spawn(Audit(&cluster.cn(audits % 3), &total));
    sim.RunFor(300 * kMillisecond);  // let the audit finish
    ASSERT_NE(total, -2) << "audit hung";
    EXPECT_EQ(total, kAccounts * kInitial) << "audit " << audits;
    ++audits;
  }
  sim.RunFor(2 * kSecond);

  EXPECT_GT(commits, 20);
  EXPECT_GE(audits, 3);
  // Final ground truth straight from the primaries.
  int64_t primary_total = 0;
  const TableSchema* schema = cluster.cn(0).catalog().FindTable("accounts");
  ASSERT_NE(schema, nullptr);
  for (ShardId s = 0; s < cluster.num_shards(); ++s) {
    MvccTable* table = cluster.data_node(s).store().GetTable(schema->id);
    if (table == nullptr) continue;
    auto rows = table->Scan("", "", kTimestampMax - 1, kInvalidTxnId, 10000,
                            nullptr);
    for (auto& row : rows) {
      Row decoded;
      ASSERT_TRUE(DecodeRow(Slice(row.value), &decoded).ok());
      primary_total += std::get<int64_t>(decoded[1]);
    }
  }
  EXPECT_EQ(primary_total, kAccounts * kInitial);
}

}  // namespace
}  // namespace globaldb
