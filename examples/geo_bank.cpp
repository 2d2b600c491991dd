// A geo-distributed bank: accounts are sharded across three cities; money
// moves with cross-shard (two-phase-commit) transfers while auditors run
// consistent read-only balance sweeps on local replicas. The sweep total
// must be constant at every consistency point — the demo prints the proof.
//
//   ./example_geo_bank

#include <cstdio>

#include "src/cluster/cluster.h"
#include "src/common/rng.h"

using namespace globaldb;

namespace {

constexpr int kAccounts = 60;
constexpr int64_t kInitialBalance = 1000;

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
  Row src_row = **src;
  Row dst_row = **dst;
  if (std::get<int64_t>(src_row[1]) < amount) {
    (void)co_await cn->Abort(&*txn);
    co_return Status::FailedPrecondition("insufficient funds");
  }
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
    const int64_t from = rng.UniformRange(1, kAccounts);
    int64_t to = rng.UniformRange(1, kAccounts);
    if (to == from) to = (to % kAccounts) + 1;
    Status s = co_await Transfer(cn, from, to, rng.UniformRange(1, 50));
    if (s.ok()) ++*commits;
    co_await cluster->simulator()->Sleep(2 * kMillisecond);
  }
}

/// Consistent audit on replicas: one ROR transaction scans every account at
/// the RCP snapshot; the total must equal kAccounts * kInitialBalance even
/// while transfers are in flight.
sim::Task<void> Audit(Cluster* cluster, int cn_index, int round) {
  CoordinatorNode* cn = &cluster->cn(cn_index);
  auto txn = co_await cn->Begin(/*read_only=*/true);
  if (!txn.ok()) co_return;
  std::vector<ScanSpec> all(1);
  all[0].table = "accounts";
  auto scanned = co_await cn->ScanBatch(&*txn, std::move(all));
  if (!scanned.ok()) {
    printf("audit %d failed: %s\n", round,
           scanned.status().ToString().c_str());
    co_return;
  }
  const std::vector<Row>& rows = (*scanned)[0].rows;
  int64_t total = 0;
  for (const Row& row : rows) total += std::get<int64_t>(row[1]);
  printf("audit %d @ cn%d: accounts=%zu total=%lld (%s, snapshot=%llu, "
         "ror=%d)\n",
         round, cn_index, rows.size(), static_cast<long long>(total),
         total == kAccounts * kInitialBalance ? "CONSISTENT" : "BROKEN!",
         static_cast<unsigned long long>(txn->snapshot), txn->use_ror);
}

sim::Task<void> Run(Cluster* cluster, bool* done) {
  CoordinatorNode& cn = cluster->cn(0);
  TableSchema schema;
  schema.name = "accounts";
  schema.columns = {{"id", ColumnType::kInt64},
                    {"balance", ColumnType::kInt64}};
  schema.key_columns = {0};
  schema.distribution_column = 0;
  Status s = co_await cn.CreateTable(schema);
  printf("create accounts: %s\n", s.ToString().c_str());

  auto setup = co_await cn.Begin();
  for (int64_t id = 1; id <= kAccounts; ++id) {
    Row row = {id, kInitialBalance};
    (void)co_await cn.Insert(&*setup, "accounts", row);
  }
  s = co_await cn.Commit(&*setup);
  printf("loaded %d accounts x %lld: %s\n", kAccounts,
         static_cast<long long>(kInitialBalance), s.ToString().c_str());

  // Transfers from all three cities; audits every 300 ms from rotating CNs.
  bool stop = false;
  int commits = 0;
  for (int c = 0; c < 9; ++c) {
    cluster->simulator()->Spawn(
        TransferLoop(cluster, c % 3, 100 + c, &commits, &stop));
  }
  for (int round = 1; round <= 8; ++round) {
    co_await cluster->simulator()->Sleep(300 * kMillisecond);
    co_await Audit(cluster, round % 3, round);
  }
  stop = true;
  co_await cluster->simulator()->Sleep(200 * kMillisecond);
  printf("transfers committed: %d\n", commits);
  *done = true;
}

}  // namespace

int main() {
  sim::Simulator sim(7777);
  ClusterOptions options;
  options.topology = sim::Topology::ThreeCity();
  options.initial_mode = TimestampMode::kGclock;
  Cluster cluster(&sim, options);
  cluster.Start();

  bool done = false;
  sim.Spawn(Run(&cluster, &done));
  while (!done) sim.RunFor(10 * kMillisecond);
  return 0;
}
