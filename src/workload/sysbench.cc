#include "src/workload/sysbench.h"

#include <algorithm>

#include "src/workload/bulk_load.h"

namespace globaldb {

// Aborts the open transaction and returns the failed TxnResult. A macro
// (not a nested lambda coroutine): GCC 12 miscompiles capturing lambda
// coroutines awaited from another coroutine's co_return expression.
#define GDB_TXN_FAIL(expr)              \
  {                                     \
    result.status = (expr);             \
    (void)co_await cn->Abort(&txn);     \
    co_return result;                   \
  }


namespace {

TableSchema SbtestSchema(const std::string& name) {
  TableSchema s;
  s.name = name;
  s.columns = {{"id", ColumnType::kInt64},
               {"k", ColumnType::kInt64},
               {"c", ColumnType::kString},
               {"pad", ColumnType::kString}};
  s.key_columns = {0};
  s.distribution_column = 0;
  return s;
}

}  // namespace

SysbenchWorkload::SysbenchWorkload(Cluster* cluster, SysbenchConfig config,
                                   uint64_t seed)
    : cluster_(cluster), config_(config), rng_(seed) {}

bool SysbenchWorkload::RowIsLocal(CoordinatorNode* cn, int64_t id) const {
  const TableSchema schema = SbtestSchema("sbtest1");
  Row row = {id, int64_t{0}, std::string(), std::string()};
  const ShardId shard = RouteRowToShard(
      schema, row, static_cast<uint32_t>(cluster_->num_shards()));
  return cluster_->PrimaryRegion(shard) == cn->region();
}

int64_t SysbenchWorkload::PickRowId(CoordinatorNode* cn, Rng* rng) const {
  const bool want_remote = rng->Bernoulli(config_.remote_fraction);
  for (int tries = 0; tries < 32; ++tries) {
    const int64_t id = rng->UniformRange(1, config_.rows_per_table);
    if (RowIsLocal(cn, id) != want_remote) return id;
  }
  return rng->UniformRange(1, config_.rows_per_table);
}

Status SysbenchWorkload::Setup() {
  sim::Simulator* sim = cluster_->simulator();
  CoordinatorNode& cn = cluster_->cn(0);

  Status ddl_status = Status::OK();
  bool done = false;
  auto create_all = [](CoordinatorNode* cn, const SysbenchConfig* config,
                       Status* out, bool* flag) -> sim::Task<void> {
    for (int t = 0; t < config->num_tables; ++t) {
      TableSchema schema = SbtestSchema("sbtest" + std::to_string(t + 1));
      Status s = co_await cn->CreateTable(schema);
      if (!s.ok()) {
        *out = s;
        break;
      }
    }
    *flag = true;
  };
  sim->Spawn(create_all(&cn, &config_, &ddl_status, &done));
  while (!done) sim->RunFor(10 * kMillisecond);
  GDB_RETURN_IF_ERROR(ddl_status);

  // Bulk load.
  BulkLoader loader(cluster_);
  for (int t = 0; t < config_.num_tables; ++t) {
    const TableSchema& schema = loader.Table(TableName(t));
    for (int64_t id = 1; id <= config_.rows_per_table; ++id) {
      loader.Add(schema, {id, rng_.UniformRange(1, config_.rows_per_table),
                          rng_.AlphaString(30, 60), rng_.AlphaString(20, 40)});
    }
  }
  return loader.Finish();
}

TxnFn SysbenchWorkload::PointSelectFn() {
  return [this](CoordinatorNode* cn, Rng* rng) -> sim::Task<TxnResult> {
    return PointSelect(cn, rng);
  };
}

TxnFn SysbenchWorkload::ReadWriteFn() {
  return [this](CoordinatorNode* cn, Rng* rng) -> sim::Task<TxnResult> {
    return ReadWrite(cn, rng);
  };
}

TxnFn SysbenchWorkload::RangeSelectFn() {
  return [this](CoordinatorNode* cn, Rng* rng) -> sim::Task<TxnResult> {
    return RangeSelect(cn, rng);
  };
}

sim::Task<TxnResult> SysbenchWorkload::RangeSelect(CoordinatorNode* cn,
                                                   Rng* rng) {
  TxnResult result;
  result.kind = "range_select";
  auto txn_or = co_await cn->Begin(/*read_only=*/true,
                                   /*single_shard=*/false);
  if (!txn_or.ok()) {
    result.status = txn_or.status();
    co_return result;
  }
  TxnHandle txn = *txn_or;
  std::vector<ScanSpec> specs(config_.ranges_per_txn);
  for (int i = 0; i < config_.ranges_per_txn; ++i) {
    const int64_t max_start =
        std::max<int64_t>(1, config_.rows_per_table - config_.range_size);
    const int64_t start_id = rng->UniformRange(1, max_start);
    ScanSpec& spec = specs[i];
    spec.table = TableName(static_cast<int>(rng->Uniform(config_.num_tables)));
    EncodeKeyPart(Value(start_id), &spec.start);
    EncodeKeyPart(Value(start_id + config_.range_size), &spec.end);
    spec.limit = static_cast<uint32_t>(config_.range_size);
  }
  auto batch = co_await cn->ScanBatch(&txn, std::move(specs));
  result.status = batch.ok() ? Status::OK() : batch.status();
  // Read-only close: releases the snapshot's pin on the GC horizon.
  (void)co_await cn->Abort(&txn);
  co_return result;
}

sim::Task<TxnResult> SysbenchWorkload::PointSelect(CoordinatorNode* cn,
                                                   Rng* rng) {
  TxnResult result;
  result.kind = "point_select";
  const std::string table =
      TableName(static_cast<int>(rng->Uniform(config_.num_tables)));
  const int64_t id = PickRowId(cn, rng);

  auto txn_or = co_await cn->Begin(/*read_only=*/true, /*single_shard=*/true);
  if (!txn_or.ok()) {
    result.status = txn_or.status();
    co_return result;
  }
  TxnHandle txn = *txn_or;
  Row key = {id};
  auto row = co_await cn->Get(&txn, table, key);
  result.status = row.ok() ? Status::OK() : row.status();
  // Read-only close: releases the snapshot's pin on the GC horizon.
  (void)co_await cn->Abort(&txn);
  co_return result;
}

sim::Task<TxnResult> SysbenchWorkload::ReadWrite(CoordinatorNode* cn,
                                                 Rng* rng) {
  TxnResult result;
  result.kind = "read_write";
  const std::string table =
      TableName(static_cast<int>(rng->Uniform(config_.num_tables)));

  auto txn_or = co_await cn->Begin();
  if (!txn_or.ok()) {
    result.status = txn_or.status();
    co_return result;
  }
  TxnHandle txn = *txn_or;

  // The point selects are independent of each other: one batched MultiGet
  // fans them out per shard instead of point_selects_per_txn serial trips.
  std::vector<Row> select_keys;
  select_keys.reserve(config_.point_selects_per_txn);
  for (int i = 0; i < config_.point_selects_per_txn; ++i) {
    select_keys.push_back({PickRowId(cn, rng)});
  }
  auto selected = co_await cn->MultiGet(&txn, table, select_keys);
  if (!selected.ok()) GDB_TXN_FAIL(selected.status());
  for (int i = 0; i < config_.updates_per_txn; ++i) {
    Row key = {PickRowId(cn, rng)};
    auto row = co_await cn->GetForUpdate(&txn, table, key);
    if (!row.ok()) GDB_TXN_FAIL(row.status());
    if (!row->has_value()) continue;
    Row updated = **row;
    std::get<int64_t>(updated[1]) += 1;
    Status s = co_await cn->Update(&txn, table, updated);
    if (!s.ok()) GDB_TXN_FAIL(std::move(s));
  }
  result.status = co_await cn->Commit(&txn);
  co_return result;
}

}  // namespace globaldb
