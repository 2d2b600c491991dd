#include "src/workload/tpcc.h"

#include <algorithm>
#include <map>
#include <utility>

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

TableSchema WarehouseSchema() {
  TableSchema s;
  s.name = "warehouse";
  s.columns = {{"w_id", ColumnType::kInt64},
               {"w_name", ColumnType::kString},
               {"w_ytd", ColumnType::kDouble}};
  s.key_columns = {0};
  s.distribution_column = 0;
  return s;
}

TableSchema DistrictSchema() {
  TableSchema s;
  s.name = "district";
  s.columns = {{"d_w_id", ColumnType::kInt64},
               {"d_id", ColumnType::kInt64},
               {"d_name", ColumnType::kString},
               {"d_ytd", ColumnType::kDouble},
               {"d_next_o_id", ColumnType::kInt64}};
  s.key_columns = {0, 1};
  s.distribution_column = 0;
  return s;
}

TableSchema CustomerSchema() {
  TableSchema s;
  s.name = "customer";
  s.columns = {{"c_w_id", ColumnType::kInt64},
               {"c_d_id", ColumnType::kInt64},
               {"c_id", ColumnType::kInt64},
               {"c_name", ColumnType::kString},
               {"c_balance", ColumnType::kDouble},
               {"c_ytd_payment", ColumnType::kDouble},
               {"c_payment_cnt", ColumnType::kInt64}};
  s.key_columns = {0, 1, 2};
  s.distribution_column = 0;
  return s;
}

TableSchema HistorySchema() {
  TableSchema s;
  s.name = "history";
  s.columns = {{"h_w_id", ColumnType::kInt64},
               {"h_d_id", ColumnType::kInt64},
               {"h_c_id", ColumnType::kInt64},
               {"h_id", ColumnType::kInt64},
               {"h_amount", ColumnType::kDouble}};
  s.key_columns = {0, 1, 2, 3};
  s.distribution_column = 0;
  return s;
}

TableSchema OrdersSchema() {
  TableSchema s;
  s.name = "orders";
  s.columns = {{"o_w_id", ColumnType::kInt64},
               {"o_d_id", ColumnType::kInt64},
               {"o_id", ColumnType::kInt64},
               {"o_c_id", ColumnType::kInt64},
               {"o_ol_cnt", ColumnType::kInt64},
               {"o_carrier_id", ColumnType::kInt64}};
  s.key_columns = {0, 1, 2};
  s.distribution_column = 0;
  return s;
}

/// App-maintained secondary index: (w, d, c) -> order ids, ascending. A
/// reverse limit-1 prefix scan over (w, d, c) is the customer's latest
/// order — the lookup OrderStatus needs — without scanning the orders
/// table. NewOrder appends to it in the same buffered write batch as the
/// order header (same shard: distributed by warehouse), so maintenance
/// costs no extra round trip (DESIGN.md §14).
TableSchema OrdersCustIdxSchema() {
  TableSchema s;
  s.name = "orders_cust_idx";
  s.columns = {{"oi_w_id", ColumnType::kInt64},
               {"oi_d_id", ColumnType::kInt64},
               {"oi_c_id", ColumnType::kInt64},
               {"oi_o_id", ColumnType::kInt64}};
  s.key_columns = {0, 1, 2, 3};
  s.distribution_column = 0;
  return s;
}

TableSchema NewOrderSchema() {
  TableSchema s;
  s.name = "new_order";
  s.columns = {{"no_w_id", ColumnType::kInt64},
               {"no_d_id", ColumnType::kInt64},
               {"no_o_id", ColumnType::kInt64}};
  s.key_columns = {0, 1, 2};
  s.distribution_column = 0;
  return s;
}

TableSchema OrderLineSchema() {
  TableSchema s;
  s.name = "order_line";
  s.columns = {{"ol_w_id", ColumnType::kInt64},
               {"ol_d_id", ColumnType::kInt64},
               {"ol_o_id", ColumnType::kInt64},
               {"ol_number", ColumnType::kInt64},
               {"ol_i_id", ColumnType::kInt64},
               {"ol_supply_w_id", ColumnType::kInt64},
               {"ol_quantity", ColumnType::kInt64},
               {"ol_amount", ColumnType::kDouble}};
  s.key_columns = {0, 1, 2, 3};
  s.distribution_column = 0;
  return s;
}

TableSchema ItemSchema() {
  TableSchema s;
  s.name = "item";
  s.columns = {{"i_id", ColumnType::kInt64},
               {"i_name", ColumnType::kString},
               {"i_price", ColumnType::kDouble}};
  s.key_columns = {0};
  s.distribution_column = 0;
  s.distribution = DistributionKind::kReplicated;
  return s;
}

TableSchema StockSchema() {
  TableSchema s;
  s.name = "stock";
  s.columns = {{"s_w_id", ColumnType::kInt64},
               {"s_i_id", ColumnType::kInt64},
               {"s_quantity", ColumnType::kInt64},
               {"s_ytd", ColumnType::kDouble},
               {"s_order_cnt", ColumnType::kInt64}};
  s.key_columns = {0, 1};
  s.distribution_column = 0;
  return s;
}

/// Prefix scan bounds from leading key-column values.
std::pair<RowKey, RowKey> PrefixRange(std::initializer_list<Value> parts) {
  RowKey start;
  for (const Value& v : parts) EncodeKeyPart(v, &start);
  return {start, PrefixSuccessor(start)};
}

}  // namespace

TpccWorkload::TpccWorkload(Cluster* cluster, TpccConfig config, uint64_t seed)
    : cluster_(cluster),
      config_(config),
      rng_(seed),
      warehouse_schema_(WarehouseSchema()) {}

ShardId TpccWorkload::ShardOfWarehouse(int64_t w) const {
  return RouteToShard(warehouse_schema_, Value(w),
                      static_cast<uint32_t>(cluster_->num_shards()));
}

bool TpccWorkload::WarehouseIsLocal(CoordinatorNode* cn, int64_t w) const {
  const ShardId shard = ShardOfWarehouse(w);
  return cluster_->PrimaryRegion(shard) == cn->region();
}

int64_t TpccWorkload::PickWarehouse(CoordinatorNode* cn, Rng* rng) const {
  const bool want_remote = rng->Bernoulli(config_.remote_warehouse_fraction);
  // Rejection-sample a warehouse with the desired affinity (bounded tries:
  // in a one-region cluster everything is local).
  for (int tries = 0; tries < 32; ++tries) {
    const int64_t w = rng->UniformRange(1, config_.num_warehouses);
    if (WarehouseIsLocal(cn, w) != want_remote) return w;
  }
  return rng->UniformRange(1, config_.num_warehouses);
}

int64_t TpccWorkload::PickOtherShardWarehouse(int64_t w, Rng* rng,
                                              bool same_region) const {
  const ShardId home = ShardOfWarehouse(w);
  const RegionId home_region = cluster_->PrimaryRegion(home);
  for (int tries = 0; tries < 64; ++tries) {
    const int64_t other = rng->UniformRange(1, config_.num_warehouses);
    const ShardId other_shard = ShardOfWarehouse(other);
    if (other == w || other_shard == home) continue;
    if (same_region &&
        cluster_->PrimaryRegion(other_shard) != home_region) {
      continue;
    }
    return other;
  }
  return w;
}

Status TpccWorkload::Setup() {
  sim::Simulator* sim = cluster_->simulator();
  CoordinatorNode& cn = cluster_->cn(0);

  // 1. Register schemas through the CN so DDL reaches peers and replicas.
  const std::vector<TableSchema> schemas = {
      WarehouseSchema(), DistrictSchema(),  CustomerSchema(), HistorySchema(),
      OrdersSchema(),    NewOrderSchema(),  OrderLineSchema(), ItemSchema(),
      StockSchema(),     OrdersCustIdxSchema()};
  Status ddl_status = Status::OK();
  bool ddl_done = false;
  auto create_all = [](CoordinatorNode* cn,
                       const std::vector<TableSchema>* schemas, Status* out,
                       bool* done) -> sim::Task<void> {
    for (const TableSchema& schema : *schemas) {
      Status s = co_await cn->CreateTable(schema);
      if (!s.ok()) {
        *out = s;
        break;
      }
    }
    *done = true;
  };
  sim->Spawn(create_all(&cn, &schemas, &ddl_status, &ddl_done));
  while (!ddl_done) sim->RunFor(10 * kMillisecond);
  GDB_RETURN_IF_ERROR(ddl_status);

  // 2. Bulk-load directly into primaries and replicas (load time is outside
  // every measurement window).
  BulkLoader loader(cluster_);
  const TableSchema& item = loader.Table("item");
  const TableSchema& warehouse = loader.Table("warehouse");
  const TableSchema& stock = loader.Table("stock");
  const TableSchema& district = loader.Table("district");
  const TableSchema& customer = loader.Table("customer");
  const TableSchema& orders = loader.Table("orders");
  const TableSchema& orders_cust_idx = loader.Table("orders_cust_idx");
  const TableSchema& new_order = loader.Table("new_order");
  const TableSchema& order_line = loader.Table("order_line");

  for (int64_t i = 1; i <= config_.items; ++i) {
    loader.Add(item,
               {i, "item_" + std::to_string(i),
                static_cast<double>(rng_.UniformRange(100, 10000)) / 100.0});
  }
  for (int64_t w = 1; w <= config_.num_warehouses; ++w) {
    loader.Add(warehouse, {w, "warehouse_" + std::to_string(w), 0.0});
    for (int64_t i = 1; i <= config_.items; ++i) {
      loader.Add(stock, {w, i, rng_.UniformRange(10, 100), 0.0, int64_t{0}});
    }
    for (int64_t d = 1; d <= config_.districts_per_warehouse; ++d) {
      const int64_t next_o_id = config_.initial_orders_per_district + 1;
      loader.Add(district, {w, d, "district", 0.0, next_o_id});
      for (int64_t c = 1; c <= config_.customers_per_district; ++c) {
        loader.Add(customer, {w, d, c, rng_.AlphaString(8, 16), -10.0, 10.0,
                              int64_t{1}});
      }
      for (int64_t o = 1; o <= config_.initial_orders_per_district; ++o) {
        const int64_t c_id =
            rng_.UniformRange(1, config_.customers_per_district);
        const int64_t ol_cnt = rng_.UniformRange(5, 15);
        loader.Add(orders, {w, d, o, c_id, ol_cnt, int64_t{0}});
        loader.Add(orders_cust_idx, {w, d, c_id, o});
        if (o > config_.initial_orders_per_district - 3) {
          loader.Add(new_order, {w, d, o});
        }
        for (int64_t ol = 1; ol <= ol_cnt; ++ol) {
          loader.Add(order_line, {w, d, o, ol,
                                  rng_.UniformRange(1, config_.items), w,
                                  int64_t{5}, 50.0});
        }
      }
    }
  }
  return loader.Finish();
}

TxnFn TpccWorkload::MixFn() {
  return [this](CoordinatorNode* cn, Rng* rng) -> sim::Task<TxnResult> {
    if (config_.read_only_mix) {
      // Section V-B read-only benchmark: Order-status + Stock-level only.
      if (rng->Bernoulli(0.5)) return OrderStatus(cn, rng);
      return StockLevel(cn, rng);
    }
    const int total = config_.weight_neworder + config_.weight_payment +
                      config_.weight_orderstatus + config_.weight_delivery +
                      config_.weight_stocklevel;
    int pick = static_cast<int>(rng->Uniform(total));
    if ((pick -= config_.weight_neworder) < 0) return NewOrder(cn, rng);
    if ((pick -= config_.weight_payment) < 0) return Payment(cn, rng);
    if ((pick -= config_.weight_orderstatus) < 0) return OrderStatus(cn, rng);
    if ((pick -= config_.weight_delivery) < 0) return Delivery(cn, rng);
    return StockLevel(cn, rng);
  };
}

sim::Task<TxnResult> TpccWorkload::NewOrder(CoordinatorNode* cn, Rng* rng) {
  TxnResult result;
  result.kind = "neworder";
  const int64_t w = PickWarehouse(cn, rng);
  const int64_t d = rng->UniformRange(1, config_.districts_per_warehouse);
  const int64_t c = rng->NuRand(1023, 1, config_.customers_per_district, 7);
  const int64_t ol_cnt = rng->UniformRange(5, 15);

  auto txn_or = co_await cn->Begin();
  if (!txn_or.ok()) {
    result.status = txn_or.status();
    co_return result;
  }
  TxnHandle txn = *txn_or;

  // All per-line parameters are drawn up front so the independent reads —
  // warehouse, customer, every item, every stock row (locked) — fan out as
  // ONE MultiGet: the read cost of the whole transaction is one WAN round
  // trip to the slowest shard instead of 2 + 2*ol_cnt serial trips
  // (DESIGN.md §11).
  struct LineInfo {
    int64_t i_id, supply_w, qty;
    double amount;
  };
  std::vector<LineInfo> lines;
  std::vector<MultiGetKey> read_set;
  read_set.push_back({"warehouse", {w}, false});
  read_set.push_back({"customer", {w, d, c}, false});
  for (int64_t ol = 1; ol <= ol_cnt; ++ol) {
    const int64_t i_id = rng->NuRand(8191, 1, config_.items, 13);
    int64_t supply_w = w;
    // ~1% remote supply warehouse per line (TPC-C clause 2.4.1.5); stays
    // in-region under the paper's physical-affinity assumption.
    if (config_.num_warehouses > 1 && rng->Bernoulli(0.01)) {
      supply_w = PickOtherShardWarehouse(w, rng, /*same_region=*/true);
    }
    const int64_t qty = rng->UniformRange(1, 10);
    lines.push_back({i_id, supply_w, qty, 0.0});
    read_set.push_back({"item", {i_id}, false});
    read_set.push_back({"stock", {supply_w, i_id}, true});
  }
  auto rows = co_await cn->MultiGet(&txn, std::move(read_set));
  if (!rows.ok()) GDB_TXN_FAIL(rows.status());
  if (!(*rows)[1].has_value()) GDB_TXN_FAIL(Status::NotFound("customer"));

  // Stock read-modify-writes first: the hot district lock is taken as late
  // as possible to keep its hold time short. An order may name the same
  // (warehouse, item) twice; the deltas accumulate on one row image, just
  // as serial re-reads of the locked row would observe them.
  std::map<std::pair<int64_t, int64_t>, Row> stock_rows;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::optional<Row>& item = (*rows)[2 + 2 * i];
    if (!item.has_value()) GDB_TXN_FAIL(Status::NotFound("item"));
    lines[i].amount = std::get<double>((*item)[2]) * lines[i].qty;

    const std::optional<Row>& stock = (*rows)[3 + 2 * i];
    if (!stock.has_value()) GDB_TXN_FAIL(Status::NotFound("stock"));
    auto [it, inserted] = stock_rows.try_emplace(
        {lines[i].supply_w, lines[i].i_id}, *stock);
    Row& stock_row = it->second;
    const int64_t qty = lines[i].qty;
    int64_t& s_qty = std::get<int64_t>(stock_row[2]);
    s_qty = s_qty >= qty + 10 ? s_qty - qty : s_qty - qty + 91;
    std::get<double>(stock_row[3]) += qty;
    std::get<int64_t>(stock_row[4]) += 1;
    Status stock_update = co_await cn->Update(&txn, "stock", stock_row);
    if (!stock_update.ok()) GDB_TXN_FAIL(std::move(stock_update));
  }

  // District read-modify-write allocates the order id (the classic
  // contention point).
  Row d_key = {w, d};
  auto district = co_await cn->GetForUpdate(&txn, "district", d_key);
  if (!district.ok() || !district->has_value()) {
    GDB_TXN_FAIL(!district.ok() ? district.status()
                                : Status::NotFound("district"));
  }
  Row district_row = **district;
  const int64_t o_id = std::get<int64_t>(district_row[4]);
  std::get<int64_t>(district_row[4]) = o_id + 1;
  Status s = co_await cn->Update(&txn, "district", district_row);
  if (!s.ok()) GDB_TXN_FAIL(std::move(s));

  // Insert order header, new-order marker, and the lines.
  Row order_row = {w, d, o_id, c, ol_cnt, int64_t{0}};
  s = co_await cn->Insert(&txn, "orders", order_row);
  if (!s.ok()) GDB_TXN_FAIL(std::move(s));
  Row neworder_row = {w, d, o_id};
  s = co_await cn->Insert(&txn, "new_order", neworder_row);
  if (!s.ok()) GDB_TXN_FAIL(std::move(s));
  // Secondary-index maintenance rides in the same buffered batch as the
  // order header (same shard), so it adds no round trip.
  Row idx_row = {w, d, c, o_id};
  s = co_await cn->Insert(&txn, "orders_cust_idx", idx_row);
  if (!s.ok()) GDB_TXN_FAIL(std::move(s));
  for (size_t i = 0; i < lines.size(); ++i) {
    Row line = {w, d, o_id, static_cast<int64_t>(i + 1), lines[i].i_id,
                lines[i].supply_w, lines[i].qty, lines[i].amount};
    s = co_await cn->Insert(&txn, "order_line", line);
    if (!s.ok()) GDB_TXN_FAIL(std::move(s));
  }

  result.status = co_await cn->Commit(&txn);
  co_return result;
}

sim::Task<TxnResult> TpccWorkload::Payment(CoordinatorNode* cn, Rng* rng) {
  TxnResult result;
  result.kind = "payment";
  const int64_t w = PickWarehouse(cn, rng);
  const int64_t d = rng->UniformRange(1, config_.districts_per_warehouse);
  // 15% remote customer (TPC-C clause 2.5.1.2); in-region under the
  // paper's physical-affinity assumption.
  int64_t c_w = w;
  if (config_.num_warehouses > 1 && rng->Bernoulli(0.15)) {
    c_w = PickOtherShardWarehouse(w, rng, /*same_region=*/true);
  }
  const int64_t c = rng->NuRand(1023, 1, config_.customers_per_district, 7);
  const double amount = rng->UniformRange(100, 500000) / 100.0;

  auto txn_or = co_await cn->Begin();
  if (!txn_or.ok()) {
    result.status = txn_or.status();
    co_return result;
  }
  TxnHandle txn = *txn_or;

  // The customer, district, and warehouse lock-reads are mutually
  // independent: one MultiGet locks all three in a single fan-out (the
  // possibly-remote customer group travels in parallel with the home
  // shard's district+warehouse group) instead of three serial round trips.
  std::vector<MultiGetKey> read_set = {{"customer", {c_w, d, c}, true},
                                       {"district", {w, d}, true},
                                       {"warehouse", {w}, true}};
  auto rows = co_await cn->MultiGet(&txn, std::move(read_set));
  if (!rows.ok()) GDB_TXN_FAIL(rows.status());
  if (!(*rows)[0].has_value()) GDB_TXN_FAIL(Status::NotFound("customer"));
  if (!(*rows)[1].has_value()) GDB_TXN_FAIL(Status::NotFound("district"));
  if (!(*rows)[2].has_value()) GDB_TXN_FAIL(Status::NotFound("warehouse"));

  Row customer_row = *(*rows)[0];
  std::get<double>(customer_row[4]) -= amount;
  std::get<double>(customer_row[5]) += amount;
  std::get<int64_t>(customer_row[6]) += 1;
  Status s = co_await cn->Update(&txn, "customer", customer_row);
  if (!s.ok()) GDB_TXN_FAIL(std::move(s));

  Row history_row = {c_w, d, c, static_cast<int64_t>(rng->Next() >> 1),
                     amount};
  s = co_await cn->Insert(&txn, "history", history_row);
  if (!s.ok()) GDB_TXN_FAIL(std::move(s));

  Row district_row = *(*rows)[1];
  std::get<double>(district_row[3]) += amount;
  s = co_await cn->Update(&txn, "district", district_row);
  if (!s.ok()) GDB_TXN_FAIL(std::move(s));

  Row warehouse_row = *(*rows)[2];
  std::get<double>(warehouse_row[2]) += amount;
  s = co_await cn->Update(&txn, "warehouse", warehouse_row);
  if (!s.ok()) GDB_TXN_FAIL(std::move(s));

  result.status = co_await cn->Commit(&txn);
  co_return result;
}

sim::Task<TxnResult> TpccWorkload::OrderStatus(CoordinatorNode* cn, Rng* rng) {
  TxnResult result;
  result.kind = "orderstatus";
  const int64_t w = PickWarehouse(cn, rng);
  const int64_t d = rng->UniformRange(1, config_.districts_per_warehouse);
  const int64_t c = rng->NuRand(1023, 1, config_.customers_per_district, 7);
  const bool multi_shard =
      config_.read_only_mix &&
      rng->Bernoulli(config_.read_only_multi_shard_fraction);

  auto txn_or = co_await cn->Begin(/*read_only=*/true,
                                   /*single_shard=*/!multi_shard);
  if (!txn_or.ok()) {
    result.status = txn_or.status();
    co_return result;
  }
  TxnHandle txn = *txn_or;

  // ONE round trip for the whole profile: the customer row, the
  // customer's latest order (a reverse limit-1 scan of orders_cust_idx
  // with a server-side prefix join pulling that order's lines), and —
  // when multi-shard — a remote warehouse's customer all travel in one
  // ScanBatch. The reverse index scan finds the latest order without a
  // dependent read of the district's next order id.
  std::vector<ScanSpec> specs(multi_shard ? 3 : 2);
  auto [c_start, c_end] = PrefixRange({w, d, c});
  specs[0].table = "customer";
  specs[0].start = c_start;
  specs[0].end = c_end;
  specs[0].limit = 1;
  specs[0].route = Value(w);
  auto [i_start, i_end] = PrefixRange({w, d, c});
  specs[1].table = "orders_cust_idx";
  specs[1].start = i_start;
  specs[1].end = i_end;
  specs[1].limit = 1;
  specs[1].reverse = true;
  specs[1].route = Value(w);
  specs[1].join_table = "order_line";
  specs[1].join_key_cols = {0, 1, 3};  // (w, d, o_id) prefix
  specs[1].join_prefix = true;
  specs[1].join_limit = 100;
  if (multi_shard) {
    const int64_t other = PickOtherShardWarehouse(w, rng);
    auto [r_start, r_end] = PrefixRange({other, d, c});
    specs[2].table = "customer";
    specs[2].start = r_start;
    specs[2].end = r_end;
    specs[2].limit = 1;
    specs[2].route = Value(other);
  }
  auto batch = co_await cn->ScanBatch(&txn, std::move(specs));
  if (!batch.ok()) {
    result.status = batch.status();
    (void)co_await cn->Abort(&txn);
    co_return result;
  }
  if ((*batch)[0].rows.empty()) {
    result.status = Status::NotFound("customer");
    (void)co_await cn->Abort(&txn);
    co_return result;
  }
  // (*batch)[1].joined holds the latest order's lines (possibly empty
  // for a customer who never ordered).
  result.status = Status::OK();
  (void)co_await cn->Abort(&txn);
  co_return result;
}

sim::Task<TxnResult> TpccWorkload::Delivery(CoordinatorNode* cn, Rng* rng) {
  TxnResult result;
  result.kind = "delivery";
  const int64_t w = PickWarehouse(cn, rng);
  const int64_t carrier = rng->UniformRange(1, 10);

  auto txn_or = co_await cn->Begin();
  if (!txn_or.ok()) {
    result.status = txn_or.status();
    co_return result;
  }
  TxnHandle txn = *txn_or;

  // Four fan-outs, however many districts have pending orders:
  //   1. ONE ScanBatch finds the oldest undelivered order of all 10
  //      districts concurrently (limit-1 pushdown: each shard returns one
  //      row per district, not the whole new_order backlog).
  //   2. ONE MultiGet lock-reads every matched order header.
  //   3. ONE ScanBatch fetches all matched orders' lines (limit 20 each).
  //   4. ONE MultiGet lock-reads every matched customer.
  // All writes stay in the buffered batch pipeline.
  const Value w_route = Value(w);
  std::vector<ScanSpec> finds(config_.districts_per_warehouse);
  for (int64_t d = 1; d <= config_.districts_per_warehouse; ++d) {
    ScanSpec& spec = finds[d - 1];
    auto [start, end] = PrefixRange({w, d});
    spec.table = "new_order";
    spec.start = start;
    spec.end = end;
    spec.limit = 1;
    spec.route = w_route;
  }
  auto found = co_await cn->ScanBatch(&txn, std::move(finds));
  if (!found.ok()) GDB_TXN_FAIL(found.status());

  struct Matched {
    int64_t d, o_id;
    int64_t c_id = 0;
    Row order_row = {};
    double total = 0;
  };
  std::vector<Matched> matched;
  for (int64_t d = 1; d <= config_.districts_per_warehouse; ++d) {
    const ScanResult& res = (*found)[d - 1];
    if (res.rows.empty()) continue;
    matched.push_back({d, std::get<int64_t>(res.rows[0][2])});
  }
  if (matched.empty()) {
    result.status = co_await cn->Commit(&txn);
    co_return result;
  }

  std::vector<MultiGetKey> order_keys;
  order_keys.reserve(matched.size());
  for (const Matched& m : matched) {
    Row no_key = {w, m.d, m.o_id};
    Status s = co_await cn->Delete(&txn, "new_order", no_key);
    if (!s.ok()) GDB_TXN_FAIL(std::move(s));
    order_keys.push_back({"orders", {w, m.d, m.o_id}, true});
  }
  auto orders = co_await cn->MultiGet(&txn, std::move(order_keys));
  if (!orders.ok()) GDB_TXN_FAIL(orders.status());
  std::vector<ScanSpec> line_specs(matched.size());
  for (size_t i = 0; i < matched.size(); ++i) {
    if (!(*orders)[i].has_value()) GDB_TXN_FAIL(Status::NotFound("order"));
    matched[i].order_row = *(*orders)[i];
    std::get<int64_t>(matched[i].order_row[5]) = carrier;
    matched[i].c_id = std::get<int64_t>(matched[i].order_row[3]);
    Status s = co_await cn->Update(&txn, "orders", matched[i].order_row);
    if (!s.ok()) GDB_TXN_FAIL(std::move(s));
    ScanSpec& spec = line_specs[i];
    auto [start, end] = PrefixRange({w, matched[i].d, matched[i].o_id});
    spec.table = "order_line";
    spec.start = start;
    spec.end = end;
    spec.limit = 20;
    spec.route = w_route;
  }
  auto lines = co_await cn->ScanBatch(&txn, std::move(line_specs));
  if (!lines.ok()) GDB_TXN_FAIL(lines.status());
  std::vector<MultiGetKey> customer_keys;
  customer_keys.reserve(matched.size());
  for (size_t i = 0; i < matched.size(); ++i) {
    for (const Row& line : (*lines)[i].rows) {
      matched[i].total += std::get<double>(line[7]);
    }
    customer_keys.push_back(
        {"customer", {w, matched[i].d, matched[i].c_id}, true});
  }
  auto customers = co_await cn->MultiGet(&txn, std::move(customer_keys));
  if (!customers.ok()) GDB_TXN_FAIL(customers.status());
  for (size_t i = 0; i < matched.size(); ++i) {
    if (!(*customers)[i].has_value()) {
      GDB_TXN_FAIL(Status::NotFound("customer"));
    }
    Row customer_row = *(*customers)[i];
    std::get<double>(customer_row[4]) += matched[i].total;
    Status s = co_await cn->Update(&txn, "customer", customer_row);
    if (!s.ok()) GDB_TXN_FAIL(std::move(s));
  }
  result.status = co_await cn->Commit(&txn);
  co_return result;
}

sim::Task<TxnResult> TpccWorkload::StockLevel(CoordinatorNode* cn, Rng* rng) {
  TxnResult result;
  result.kind = "stocklevel";
  const int64_t w = PickWarehouse(cn, rng);
  const int64_t d = rng->UniformRange(1, config_.districts_per_warehouse);
  const int64_t threshold = rng->UniformRange(10, 20);
  const bool multi_shard =
      config_.read_only_mix &&
      rng->Bernoulli(config_.read_only_multi_shard_fraction);

  auto txn_or = co_await cn->Begin(/*read_only=*/true,
                                   /*single_shard=*/!multi_shard);
  if (!txn_or.ok()) {
    result.status = txn_or.status();
    co_return result;
  }
  TxnHandle txn = *txn_or;

  // ONE round trip: a reverse limit-400 scan over the district's order
  // lines IS "the lines of the most recent orders" — no district read
  // needed to find d_next_o_id — and the server-side point join into stock
  // fetches each distinct item's stock row on the same shard in the same
  // reply.
  ScanSpec spec;
  auto [start, end] = PrefixRange({w, d});
  spec.table = "order_line";
  spec.start = start;
  spec.end = end;
  spec.limit = 400;
  spec.reverse = true;
  spec.route = Value(w);
  spec.join_table = "stock";
  EncodeKeyPart(Value(w), &spec.join_key_prefix);
  spec.join_key_cols = {4};  // ol_i_id
  std::vector<ScanSpec> specs;
  specs.push_back(std::move(spec));
  auto batch = co_await cn->ScanBatch(&txn, std::move(specs));
  if (!batch.ok()) {
    result.status = batch.status();
    (void)co_await cn->Abort(&txn);
    co_return result;
  }
  int64_t low = 0;
  for (const Row& stock : (*batch)[0].joined) {
    if (std::get<int64_t>(stock[2]) < threshold) ++low;
  }
  if (multi_shard) {
    // Touch a second shard: re-check up to 10 of the items against a
    // remote supply warehouse's stock.
    std::vector<int64_t> items;
    for (const Row& line : (*batch)[0].rows) {
      items.push_back(std::get<int64_t>(line[4]));
    }
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    if (items.size() > 10) items.resize(10);
    std::vector<MultiGetKey> stock_keys;
    stock_keys.reserve(items.size());
    for (int64_t i_id : items) {
      stock_keys.push_back(
          {"stock", {PickOtherShardWarehouse(w, rng), i_id}, false});
    }
    auto stocks = co_await cn->MultiGet(&txn, std::move(stock_keys));
    if (!stocks.ok()) {
      result.status = stocks.status();
      (void)co_await cn->Abort(&txn);
      co_return result;
    }
    for (const std::optional<Row>& stock : *stocks) {
      if (stock.has_value() &&
          std::get<int64_t>((*stock)[2]) < threshold) {
        ++low;
      }
    }
  }
  (void)low;
  result.status = Status::OK();
  (void)co_await cn->Abort(&txn);
  co_return result;
}

}  // namespace globaldb
