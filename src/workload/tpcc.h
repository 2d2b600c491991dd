#ifndef GLOBALDB_SRC_WORKLOAD_TPCC_H_
#define GLOBALDB_SRC_WORKLOAD_TPCC_H_

#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/workload/driver.h"

namespace globaldb {

/// TPC-C configuration. The paper runs 600 warehouses / 600 terminals; the
/// defaults here are scaled down so the full figure suite runs in seconds of
/// real time — scale factors do not change the *relative* results the
/// figures report.
struct TpccConfig {
  int num_warehouses = 12;
  int districts_per_warehouse = 10;
  int customers_per_district = 30;   // full scale: 3000
  int items = 1000;                  // full scale: 100000
  int initial_orders_per_district = 10;

  /// Fraction of transactions whose home warehouse is *not* served by a
  /// local (same-region) primary — the paper's physical-affinity knob
  /// (Section V-A starts at 0 and Section V-B raises it).
  double remote_warehouse_fraction = 0.0;

  /// Standard TPC-C mix weights (NewOrder, Payment, OrderStatus, Delivery,
  /// StockLevel).
  int weight_neworder = 45;
  int weight_payment = 43;
  int weight_orderstatus = 4;
  int weight_delivery = 4;
  int weight_stocklevel = 4;

  /// For the read-only variant of Section V-B: run only Order-status and
  /// Stock-level.
  bool read_only_mix = false;
  /// Fraction of read-only transactions forced to touch multiple shards
  /// (the paper uses 50%).
  double read_only_multi_shard_fraction = 0.5;
};

/// Creates the nine TPC-C tables (ITEM is replicated; everything else is
/// distributed by warehouse id) and bulk-loads the initial population
/// directly into primaries and replicas (load time is not part of any
/// measurement, so it bypasses the transaction path).
class TpccWorkload {
 public:
  TpccWorkload(Cluster* cluster, TpccConfig config, uint64_t seed = 99);

  /// Registers schemas through CN 0 (so peers and replicas learn them) and
  /// bulk-loads rows. Runs the simulator as needed.
  Status Setup();

  /// A TxnFn running the configured mix; pass to WorkloadDriver.
  TxnFn MixFn();

  const TpccConfig& config() const { return config_; }

  // Individual transaction profiles (public for targeted tests).
  sim::Task<TxnResult> NewOrder(CoordinatorNode* cn, Rng* rng);
  sim::Task<TxnResult> Payment(CoordinatorNode* cn, Rng* rng);
  sim::Task<TxnResult> OrderStatus(CoordinatorNode* cn, Rng* rng);
  sim::Task<TxnResult> Delivery(CoordinatorNode* cn, Rng* rng);
  sim::Task<TxnResult> StockLevel(CoordinatorNode* cn, Rng* rng);

 private:
  /// Picks a home warehouse for a client on `cn`, honoring the
  /// remote-warehouse fraction (physical affinity).
  int64_t PickWarehouse(CoordinatorNode* cn, Rng* rng) const;
  /// A warehouse on a different shard than `w`. When `same_region` is
  /// true, prefer one whose primary lives in the same region (the paper's
  /// "100% local transactions" keep cross-shard work inside the city).
  int64_t PickOtherShardWarehouse(int64_t w, Rng* rng,
                                  bool same_region = false) const;
  ShardId ShardOfWarehouse(int64_t w) const;
  bool WarehouseIsLocal(CoordinatorNode* cn, int64_t w) const;

  Cluster* cluster_;
  TpccConfig config_;
  Rng rng_;
  /// Routes warehouse ids to shards (built once: ShardOfWarehouse runs
  /// several times per transaction).
  TableSchema warehouse_schema_;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_WORKLOAD_TPCC_H_
