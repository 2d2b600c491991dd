#ifndef GLOBALDB_SRC_WORKLOAD_SYSBENCH_H_
#define GLOBALDB_SRC_WORKLOAD_SYSBENCH_H_

#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/workload/driver.h"

namespace globaldb {

/// Sysbench-style workload (Section V: 250 tables x 25000 rows, 600
/// threads; scaled down by default).
struct SysbenchConfig {
  int num_tables = 10;     // full scale: 250
  int rows_per_table = 1000;  // full scale: 25000
  /// Fraction of point selects that target a tuple whose primary is remote
  /// from the client's CN (the paper's Point Select run fetches 2/3 of
  /// tuples from a remote node).
  double remote_fraction = 2.0 / 3.0;
  /// For the read-write mix: selects and updates per transaction.
  int point_selects_per_txn = 10;
  int updates_per_txn = 4;
  /// For the range-select transaction: ranges per transaction and rows per
  /// range (sysbench oltp simple ranges).
  int ranges_per_txn = 4;
  int range_size = 100;
};

class SysbenchWorkload {
 public:
  SysbenchWorkload(Cluster* cluster, SysbenchConfig config,
                   uint64_t seed = 4242);

  /// Creates and bulk-loads the sbtest tables.
  Status Setup();

  /// Single point select per transaction (read-only).
  TxnFn PointSelectFn();
  /// Classic oltp_read_write transaction.
  TxnFn ReadWriteFn();
  /// Read-only range queries: ranges_per_txn scans of range_size rows each.
  /// The sbtest tables are hash-distributed by id, so every range spans all
  /// shards: the CN fans the whole set out as one ScanBatch, one round trip,
  /// and k-way-merges the per-shard cursors.
  TxnFn RangeSelectFn();

  sim::Task<TxnResult> PointSelect(CoordinatorNode* cn, Rng* rng);
  sim::Task<TxnResult> ReadWrite(CoordinatorNode* cn, Rng* rng);
  sim::Task<TxnResult> RangeSelect(CoordinatorNode* cn, Rng* rng);

 private:
  std::string TableName(int i) const {
    return "sbtest" + std::to_string(i + 1);
  }
  /// Picks a row id honoring the remote fraction relative to `cn`.
  int64_t PickRowId(CoordinatorNode* cn, Rng* rng) const;
  bool RowIsLocal(CoordinatorNode* cn, int64_t id) const;

  Cluster* cluster_;
  SysbenchConfig config_;
  Rng rng_;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_WORKLOAD_SYSBENCH_H_
