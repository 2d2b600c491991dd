#ifndef GLOBALDB_SRC_WORKLOAD_BULK_LOAD_H_
#define GLOBALDB_SRC_WORKLOAD_BULK_LOAD_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"

namespace globaldb {

/// Loads a workload's initial population straight into a started cluster's
/// storage, bypassing the transaction path (load time is outside every
/// measurement window). Add() routes each row to its shard, or to every
/// shard for a replicated table, and collects it per (shard, table).
/// Finish() builds each primary's tables bottom-up as committed by the load
/// transaction, then starts every replica from its primary's store image —
/// the install a snapshot rebuild performs (DESIGN.md §12).
class BulkLoader {
 public:
  explicit BulkLoader(Cluster* cluster);

  /// The catalog schema of table `name` (resolve once, then Add rows).
  const TableSchema& Table(const std::string& name) const;

  void Add(const TableSchema& table, const Row& row);

  Status Finish();

 private:
  using Run = std::vector<std::pair<RowKey, std::string>>;

  Cluster* cluster_;
  uint32_t num_shards_;
  std::map<TableId, std::vector<Run>> runs_;  // table -> run per shard
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_WORKLOAD_BULK_LOAD_H_
