#include "src/workload/bulk_load.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/storage/snapshot.h"

namespace globaldb {

namespace {

constexpr TxnId kLoadTxn = 1;
constexpr Timestamp kLoadTs = 1;

}  // namespace

BulkLoader::BulkLoader(Cluster* cluster)
    : cluster_(cluster),
      num_shards_(static_cast<uint32_t>(cluster->num_shards())) {}

const TableSchema& BulkLoader::Table(const std::string& name) const {
  const TableSchema* schema = cluster_->cn(0).catalog().FindTable(name);
  GDB_CHECK(schema != nullptr) << "bulk load: no table " << name;
  return *schema;
}

void BulkLoader::Add(const TableSchema& table, const Row& row) {
  std::vector<Run>& runs = runs_[table.id];
  if (runs.empty()) runs.resize(num_shards_);
  RowKey key = table.PrimaryKeyOf(row);
  std::string value;
  EncodeRow(row, &value);
  if (table.distribution == DistributionKind::kReplicated) {
    for (Run& run : runs) run.emplace_back(key, value);
    return;
  }
  runs[RouteRowToShard(table, row, num_shards_)].emplace_back(
      std::move(key), std::move(value));
}

Status BulkLoader::Finish() {
  const auto key_less = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  for (ShardId shard = 0; shard < num_shards_; ++shard) {
    ShardStore& store = cluster_->data_node(shard).store();
    bool loaded = false;
    for (auto& [id, runs] : runs_) {
      Run& run = runs[shard];
      if (run.empty()) continue;
      if (!std::is_sorted(run.begin(), run.end(), key_less)) {
        std::sort(run.begin(), run.end(), key_less);
      }
      GDB_RETURN_IF_ERROR(store.GetOrCreateTable(id)->LoadCommitted(
          std::move(run), kLoadTxn, kLoadTs));
      loaded = true;
    }
    if (!loaded) continue;
    const std::string image = EncodeShardStore(store);
    for (ReplicaNode* replica : cluster_->replicas_of(shard)) {
      GDB_RETURN_IF_ERROR(InstallShardStore(Slice(image), &replica->store()));
    }
  }
  runs_.clear();
  return Status::OK();
}

}  // namespace globaldb
