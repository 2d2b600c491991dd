#ifndef GLOBALDB_SRC_STORAGE_SHARD_STORE_H_
#define GLOBALDB_SRC_STORAGE_SHARD_STORE_H_

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/storage/mvcc_table.h"

namespace globaldb {

/// The collection of MVCC tables hosted by one data-node shard (primary or
/// replica). Commit/abort fan out to every table the transaction touched.
class ShardStore {
 public:
  explicit ShardStore(ShardId shard) : shard_(shard) {}

  ShardStore(const ShardStore&) = delete;
  ShardStore& operator=(const ShardStore&) = delete;

  ShardId shard() const { return shard_; }

  MvccTable* GetOrCreateTable(TableId id) {
    auto it = tables_.find(id);
    if (it == tables_.end()) {
      it = tables_.emplace(id, std::make_unique<MvccTable>(id)).first;
    }
    return it->second.get();
  }

  MvccTable* GetTable(TableId id) const {
    auto it = tables_.find(id);
    return it == tables_.end() ? nullptr : it->second.get();
  }

  void DropTable(TableId id) { tables_.erase(id); }

  void CommitTxn(TxnId txn, Timestamp ts) {
    for (auto& [id, table] : tables_) {
      if (table->HasTxn(txn)) table->CommitTxn(txn, ts);
    }
  }

  void AbortTxn(TxnId txn) {
    for (auto& [id, table] : tables_) {
      if (table->HasTxn(txn)) table->AbortTxn(txn);
    }
  }

  size_t NumTables() const { return tables_.size(); }

  size_t Vacuum(Timestamp horizon) {
    size_t reclaimed = 0;
    for (auto& [id, table] : tables_) reclaimed += table->Vacuum(horizon);
    return reclaimed;
  }

  /// Total live versions across all tables (the `storage.versions_live`
  /// gauge the soak bench asserts stays bounded).
  size_t VersionCount() const {
    size_t total = 0;
    for (const auto& [id, table] : tables_) total += table->VersionCount();
    return total;
  }

  /// Total distinct row chains across all tables. VersionCount() minus this
  /// is the reclaimable-garbage gauge (superseded versions + provisional
  /// writes) the durability soak bench asserts stays bounded.
  size_t KeyCount() const {
    size_t total = 0;
    for (const auto& [id, table] : tables_) total += table->KeyCount();
    return total;
  }

  /// Transactions with unresolved provisional state anywhere in the shard.
  std::vector<TxnId> ProvisionalTxns() const {
    std::vector<TxnId> out;
    for (const auto& [id, table] : tables_) {
      for (TxnId txn : table->ProvisionalTxns()) out.push_back(txn);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  /// Swaps in a complete set of tables (a decoded snapshot image),
  /// dropping the old ones.
  void ReplaceTables(std::map<TableId, std::unique_ptr<MvccTable>> tables) {
    tables_ = std::move(tables);
  }

  const std::map<TableId, std::unique_ptr<MvccTable>>& tables() const {
    return tables_;
  }

 private:
  ShardId shard_;
  std::map<TableId, std::unique_ptr<MvccTable>> tables_;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_STORAGE_SHARD_STORE_H_
