#ifndef GLOBALDB_SRC_STORAGE_SHARD_STORE_H_
#define GLOBALDB_SRC_STORAGE_SHARD_STORE_H_

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
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

  /// Drops the table, ending any live freeze (its capture lives in the
  /// tables).
  void DropTable(TableId id) {
    EndCapture();
    tables_.erase(id);
  }

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

  /// Vacuums every table at `horizon` in one walk per table
  /// (MvccTable::Vacuum); `image_bytes` is the size EncodeShardStore's image
  /// of the result would have.
  MvccTable::VacuumStats Vacuum(Timestamp horizon);

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
  /// dropping the old ones and ending any live freeze.
  void ReplaceTables(std::map<TableId, std::unique_ptr<MvccTable>> tables) {
    EndCapture();
    tables_ = std::move(tables);
  }

  // --- Checkpoint freeze (DESIGN.md §12 "Checkpointer") -------------------

  /// Freezes the store as EncodeShardStore would image it now, ending the
  /// previous freeze and dropping its image. Nothing is encoded here: each
  /// non-empty table captures the pre-image of a chain on its first change.
  /// A table created later is left out of the image, and one empty now
  /// images as empty.
  void Freeze();

  /// The image frozen by the last Freeze(), byte-identical to
  /// EncodeShardStore(*this) at that moment. The first call builds it from
  /// the live tables and their pre-images and ends the capture; the image
  /// is cached until the next Freeze(). Requires a freeze that neither
  /// ReplaceTables nor DropTable has ended since.
  const std::string& FrozenImage();

  /// Bytes the last freeze holds: its pre-images until FrozenImage() builds
  /// the image, then the image.
  size_t FrozenBytes() const;

  const std::map<TableId, std::unique_ptr<MvccTable>>& tables() const {
    return tables_;
  }

 private:
  /// Thaws every frozen table; a later FrozenImage() needs a new freeze.
  void EndCapture();

  /// A table as the live freeze found it: `table` is null when it was empty
  /// (it images as empty and keeps no capture).
  struct FrozenTable {
    TableId id;
    MvccTable* table;
  };

  ShardId shard_;
  std::map<TableId, std::unique_ptr<MvccTable>> tables_;
  bool capturing_ = false;
  std::vector<FrozenTable> frozen_;  // the live freeze's tables, in id order
  std::optional<std::string> frozen_image_;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_STORAGE_SHARD_STORE_H_
