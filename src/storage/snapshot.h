#ifndef GLOBALDB_SRC_STORAGE_SNAPSHOT_H_
#define GLOBALDB_SRC_STORAGE_SNAPSHOT_H_

#include <string>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/storage/catalog.h"
#include "src/storage/shard_store.h"

namespace globaldb {

/// A checkpoint image of one shard: the full MVCC state (including
/// provisional versions of in-flight transactions) plus the catalog, taken
/// atomically with the kCheckpoint redo record at `checkpoint_lsn`. A
/// replica that installs the image and then replays the log from
/// checkpoint_lsn + 1 reaches exactly the primary's state.
struct ShardSnapshot {
  Lsn checkpoint_lsn = kInvalidLsn;
  /// Vacuum horizon the checkpoint was taken at (version chains below it
  /// were pruned before the image was cut).
  Timestamp checkpoint_ts = 0;
  /// Largest commit timestamp replayed into the image; seeds the
  /// installer's max-commit-timestamp (RCP input).
  Timestamp max_commit_ts = 0;
  std::string catalog_image;
  std::string store_image;

  bool valid() const { return checkpoint_lsn != kInvalidLsn; }
};

/// Serializes every table's version chains, keyed by table id.
std::string EncodeShardStore(const ShardStore& store);

/// Replaces `store`'s contents with the image (existing tables dropped).
/// On Corruption the store is left unchanged.
Status InstallShardStore(Slice image, ShardStore* store);

/// Serializes the catalog as (create payload, ddl timestamp) pairs.
std::string EncodeCatalog(const Catalog& catalog);

/// Replays the image's DDL payloads into `catalog` (idempotent for tables
/// the catalog already knows).
Status InstallCatalog(Slice image, Catalog* catalog);

}  // namespace globaldb

#endif  // GLOBALDB_SRC_STORAGE_SNAPSHOT_H_
