#ifndef GLOBALDB_SRC_STORAGE_SNAPSHOT_H_
#define GLOBALDB_SRC_STORAGE_SNAPSHOT_H_

#include <string>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/storage/catalog.h"
#include "src/storage/shard_store.h"

namespace globaldb {

/// A checkpoint of one shard: the full MVCC state (including provisional
/// versions of in-flight transactions) plus the catalog, taken atomically
/// with the kCheckpoint redo record at `checkpoint_lsn`. A replica that
/// installs the images and then replays the log from checkpoint_lsn + 1
/// reaches exactly the primary's state. The store image is not encoded at
/// the checkpoint: the store is frozen then, and `store->FrozenImage()`
/// builds the image when a replica first needs it.
struct ShardSnapshot {
  Lsn checkpoint_lsn = kInvalidLsn;
  /// Vacuum horizon the checkpoint was taken at (version chains below it
  /// were pruned before the store was frozen).
  Timestamp checkpoint_ts = 0;
  /// Largest commit timestamp replayed into the image; seeds the
  /// installer's max-commit-timestamp (RCP input).
  Timestamp max_commit_ts = 0;
  std::string catalog_image;
  /// The store, frozen at checkpoint_lsn (ShardStore::Freeze).
  ShardStore* store = nullptr;

  bool valid() const { return checkpoint_lsn != kInvalidLsn; }
};

/// Serializes every table's version chains, keyed by table id. The image a
/// promotion transfers, and the reference a frozen image must equal.
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
