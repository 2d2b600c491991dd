#ifndef GLOBALDB_SRC_LOG_REDO_RECORD_H_
#define GLOBALDB_SRC_LOG_REDO_RECORD_H_

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace globaldb {

/// Redo log record types (Section IV-A of the paper).
///
/// PENDING_COMMIT is the paper's safeguard for out-of-order commit records:
/// it is written at the primary *before* the transaction obtains its commit
/// timestamp, and locks the associated tuples on the replica until a COMMIT
/// or ABORT for the same transaction is replayed. PREPARE plays the same
/// role for two-phase commit (visibility blocked until COMMIT_PREPARED /
/// ABORT_PREPARED).
enum class RedoType : uint8_t {
  kInsert = 1,
  kUpdate = 2,
  kDelete = 3,
  kPendingCommit = 4,
  kCommit = 5,
  kAbort = 6,
  kPrepare = 7,
  kCommitPrepared = 8,
  kAbortPrepared = 9,
  kHeartbeat = 10,  // advances replica max-commit-timestamp on idle shards
  kDdl = 11,        // schema change; payload carries the catalog mutation
  kCheckpoint = 12,
};

/// One redo record. Data records (INSERT/UPDATE/DELETE) carry the table,
/// key, and new tuple image; control records carry the transaction id and,
/// for commits and heartbeats, the commit timestamp.
///
/// A record is a view: `key` and `value` point at bytes someone else owns,
/// the primary's write (LogStream::Append encodes it at once) or a received
/// batch (LogStream::DecodeBatch).
struct RedoRecord {
  RedoType type = RedoType::kHeartbeat;
  TxnId txn_id = kInvalidTxnId;
  Timestamp timestamp = kInvalidTimestamp;
  TableId table_id = kInvalidTableId;
  Slice key;
  Slice value;
  Lsn lsn = kInvalidLsn;  // assigned by LogStream::Append

  /// Wire order of the fields; rpc::EncodeTo / rpc::EncodedSize encode a
  /// record (src/rpc/fields.h).
  static void Fields(auto& self, auto&& visit) {
    visit(self.type, self.lsn, self.txn_id, self.timestamp, self.table_id,
          self.key, self.value);
  }
  /// Consumes one record from *input, rejecting an unknown record type. The
  /// record's key and value view *input's bytes.
  static Status DecodeFrom(Slice* input, RedoRecord* out);

  // Convenience constructors.
  static RedoRecord Insert(TxnId txn, TableId table, Slice key, Slice value);
  static RedoRecord Update(TxnId txn, TableId table, Slice key, Slice value);
  static RedoRecord Delete(TxnId txn, TableId table, Slice key);
  static RedoRecord PendingCommit(TxnId txn);
  static RedoRecord Commit(TxnId txn, Timestamp ts);
  static RedoRecord Abort(TxnId txn);
  static RedoRecord Prepare(TxnId txn);
  /// PREPARE carrying the transaction's participant shard list in `value`,
  /// which the caller has encoded as rpc::Encode(shards) (a varint count,
  /// then varint shard ids). A promoted primary that finds the prepare
  /// in-doubt decodes it to know which peer shards to query for the durable
  /// decision (DESIGN.md §13).
  static RedoRecord Prepare(TxnId txn, Slice participants);
  static RedoRecord CommitPrepared(TxnId txn, Timestamp ts);
  static RedoRecord AbortPrepared(TxnId txn);
  static RedoRecord Heartbeat(Timestamp ts);
  static RedoRecord Ddl(Timestamp ts, Slice payload);
  /// Marks a checkpoint: everything below this record's LSN is captured in a
  /// snapshot; `ts` is the vacuum horizon the checkpoint was taken at
  /// (replicas vacuum their version chains at the same horizon on replay).
  static RedoRecord Checkpoint(Timestamp ts);
};

bool operator==(const RedoRecord& a, const RedoRecord& b);

}  // namespace globaldb

#endif  // GLOBALDB_SRC_LOG_REDO_RECORD_H_
