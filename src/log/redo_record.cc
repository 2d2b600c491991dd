#include "src/log/redo_record.h"

#include "src/rpc/fields.h"

namespace globaldb {

Status RedoRecord::DecodeFrom(Slice* input, RedoRecord* out) {
  if (!rpc::DecodeFrom(input, out)) {
    return Status::Corruption("redo: truncated record");
  }
  if (out->type < RedoType::kInsert || out->type > RedoType::kCheckpoint) {
    return Status::Corruption("redo: bad record type");
  }
  return Status::OK();
}

RedoRecord RedoRecord::Insert(TxnId txn, TableId table, Slice key,
                              Slice value) {
  RedoRecord r;
  r.type = RedoType::kInsert;
  r.txn_id = txn;
  r.table_id = table;
  r.key = key;
  r.value = value;
  return r;
}

RedoRecord RedoRecord::Update(TxnId txn, TableId table, Slice key,
                              Slice value) {
  RedoRecord r = Insert(txn, table, key, value);
  r.type = RedoType::kUpdate;
  return r;
}

RedoRecord RedoRecord::Delete(TxnId txn, TableId table, Slice key) {
  RedoRecord r;
  r.type = RedoType::kDelete;
  r.txn_id = txn;
  r.table_id = table;
  r.key = key;
  return r;
}

RedoRecord RedoRecord::PendingCommit(TxnId txn) {
  RedoRecord r;
  r.type = RedoType::kPendingCommit;
  r.txn_id = txn;
  return r;
}

RedoRecord RedoRecord::Commit(TxnId txn, Timestamp ts) {
  RedoRecord r;
  r.type = RedoType::kCommit;
  r.txn_id = txn;
  r.timestamp = ts;
  return r;
}

RedoRecord RedoRecord::Abort(TxnId txn) {
  RedoRecord r;
  r.type = RedoType::kAbort;
  r.txn_id = txn;
  return r;
}

RedoRecord RedoRecord::Prepare(TxnId txn) {
  RedoRecord r;
  r.type = RedoType::kPrepare;
  r.txn_id = txn;
  return r;
}

RedoRecord RedoRecord::Prepare(TxnId txn, Slice participants) {
  RedoRecord r = Prepare(txn);
  r.value = participants;
  return r;
}

RedoRecord RedoRecord::CommitPrepared(TxnId txn, Timestamp ts) {
  RedoRecord r;
  r.type = RedoType::kCommitPrepared;
  r.txn_id = txn;
  r.timestamp = ts;
  return r;
}

RedoRecord RedoRecord::AbortPrepared(TxnId txn) {
  RedoRecord r;
  r.type = RedoType::kAbortPrepared;
  r.txn_id = txn;
  return r;
}

RedoRecord RedoRecord::Heartbeat(Timestamp ts) {
  RedoRecord r;
  r.type = RedoType::kHeartbeat;
  r.timestamp = ts;
  return r;
}

RedoRecord RedoRecord::Ddl(Timestamp ts, Slice payload) {
  RedoRecord r;
  r.type = RedoType::kDdl;
  r.timestamp = ts;
  r.value = payload;
  return r;
}

RedoRecord RedoRecord::Checkpoint(Timestamp ts) {
  RedoRecord r;
  r.type = RedoType::kCheckpoint;
  r.timestamp = ts;
  return r;
}

bool operator==(const RedoRecord& a, const RedoRecord& b) {
  return a.type == b.type && a.txn_id == b.txn_id &&
         a.timestamp == b.timestamp && a.table_id == b.table_id &&
         a.key == b.key && a.value == b.value && a.lsn == b.lsn;
}

}  // namespace globaldb
