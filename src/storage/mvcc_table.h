#ifndef GLOBALDB_SRC_STORAGE_MVCC_TABLE_H_
#define GLOBALDB_SRC_STORAGE_MVCC_TABLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/storage/btree.h"

namespace globaldb {

/// One version of a tuple. A version is *provisional* while its creating
/// transaction is uncommitted (begin_ts == 0); commit stamps begin_ts.
/// A live version has end_ts == kTimestampMax; a delete/update stamps
/// end_ts at the deleting transaction's commit.
struct TupleVersion {
  Timestamp begin_ts = 0;             // 0 => provisional
  Timestamp end_ts = kTimestampMax;   // kTimestampMax => live
  TxnId created_by = kInvalidTxnId;
  TxnId ended_by = kInvalidTxnId;     // provisional delete/update marker
  std::string value;
};

/// Result of a snapshot read. `value` views the visible version inside the
/// table and stays valid until the table next changes (any write, commit,
/// abort, vacuum or image install): copy it before the next suspension point.
struct ReadResult {
  bool found = false;
  Slice value;
  /// Non-zero when the chain contains an unresolved provisional write by
  /// another transaction. Replica readers use this with the pending-commit
  /// set to implement the paper's tuple-lock wait; primary snapshot readers
  /// ignore it (provisional versions are simply invisible).
  TxnId provisional_txn = kInvalidTxnId;
};

/// A multi-versioned table shard: a B+-tree of version chains keyed by the
/// encoded primary key. The same code runs on primaries (with write-conflict
/// checks) and replicas (blind replay via the Apply* methods).
///
/// Visibility (MVCC): version v is visible at snapshot S iff
///   v.begin_ts != 0 && v.begin_ts <= S && S < v.end_ts.
/// This realizes the paper's R.1/R.2 once timestamps respect real-time
/// order (GClock commit-wait or the GTM total order).
class MvccTable {
 public:
  explicit MvccTable(TableId id) : id_(id) {}

  MvccTable(const MvccTable&) = delete;
  MvccTable& operator=(const MvccTable&) = delete;

  TableId id() const { return id_; }

  // --- Primary write path (returns conflicts) ----------------------------

  /// Fails with AlreadyExists if a live version is visible at latest.
  Status Insert(const RowKey& key, std::string value, TxnId txn);

  /// Fails with Aborted on a write-write conflict: the newest committed
  /// version is newer than `snapshot` (first-committer-wins under SI), or
  /// another transaction holds a provisional write. Fails with NotFound if
  /// no live version exists.
  Status Update(const RowKey& key, std::string value, TxnId txn,
                Timestamp snapshot);
  Status Delete(const RowKey& key, TxnId txn, Timestamp snapshot);

  // --- Bulk load --------------------------------------------------------------

  /// Loads `rows` (key, encoded row) into this empty table as versions that
  /// `txn` committed at `ts`, in one bottom-up B+-tree build: the state a
  /// per-row ApplyInsert plus CommitTxn(txn, ts) would leave, without the
  /// descents or the provisional bookkeeping. InvalidArgument, table left
  /// empty, unless the keys are strictly ascending.
  Status LoadCommitted(std::vector<std::pair<RowKey, std::string>> rows,
                       TxnId txn, Timestamp ts);

  // --- Replica replay path (no checks; log order is authoritative) -------

  void ApplyInsert(const RowKey& key, std::string value, TxnId txn);
  void ApplyUpdate(const RowKey& key, std::string value, TxnId txn);
  void ApplyDelete(const RowKey& key, TxnId txn);

  // --- Commit / abort -----------------------------------------------------

  /// Stamps all of txn's provisional versions/ends with `ts`.
  void CommitTxn(TxnId txn, Timestamp ts);
  /// Discards txn's provisional versions and clears its end markers.
  void AbortTxn(TxnId txn);
  /// True if txn has provisional state in this table.
  bool HasTxn(TxnId txn) const { return touched_.count(txn) > 0; }

  // --- Read path -----------------------------------------------------------
  //
  // Reads borrow: every key and value they return is a view into the
  // table's B+-tree and version chains, valid until the table next changes.
  // A caller that suspends (CPU charge, lock wait, pending-commit wait)
  // copies or encodes what it needs first (DESIGN.md §5).

  ReadResult Read(Slice key, Timestamp snapshot,
                  TxnId reader = kInvalidTxnId) const;

  using ScanEntry = KeyValueView;
  /// Ordered scan of [start, end) — an empty `end` means "to +inf". Collects
  /// unresolved provisional txns seen along the way into *provisional (may
  /// be null).
  std::vector<ScanEntry> Scan(Slice start, Slice end, Timestamp snapshot,
                              TxnId reader, size_t limit,
                              std::vector<TxnId>* provisional) const;

  /// Pushed-down scan options for the batched scan path (DESIGN.md §14).
  struct PagedScanOptions {
    Timestamp snapshot = 0;
    TxnId reader = kInvalidTxnId;
    size_t limit = SIZE_MAX;  // post-filter row cap
    /// Return the LAST `limit` matching rows of the range, descending by
    /// key. Requires a finite limit; reverse scans are never byte-capped
    /// (the last rows aren't known until the walk finishes).
    bool reverse = false;
    int32_t filter_col = -1;  // -1 = none; else int64 equality on column
    int64_t filter_eq = 0;
    /// Approximate reply byte budget (forward scans). The scan stops with
    /// `truncated` once emitting the next row would exceed it — but always
    /// emits at least one row so continuation makes progress.
    size_t max_bytes = SIZE_MAX;
  };
  struct PagedScanResult {
    std::vector<ScanEntry> rows;
    bool truncated = false;   // stopped on max_bytes; resume_key valid
    Slice resume_key;         // next key a resumed scan should start from
    bool limit_hit = false;   // the pushed-down limit was satisfied
    size_t rows_examined = 0; // version chains visited (CPU accounting)
    size_t rows_filtered = 0; // visible rows dropped by the filter
  };
  /// Scan with server-side filtering, limit pushdown, reverse emulation
  /// (forward walk keeping the last `limit` matches in a ring — the
  /// B+-tree links leaves forward only), and byte-capped pagination. Collects unresolved
  /// provisional txns for every examined chain, filtered or not.
  PagedScanResult ScanPaged(Slice start, Slice end,
                            const PagedScanOptions& opts,
                            std::vector<TxnId>* provisional) const;

  /// Number of distinct keys ever written (including dead ones).
  size_t KeyCount() const { return chains_.size(); }

  /// Total versions across all chains (the `storage.versions_live` gauge).
  size_t VersionCount() const;

  /// Drops versions that ended at or before `horizon` (no snapshot at or
  /// below the horizon is active). Returns versions reclaimed.
  size_t Vacuum(Timestamp horizon);

  // --- Checkpoint snapshot -------------------------------------------------

  /// Appends a binary image of every version chain (including provisional
  /// versions of in-flight transactions) to *dst.
  void EncodeTo(std::string* dst) const;

  /// Rebuilds a freshly constructed table from an EncodeTo image, restoring
  /// chains and the provisional-transaction bookkeeping (touched_) so
  /// commit/abort replay works after install. Call only on an empty table.
  /// The image's keys must be strictly ascending, as EncodeTo writes them:
  /// the tree is built bottom-up, and an out-of-order or duplicate key is
  /// Corruption (table left empty).
  Status DecodeFrom(Slice* input);

  /// Transactions with unresolved provisional state in this table. A
  /// snapshot installer uses this to rebuild the replica's pending-commit
  /// set; a promoted primary uses it to abort in-doubt transactions.
  std::vector<TxnId> ProvisionalTxns() const;

  /// Keys `txn` has provisionally written in this table (nullptr when none).
  /// A promoted primary pins these with row locks while the transaction's
  /// outcome is in doubt, so new writers queue instead of racing the
  /// resolution (DESIGN.md §13).
  const std::vector<RowKey>* TouchedKeys(TxnId txn) const {
    auto it = touched_.find(txn);
    return it == touched_.end() ? nullptr : &it->second;
  }

 private:
  struct VersionChain {
    // Oldest first; newest at the back.
    std::vector<TupleVersion> versions;
  };

  /// The one visibility walk behind Read, Scan and ScanPaged: the version
  /// of `chain` visible at `snapshot` to `reader`, or null.
  static const std::string* VisibleValue(const VersionChain& chain,
                                         Timestamp snapshot, TxnId reader,
                                         TxnId* provisional);

  VersionChain* FindChain(const RowKey& key) { return chains_.Find(key); }
  void Touch(TxnId txn, const RowKey& key) { touched_[txn].push_back(key); }

  TableId id_;
  mutable BTree<VersionChain> chains_;
  std::unordered_map<TxnId, std::vector<RowKey>> touched_;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_STORAGE_MVCC_TABLE_H_
