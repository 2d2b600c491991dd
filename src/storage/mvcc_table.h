#ifndef GLOBALDB_SRC_STORAGE_MVCC_TABLE_H_
#define GLOBALDB_SRC_STORAGE_MVCC_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/storage/btree.h"
#include "src/storage/version_value.h"

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
  VersionValue value;
};

// Four stamps and a 32-byte value: a single-version chain fills 64 bytes of
// its leaf slot (DESIGN.md §12 "Row layout").
static_assert(sizeof(TupleVersion) == 64);

/// A key's versions, oldest first, newest at the back. Most rows hold one
/// version, so the chain keeps a single version inline (in the B+-tree leaf
/// slot itself) and spills every version to one heap vector only while it
/// holds two or more; erasing back down to one moves the survivor inline.
/// An inline version moves whenever its leaf shifts entries, so views of
/// its value follow the table's read rule (valid until the next write).
///
/// The chain is its 64 bytes of storage and nothing else: byte 63 is the
/// inline version's value tag, and an empty or spilled chain (whose vector
/// leaves that byte unused) stores a spare tag code there instead
/// (DESIGN.md §12 "Row layout").
class VersionChain {
 public:
  VersionChain() { set_tag(kEmpty); }
  ~VersionChain() { Clear(); }
  VersionChain(VersionChain&& other) noexcept { TakeFrom(&other); }
  VersionChain& operator=(VersionChain&& other) noexcept {
    if (this != &other) {
      Clear();
      TakeFrom(&other);
    }
    return *this;
  }
  VersionChain(const VersionChain&) = delete;
  VersionChain& operator=(const VersionChain&) = delete;

  size_t size() const {
    switch (tag()) {
      case kEmpty:
        return 0;
      case kSpilled:
        return many_.size();
      default:
        return 1;
    }
  }
  bool empty() const { return tag() == kEmpty; }
  /// True while the versions live in a heap vector.
  bool spilled() const { return tag() == kSpilled; }

  TupleVersion* begin() { return spilled() ? many_.data() : &one_; }
  TupleVersion* end() { return begin() + size(); }
  const TupleVersion* begin() const {
    return spilled() ? many_.data() : &one_;
  }
  const TupleVersion* end() const { return begin() + size(); }
  /// Newest first.
  std::reverse_iterator<TupleVersion*> rbegin() {
    return std::reverse_iterator<TupleVersion*>(end());
  }
  std::reverse_iterator<TupleVersion*> rend() {
    return std::reverse_iterator<TupleVersion*>(begin());
  }
  std::reverse_iterator<const TupleVersion*> rbegin() const {
    return std::reverse_iterator<const TupleVersion*>(end());
  }
  std::reverse_iterator<const TupleVersion*> rend() const {
    return std::reverse_iterator<const TupleVersion*>(begin());
  }

  /// Appends the newest version; invalidates pointers into the chain.
  void push_back(TupleVersion v);

  /// Removes every version matching `pred`, keeping order; a lone survivor
  /// moves back inline. Returns how many were removed.
  template <typename Pred>
  size_t EraseIf(Pred pred) {
    const size_t before = size();
    if (spilled()) {
      many_.erase(std::remove_if(many_.begin(), many_.end(), pred),
                  many_.end());
      if (many_.size() <= 1) Unspill();
    } else if (!empty()) {
      if (pred(static_cast<const TupleVersion&>(one_))) Clear();
    }
    return before - size();
  }

 private:
  // Byte 63: the inline version's value tag, or one of these spare codes.
  static constexpr size_t kTagByte =
      offsetof(TupleVersion, value) + VersionValue::kTagByte;
  static constexpr uint8_t kEmpty = VersionValue::kFirstSpareTag;
  static constexpr uint8_t kSpilled = VersionValue::kFirstSpareTag + 1;
  static_assert(sizeof(std::vector<TupleVersion>) <= kTagByte,
                "a spilled chain's vector must leave the tag byte free");

  uint8_t tag() const {
    return reinterpret_cast<const unsigned char*>(this)[kTagByte];
  }
  void set_tag(uint8_t code) {
    reinterpret_cast<unsigned char*>(this)[kTagByte] = code;
  }

  void Clear();
  void TakeFrom(VersionChain* other);
  void Unspill();

  union {
    TupleVersion one_;                 // one version, inline
    std::vector<TupleVersion> many_;   // kSpilled
  };
};

static_assert(sizeof(VersionChain) == 64);

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
  Status Insert(const RowKey& key, Slice value, TxnId txn);

  /// Fails with Aborted on a write-write conflict: the newest committed
  /// version is newer than `snapshot` (first-committer-wins under SI), or
  /// another transaction holds a provisional write. Fails with NotFound if
  /// no live version exists.
  Status Update(const RowKey& key, Slice value, TxnId txn,
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

  void ApplyInsert(const RowKey& key, Slice value, TxnId txn);
  void ApplyUpdate(const RowKey& key, Slice value, TxnId txn);
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

  /// What one Vacuum walk saw of the table it left behind.
  struct VacuumStats {
    size_t reclaimed = 0;    // versions dropped
    size_t versions = 0;     // versions kept (VersionCount())
    size_t image_bytes = 0;  // EncodedSize()
  };
  /// Drops versions that ended at or before `horizon` (no snapshot at or
  /// below the horizon is active). The same walk counts what is left and
  /// sizes its image, so a checkpoint walks the table once.
  VacuumStats Vacuum(Timestamp horizon);

  // --- Checkpoint snapshot -------------------------------------------------

  /// Appends a binary image of every version chain (including provisional
  /// versions of in-flight transactions) to *dst.
  void EncodeTo(std::string* dst) const;

  /// Exact number of bytes EncodeTo appends, so a caller can length-prefix
  /// the image and write it in place.
  size_t EncodedSize() const;

  /// Freezes the table as EncodeTo would image it now, without encoding it
  /// (DESIGN.md §12 "Checkpointer"). Until Thaw, each chain's first change
  /// saves its encoded pre-image and each new key is marked born, so
  /// EncodeFrozenTo can rebuild the frozen image at any later point. Ends
  /// any earlier freeze. Call only on a non-empty table: an empty one needs
  /// no capture, its image is a zero chain count.
  void Freeze();
  /// Ends the freeze and frees its pre-images.
  void Thaw() { freeze_.reset(); }

  /// Exact size and bytes of the image EncodeTo appended at Freeze(): the
  /// live chains, with each changed chain's pre-image in its place and keys
  /// born since left out. Requires a live freeze.
  size_t FrozenEncodedSize() const;
  void EncodeFrozenTo(std::string* dst) const;

  /// Bytes of pre-images the live freeze holds (0 without one).
  size_t FrozenBytes() const {
    return freeze_ == nullptr ? 0 : freeze_->bytes;
  }

  /// Rebuilds a freshly constructed table from an EncodeTo image, restoring
  /// chains and the provisional-transaction bookkeeping (touched_) so
  /// commit/abort replay works after install. Call only on an empty table.
  /// Keys are interned straight from the image. The image's keys must be
  /// strictly ascending, as EncodeTo writes them: the tree is built
  /// bottom-up, and an out-of-order or duplicate key is Corruption. On any
  /// Corruption the table is left empty, with no provisional state.
  Status DecodeFrom(Slice* input);

  /// Transactions with unresolved provisional state in this table. A
  /// snapshot installer uses this to rebuild the replica's pending-commit
  /// set; a promoted primary uses it to abort in-doubt transactions.
  std::vector<TxnId> ProvisionalTxns() const;

  /// Keys `txn` has provisionally written in this table (nullptr when none),
  /// as views of the table's interned keys (valid while the table lives).
  /// A promoted primary pins these with row locks while the transaction's
  /// outcome is in doubt, so new writers queue instead of racing the
  /// resolution (DESIGN.md §13).
  const std::vector<std::string_view>* TouchedKeys(TxnId txn) const {
    auto it = touched_.find(txn);
    return it == touched_.end() ? nullptr : &it->second;
  }

 private:
  /// The one visibility walk behind Read, Scan and ScanPaged: the version
  /// of `chain` visible at `snapshot` to `reader`, or null.
  static const VersionValue* VisibleValue(const VersionChain& chain,
                                          Timestamp snapshot, TxnId reader,
                                          TxnId* provisional);

  using Entry = BTree<VersionChain>::Entry;
  // An 8-byte key handle and a 64-byte chain (DESIGN.md §12 "Row layout").
  static_assert(sizeof(Entry) == 72);

  /// The one way a write reaches a chain: looks `key` up, inserting an empty
  /// chain when `insert` (else null when absent), and first lets a live
  /// freeze capture it (CaptureBeforeWrite).
  Entry* MutableEntry(std::string_view key, bool insert);
  /// MutableEntry's capture, also called by Vacuum's walk for a chain it is
  /// about to prune. `key` views the interned key. Keeps the chain's bytes
  /// as of the freeze unless they are already kept, or marks the key born
  /// when `inserted` (the lookup just created it).
  void CaptureBeforeWrite(std::string_view key, const VersionChain& chain,
                          bool inserted);

  /// Records a provisional write; `key` must view the tree's interned copy.
  void Touch(TxnId txn, std::string_view key) { touched_[txn].push_back(key); }

  /// Capture state of a live freeze. Keys are interned and never erased, so
  /// a key's arena address names its chain for the table's lifetime.
  struct FreezeState {
    size_t keys = 0;   // chain count at the freeze
    size_t bytes = 0;  // total pre-image bytes
    /// Per chain changed since the freeze: its encoded image (key, version
    /// count, versions) as of the freeze, or empty for a key born since
    /// (a chain image is never empty).
    std::unordered_map<const char*, std::string> saved;
  };

  TableId id_;
  mutable BTree<VersionChain> chains_;
  std::unordered_map<TxnId, std::vector<std::string_view>> touched_;
  std::unique_ptr<FreezeState> freeze_;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_STORAGE_MVCC_TABLE_H_
