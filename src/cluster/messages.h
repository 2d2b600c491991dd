#ifndef GLOBALDB_SRC_CLUSTER_MESSAGES_H_
#define GLOBALDB_SRC_CLUSTER_MESSAGES_H_

#include <string>
#include <utility>
#include <vector>

#include "src/common/codec.h"
#include "src/common/statusor.h"
#include "src/common/types.h"
#include "src/rpc/rpc_method.h"
#include "src/rpc/wire.h"

namespace globaldb {

/// Locking point read (SELECT ... FOR UPDATE, kDnLockRead): takes the row
/// lock on the primary and returns the latest committed version.
struct ReadRequest {
  TableId table = kInvalidTableId;
  RowKey key;
  Timestamp snapshot = 0;
  TxnId txn = kInvalidTxnId;

  std::string Encode() const {
    std::string s;
    PutVarint32(&s, table);
    PutLengthPrefixed(&s, key);
    PutVarint64(&s, snapshot);
    PutVarint64(&s, txn);
    return s;
  }
  static StatusOr<ReadRequest> Decode(Slice in) {
    ReadRequest r;
    Slice key;
    if (!GetVarint32(&in, &r.table) || !GetLengthPrefixed(&in, &key) ||
        !GetVarint64(&in, &r.snapshot) || !GetVarint64(&in, &r.txn)) {
      return Status::Corruption("read req");
    }
    r.key = key.ToString();
    return r;
  }
};

/// Read result; errors travel in the RPC reply envelope, not here.
struct ReadReply {
  bool found = false;
  std::string value;

  std::string Encode() const {
    std::string s;
    s.push_back(found ? 1 : 0);
    PutLengthPrefixed(&s, value);
    return s;
  }
  static StatusOr<ReadReply> Decode(Slice in) {
    ReadReply r;
    Slice value;
    if (in.empty()) return Status::Corruption("read reply");
    r.found = in[0] != 0;
    in.RemovePrefix(1);
    if (!GetLengthPrefixed(&in, &value)) {
      return Status::Corruption("read reply value");
    }
    r.value = value.ToString();
    return r;
  }
};

/// A batch of independent point reads for one shard, resolved under one
/// snapshot (the CN's MultiGet fan-out, DESIGN.md §11). Entries marked
/// `for_update` take the row lock and read the latest committed version
/// (SELECT ... FOR UPDATE); they are only ever routed to the primary.
struct ReadBatchRequest {
  struct Entry {
    TableId table = kInvalidTableId;
    RowKey key;
    bool for_update = false;
  };
  Timestamp snapshot = 0;
  TxnId txn = kInvalidTxnId;
  std::vector<Entry> entries;

  std::string Encode() const {
    std::string s;
    PutVarint64(&s, snapshot);
    PutVarint64(&s, txn);
    PutVarint32(&s, static_cast<uint32_t>(entries.size()));
    for (const auto& e : entries) {
      PutVarint32(&s, e.table);
      PutLengthPrefixed(&s, e.key);
      s.push_back(e.for_update ? 1 : 0);
    }
    return s;
  }
  static StatusOr<ReadBatchRequest> Decode(Slice in) {
    ReadBatchRequest r;
    uint32_t n = 0;
    if (!GetVarint64(&in, &r.snapshot) || !GetVarint64(&in, &r.txn) ||
        !GetVarint32(&in, &n)) {
      return Status::Corruption("read batch req");
    }
    r.entries.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      Entry e;
      Slice key;
      if (!GetVarint32(&in, &e.table) || !GetLengthPrefixed(&in, &key) ||
          in.empty()) {
        return Status::Corruption("read batch entry");
      }
      e.key = key.ToString();
      e.for_update = in[0] != 0;
      in.RemovePrefix(1);
      r.entries.push_back(std::move(e));
    }
    return r;
  }
};

/// Per-entry read outcomes, aligned with the request's entries. The RPC
/// envelope stays OK whenever the batch was processed; per-entry failures
/// (e.g. a lock timeout on a for_update entry) travel here so one bad key
/// does not discard the other entries' results.
///
/// `message` and `value` are views. A server handler writes each entry into
/// its reply envelope with PutEntry as soon as the entry is resolved, while
/// the views still point into live table versions; a decoded reply owns the
/// received envelope and its views point into that. The type is move-only,
/// since a copy's views would point into the source's buffer.
struct ReadBatchReply {
  struct EntryResult {
    StatusCode code = StatusCode::kOk;
    Slice message;
    bool found = false;
    Slice value;
    Status ToStatus() const {
      return code == StatusCode::kOk ? Status::OK()
                                     : Status(code, message.ToString());
    }
  };
  std::vector<EntryResult> results;

  ReadBatchReply() = default;
  ReadBatchReply(ReadBatchReply&&) noexcept = default;
  ReadBatchReply& operator=(ReadBatchReply&&) noexcept = default;
  ReadBatchReply(const ReadBatchReply&) = delete;
  ReadBatchReply& operator=(const ReadBatchReply&) = delete;

  /// Wire layout: [varint n] then n entries, each written by PutEntry.
  static void PutCount(std::string* dst, size_t n) {
    PutVarint32(dst, static_cast<uint32_t>(n));
  }
  static void PutEntry(std::string* dst, const EntryResult& res) {
    PutVarint32(dst, static_cast<uint32_t>(res.code));
    PutLengthPrefixed(dst, res.message);
    dst->push_back(res.found ? 1 : 0);
    PutLengthPrefixed(dst, res.value);
  }
  static StatusOr<ReadBatchReply> Decode(std::string wire, size_t offset) {
    ReadBatchReply r;
    r.wire_ = std::move(wire);
    rpc::PinToHeap(&r.wire_);
    Slice in(r.wire_);
    in.RemovePrefix(offset);
    uint32_t n = 0;
    if (!GetVarint32(&in, &n)) return Status::Corruption("read batch reply");
    r.results.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      EntryResult res;
      uint32_t code = 0;
      if (!GetVarint32(&in, &code) || !GetLengthPrefixed(&in, &res.message) ||
          in.empty()) {
        return Status::Corruption("read batch reply entry");
      }
      res.code = static_cast<StatusCode>(code);
      res.found = in[0] != 0;
      in.RemovePrefix(1);
      if (!GetLengthPrefixed(&in, &res.value)) {
        return Status::Corruption("read batch reply value");
      }
      r.results.push_back(res);
    }
    return r;
  }

 private:
  std::string wire_;  // decoded replies: the bytes every view points into
};

/// A batch of ordered range scans for one shard, resolved under one
/// snapshot (the CN's ScanBatch fan-out, DESIGN.md §14). Each range may
/// carry a pushed-down int64 equality filter, a post-filter row limit, a
/// reverse flag (last-N-by-key), and an optional co-located lookup join
/// that resolves dependent rows server-side. Replies are byte-capped: a
/// truncated reply names the range and key to resume from, and the CN
/// re-issues the request with `resume_range` set (stateless server — the
/// whole cursor lives in the request/reply pair).
struct ScanBatchRequest {
  struct Range {
    TableId table = kInvalidTableId;
    RowKey start, end;  // [start, end); empty end = unbounded
    uint32_t limit = 0xffffffff;
    bool reverse = false;       // return the LAST `limit` rows, descending
    int32_t filter_col = -1;    // -1 = no filter; else int64 equality on col
    int64_t filter_eq = 0;
    /// Co-located lookup join: for every emitted row, build a key from
    /// `join_key_prefix` + the encoded values of `join_key_cols`, then point
    /// read (join_prefix=false) or prefix scan (join_prefix=true, up to
    /// `join_limit` rows) `join_table` under the same snapshot.
    TableId join_table = kInvalidTableId;  // kInvalidTableId = no join
    RowKey join_key_prefix;
    std::vector<uint32_t> join_key_cols;
    bool join_prefix = false;
    uint32_t join_limit = 0xffffffff;
  };
  Timestamp snapshot = 0;
  TxnId txn = kInvalidTxnId;
  /// Reply byte budget; 0 = server default. At least one row per range is
  /// always emitted so continuation makes progress.
  uint64_t max_bytes = 0;
  /// Ranges with index < resume_range were fully answered by earlier chunks
  /// and are skipped (their results arrive empty). The CN rewrites the
  /// resumed range's `start` (forward scans) and remaining `limit` itself.
  uint32_t resume_range = 0;
  std::vector<Range> ranges;

  std::string Encode() const {
    std::string s;
    PutVarint64(&s, snapshot);
    PutVarint64(&s, txn);
    PutVarint64(&s, max_bytes);
    PutVarint32(&s, resume_range);
    PutVarint32(&s, static_cast<uint32_t>(ranges.size()));
    for (const auto& range : ranges) {
      PutVarint32(&s, range.table);
      PutLengthPrefixed(&s, range.start);
      PutLengthPrefixed(&s, range.end);
      PutVarint32(&s, range.limit);
      uint8_t flags = 0;
      if (range.reverse) flags |= 1;
      if (range.filter_col >= 0) flags |= 2;
      if (range.join_table != kInvalidTableId) flags |= 4;
      if (range.join_prefix) flags |= 8;
      s.push_back(static_cast<char>(flags));
      if (range.filter_col >= 0) {
        PutVarint32(&s, static_cast<uint32_t>(range.filter_col));
        PutVarsint64(&s, range.filter_eq);
      }
      if (range.join_table != kInvalidTableId) {
        PutVarint32(&s, range.join_table);
        PutLengthPrefixed(&s, range.join_key_prefix);
        PutVarint32(&s, static_cast<uint32_t>(range.join_key_cols.size()));
        for (uint32_t col : range.join_key_cols) PutVarint32(&s, col);
        PutVarint32(&s, range.join_limit);
      }
    }
    return s;
  }
  static StatusOr<ScanBatchRequest> Decode(Slice in) {
    ScanBatchRequest r;
    uint32_t n = 0;
    if (!GetVarint64(&in, &r.snapshot) || !GetVarint64(&in, &r.txn) ||
        !GetVarint64(&in, &r.max_bytes) || !GetVarint32(&in, &r.resume_range) ||
        !GetVarint32(&in, &n)) {
      return Status::Corruption("scan batch req");
    }
    r.ranges.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      Range range;
      Slice start, end;
      if (!GetVarint32(&in, &range.table) || !GetLengthPrefixed(&in, &start) ||
          !GetLengthPrefixed(&in, &end) || !GetVarint32(&in, &range.limit) ||
          in.empty()) {
        return Status::Corruption("scan batch range");
      }
      range.start = start.ToString();
      range.end = end.ToString();
      const uint8_t flags = static_cast<uint8_t>(in[0]);
      in.RemovePrefix(1);
      range.reverse = (flags & 1) != 0;
      range.join_prefix = (flags & 8) != 0;
      if ((flags & 2) != 0) {
        uint32_t col = 0;
        if (!GetVarint32(&in, &col) || !GetVarsint64(&in, &range.filter_eq)) {
          return Status::Corruption("scan batch filter");
        }
        range.filter_col = static_cast<int32_t>(col);
      }
      if ((flags & 4) != 0) {
        Slice prefix;
        uint32_t cols = 0;
        if (!GetVarint32(&in, &range.join_table) ||
            !GetLengthPrefixed(&in, &prefix) || !GetVarint32(&in, &cols)) {
          return Status::Corruption("scan batch join");
        }
        range.join_key_prefix = prefix.ToString();
        range.join_key_cols.reserve(cols);
        for (uint32_t c = 0; c < cols; ++c) {
          uint32_t col = 0;
          if (!GetVarint32(&in, &col)) {
            return Status::Corruption("scan batch join col");
          }
          range.join_key_cols.push_back(col);
        }
        if (!GetVarint32(&in, &range.join_limit)) {
          return Status::Corruption("scan batch join limit");
        }
      }
      r.ranges.push_back(std::move(range));
    }
    return r;
  }
};

/// One byte-capped chunk of a scan batch. `results` aligns with the
/// request's ranges (entries below resume_range stay empty). When
/// `truncated`, the scan stopped mid-way through `resume_range`:
/// `resume_key` is the next primary key a forward scan would have examined
/// (empty = the range was not started — keep the original start bound).
///
/// Keys and values are views. On the server they point into the shard's
/// table versions (and the executor's join-key buffers), and the reply is
/// encoded inside the same synchronous pass; a decoded reply owns the
/// received envelope and its views point into that. The type is move-only,
/// since a copy's views would point into the source's buffer.
struct ScanBatchReply {
  struct RangeResult {
    bool limit_hit = false;  // pushed-down limit satisfied server-side
    std::vector<KeyValueView> rows;
    /// Rows pulled in by the lookup join, deduped per chunk by key.
    std::vector<KeyValueView> joined;
  };
  bool truncated = false;
  uint32_t resume_range = 0;
  Slice resume_key;
  std::vector<RangeResult> results;

  ScanBatchReply() = default;
  ScanBatchReply(ScanBatchReply&&) noexcept = default;
  ScanBatchReply& operator=(ScanBatchReply&&) noexcept = default;
  ScanBatchReply(const ScanBatchReply&) = delete;
  ScanBatchReply& operator=(const ScanBatchReply&) = delete;

  void EncodeTo(std::string* dst) const {
    dst->push_back(truncated ? 1 : 0);
    PutVarint32(dst, resume_range);
    PutLengthPrefixed(dst, resume_key);
    PutVarint32(dst, static_cast<uint32_t>(results.size()));
    for (const auto& res : results) {
      dst->push_back(res.limit_hit ? 1 : 0);
      for (const auto* list : {&res.rows, &res.joined}) {
        PutVarint32(dst, static_cast<uint32_t>(list->size()));
        for (const KeyValueView& row : *list) {
          PutLengthPrefixed(dst, row.key);
          PutLengthPrefixed(dst, row.value);
        }
      }
    }
  }
  static StatusOr<ScanBatchReply> Decode(std::string wire, size_t offset) {
    ScanBatchReply r;
    r.wire_ = std::move(wire);
    rpc::PinToHeap(&r.wire_);
    Slice in(r.wire_);
    in.RemovePrefix(offset);
    if (in.empty()) return Status::Corruption("scan batch reply");
    r.truncated = in[0] != 0;
    in.RemovePrefix(1);
    uint32_t n = 0;
    if (!GetVarint32(&in, &r.resume_range) ||
        !GetLengthPrefixed(&in, &r.resume_key) || !GetVarint32(&in, &n)) {
      return Status::Corruption("scan batch reply header");
    }
    r.results.resize(n);
    for (RangeResult& res : r.results) {
      if (in.empty()) return Status::Corruption("scan batch reply range");
      res.limit_hit = in[0] != 0;
      in.RemovePrefix(1);
      for (auto* list : {&res.rows, &res.joined}) {
        uint32_t rows = 0;
        if (!GetVarint32(&in, &rows)) {
          return Status::Corruption("scan batch reply rows");
        }
        list->resize(rows);
        for (KeyValueView& row : *list) {
          if (!GetLengthPrefixed(&in, &row.key) ||
              !GetLengthPrefixed(&in, &row.value)) {
            return Status::Corruption("scan batch reply row");
          }
        }
      }
    }
    return r;
  }

 private:
  std::string wire_;  // decoded replies: the bytes every view points into
};

/// Row mutation kind of a buffered write.
enum class WriteOp : uint8_t { kInsert = 1, kUpdate = 2, kDelete = 3 };

/// A pipelined batch of buffered writes for one shard, flushed in statement
/// order (the CN's per-transaction write buffer, DESIGN.md §10). The primary
/// applies entries sequentially — lock, apply, redo. After the first
/// failing entry it rolls the transaction back on this shard and releases
/// every lock the transaction holds there, marking the remaining entries as
/// skipped.
struct WriteBatchRequest {
  struct Entry {
    WriteOp op = WriteOp::kInsert;
    TableId table = kInvalidTableId;
    RowKey key;
    std::string value;
  };
  TxnId txn = kInvalidTxnId;
  Timestamp snapshot = 0;
  std::vector<Entry> entries;

  std::string Encode() const {
    std::string s;
    PutVarint64(&s, txn);
    PutVarint64(&s, snapshot);
    PutVarint32(&s, static_cast<uint32_t>(entries.size()));
    for (const auto& e : entries) {
      s.push_back(static_cast<char>(e.op));
      PutVarint32(&s, e.table);
      PutLengthPrefixed(&s, e.key);
      PutLengthPrefixed(&s, e.value);
    }
    return s;
  }
  static StatusOr<WriteBatchRequest> Decode(Slice in) {
    WriteBatchRequest r;
    uint32_t n = 0;
    if (!GetVarint64(&in, &r.txn) || !GetVarint64(&in, &r.snapshot) ||
        !GetVarint32(&in, &n)) {
      return Status::Corruption("write batch req");
    }
    r.entries.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      Entry e;
      if (in.empty()) return Status::Corruption("write batch entry");
      e.op = static_cast<WriteOp>(in[0]);
      in.RemovePrefix(1);
      Slice key, value;
      if (!GetVarint32(&in, &e.table) || !GetLengthPrefixed(&in, &key) ||
          !GetLengthPrefixed(&in, &value)) {
        return Status::Corruption("write batch entry fields");
      }
      e.key = key.ToString();
      e.value = value.ToString();
      r.entries.push_back(std::move(e));
    }
    return r;
  }
};

/// Per-entry outcomes of a write batch, aligned with the request's entries.
/// The RPC envelope stays OK whenever the batch was processed; entry
/// failures travel here so the CN knows which statement failed (and that
/// the shard already cleaned itself up).
struct WriteBatchReply {
  struct EntryResult {
    StatusCode code = StatusCode::kOk;
    std::string message;
    Status ToStatus() const {
      return code == StatusCode::kOk ? Status::OK() : Status(code, message);
    }
  };
  std::vector<EntryResult> results;

  std::string Encode() const {
    std::string s;
    PutVarint32(&s, static_cast<uint32_t>(results.size()));
    for (const auto& res : results) {
      PutVarint32(&s, static_cast<uint32_t>(res.code));
      PutLengthPrefixed(&s, res.message);
    }
    return s;
  }
  static StatusOr<WriteBatchReply> Decode(Slice in) {
    WriteBatchReply r;
    uint32_t n = 0;
    if (!GetVarint32(&in, &n)) return Status::Corruption("write batch reply");
    r.results.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      EntryResult res;
      uint32_t code = 0;
      Slice message;
      if (!GetVarint32(&in, &code) || !GetLengthPrefixed(&in, &message)) {
        return Status::Corruption("write batch reply entry");
      }
      res.code = static_cast<StatusCode>(code);
      res.message = message.ToString();
      r.results.push_back(std::move(res));
    }
    return r;
  }
};

/// Pre-commit (PENDING_COMMIT for one-shard commits, PREPARE for 2PC),
/// commit (COMMIT / COMMIT_PREPARED at `ts`), and abort. A 2PC precommit
/// carries the full participant shard list so a promoted primary that finds
/// the prepare in-doubt knows which peer shards may hold the durable
/// decision (DESIGN.md §13).
struct TxnControlRequest {
  TxnId txn = kInvalidTxnId;
  Timestamp ts = 0;
  bool two_phase = false;
  std::vector<ShardId> participants;

  std::string Encode() const {
    std::string s;
    PutVarint64(&s, txn);
    PutVarint64(&s, ts);
    s.push_back(two_phase ? 1 : 0);
    PutVarint32(&s, static_cast<uint32_t>(participants.size()));
    for (ShardId shard : participants) PutVarint32(&s, shard);
    return s;
  }
  static StatusOr<TxnControlRequest> Decode(Slice in) {
    TxnControlRequest r;
    if (!GetVarint64(&in, &r.txn) || !GetVarint64(&in, &r.ts) || in.empty()) {
      return Status::Corruption("txn control req");
    }
    r.two_phase = in[0] != 0;
    in.RemovePrefix(1);
    uint32_t n = 0;
    if (!GetVarint32(&in, &n)) return Status::Corruption("txn control parts");
    r.participants.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      ShardId shard = kInvalidShardId;
      if (!GetVarint32(&in, &shard)) {
        return Status::Corruption("txn control part");
      }
      r.participants.push_back(shard);
    }
    return r;
  }
};

/// Transaction-outcome lookup (DESIGN.md §13). Served by the owning CN
/// (kCnTxnOutcome, answered from its decision cache) and by peer participant
/// primaries (kDnTxnState, answered from the per-txn decision memo /
/// provisional state). `kUnknown` means the responder has no record either
/// way — the asker falls through to the next resolution source.
struct TxnOutcomeRequest {
  TxnId txn = kInvalidTxnId;

  std::string Encode() const {
    std::string s;
    PutVarint64(&s, txn);
    return s;
  }
  static StatusOr<TxnOutcomeRequest> Decode(Slice in) {
    TxnOutcomeRequest r;
    if (!GetVarint64(&in, &r.txn)) return Status::Corruption("txn outcome");
    return r;
  }
};

/// `kPending` is distinct from `kUnknown`: the owning CN is still deciding
/// (the transaction is active), so the asker must retry instead of treating
/// the answer as a definitive "no decision was ever made".
enum class TxnOutcome : uint8_t {
  kUnknown = 0,
  kCommitted = 1,
  kAborted = 2,
  kPending = 3,
};

inline const char* TxnOutcomeName(TxnOutcome outcome) {
  switch (outcome) {
    case TxnOutcome::kUnknown:
      return "UNKNOWN";
    case TxnOutcome::kCommitted:
      return "COMMITTED";
    case TxnOutcome::kAborted:
      return "ABORTED";
    case TxnOutcome::kPending:
      return "PENDING";
  }
  return "?";
}

struct TxnOutcomeReply {
  TxnOutcome outcome = TxnOutcome::kUnknown;
  /// Commit timestamp when outcome == kCommitted, else 0.
  Timestamp ts = 0;

  std::string Encode() const {
    std::string s;
    s.push_back(static_cast<char>(outcome));
    PutVarint64(&s, ts);
    return s;
  }
  static StatusOr<TxnOutcomeReply> Decode(Slice in) {
    TxnOutcomeReply r;
    if (in.empty()) return Status::Corruption("txn outcome reply");
    r.outcome = static_cast<TxnOutcome>(in[0]);
    in.RemovePrefix(1);
    if (!GetVarint64(&in, &r.ts)) {
      return Status::Corruption("txn outcome reply ts");
    }
    return r;
  }
};

/// DDL applied on a primary DN (appends a DDL redo record) or broadcast to
/// peer CNs.
struct DdlRequest {
  Timestamp ts = 0;
  std::string payload;

  std::string Encode() const {
    std::string s;
    PutVarint64(&s, ts);
    PutLengthPrefixed(&s, payload);
    return s;
  }
  static StatusOr<DdlRequest> Decode(Slice in) {
    DdlRequest r;
    Slice payload;
    if (!GetVarint64(&in, &r.ts) || !GetLengthPrefixed(&in, &payload)) {
      return Status::Corruption("ddl req");
    }
    r.payload = payload.ToString();
    return r;
  }
};

/// Replica status snapshot for RCP calculation and skyline selection.
struct RorStatusReply {
  Timestamp max_commit_ts = 0;
  Lsn applied_lsn = 0;
  SimDuration queue_delay = 0;

  std::string Encode() const {
    std::string s;
    PutVarint64(&s, max_commit_ts);
    PutVarint64(&s, applied_lsn);
    PutVarint64(&s, static_cast<uint64_t>(queue_delay));
    return s;
  }
  static StatusOr<RorStatusReply> Decode(Slice in) {
    RorStatusReply r;
    uint64_t qd = 0;
    if (!GetVarint64(&in, &r.max_commit_ts) ||
        !GetVarint64(&in, &r.applied_lsn) || !GetVarint64(&in, &qd)) {
      return Status::Corruption("ror status");
    }
    r.queue_delay = static_cast<SimDuration>(qd);
    return r;
  }
};

/// Collector broadcast: the new RCP plus the per-replica statuses feeding
/// each CN's skyline selector. Each entry carries the collector's failure
/// detector verdict so peer CNs exclude dead replicas instead of re-marking
/// them healthy from a stale status snapshot.
struct RcpUpdateMessage {
  struct Entry {
    NodeId node = kInvalidNodeId;
    bool healthy = true;
    RorStatusReply status;
  };
  Timestamp rcp = 0;
  std::vector<Entry> statuses;

  std::string Encode() const {
    std::string s;
    PutVarint64(&s, rcp);
    PutVarint32(&s, static_cast<uint32_t>(statuses.size()));
    for (const auto& entry : statuses) {
      PutVarint32(&s, entry.node);
      s.push_back(entry.healthy ? 1 : 0);
      PutLengthPrefixed(&s, entry.status.Encode());
    }
    return s;
  }
  static StatusOr<RcpUpdateMessage> Decode(Slice in) {
    RcpUpdateMessage r;
    uint32_t n = 0;
    if (!GetVarint64(&in, &r.rcp) || !GetVarint32(&in, &n)) {
      return Status::Corruption("rcp update");
    }
    r.statuses.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      Entry entry;
      Slice encoded;
      if (!GetVarint32(&in, &entry.node) || in.empty()) {
        return Status::Corruption("rcp update entry");
      }
      entry.healthy = in[0] != 0;
      in.RemovePrefix(1);
      if (!GetLengthPrefixed(&in, &encoded)) {
        return Status::Corruption("rcp update entry");
      }
      auto status = RorStatusReply::Decode(encoded);
      if (!status.ok()) return status.status();
      entry.status = *status;
      r.statuses.push_back(std::move(entry));
    }
    return r;
  }
};

/// Primary liveness + durability status, probed by the health monitor (the
/// DN-side analogue of kCnMaxIssued probing).
struct DnStatusReply {
  Lsn durable_lsn = 0;
  Timestamp max_commit_ts = 0;

  std::string Encode() const {
    std::string s;
    PutVarint64(&s, durable_lsn);
    PutVarint64(&s, max_commit_ts);
    return s;
  }
  static StatusOr<DnStatusReply> Decode(Slice in) {
    DnStatusReply r;
    if (!GetVarint64(&in, &r.durable_lsn) ||
        !GetVarint64(&in, &r.max_commit_ts)) {
      return Status::Corruption("dn status");
    }
    return r;
  }
};

/// A CN's contribution to the cluster low-watermark read timestamp: no
/// in-flight transaction on the CN runs below it, and no *future* snapshot
/// it hands out (GClock single-shard bypass, ROR at the local RCP) can fall
/// below it either. Monotone per CN.
struct TxnHorizonReply {
  Timestamp horizon = 0;

  std::string Encode() const {
    std::string s;
    PutVarint64(&s, horizon);
    return s;
  }
  static StatusOr<TxnHorizonReply> Decode(Slice in) {
    TxnHorizonReply r;
    if (!GetVarint64(&in, &r.horizon)) {
      return Status::Corruption("txn horizon");
    }
    return r;
  }
};

/// Collector push of the folded cluster read horizon to a DN primary (rides
/// alongside the heartbeat): the primary's vacuum/GC low watermark.
struct ReadHorizonRequest {
  Timestamp horizon = 0;

  std::string Encode() const {
    std::string s;
    PutVarint64(&s, horizon);
    return s;
  }
  static StatusOr<ReadHorizonRequest> Decode(Slice in) {
    ReadHorizonRequest r;
    if (!GetVarint64(&in, &r.horizon)) {
      return Status::Corruption("read horizon");
    }
    return r;
  }
};

// --- Method descriptors ------------------------------------------------------

// Served by primary data nodes.
inline constexpr rpc::RpcMethod<ReadRequest, ReadReply> kDnLockRead{
    "dn.lock_read"};
inline constexpr rpc::RpcMethod<ReadBatchRequest, ReadBatchReply>
    kDnReadBatch{"dn.read_batch"};
inline constexpr rpc::RpcMethod<ScanBatchRequest, ScanBatchReply>
    kDnScanBatch{"dn.scan_batch"};
inline constexpr rpc::RpcMethod<WriteBatchRequest, WriteBatchReply>
    kDnWriteBatch{"dn.write_batch"};
inline constexpr rpc::RpcMethod<TxnControlRequest, rpc::EmptyMessage>
    kDnPrecommit{"dn.precommit"};
inline constexpr rpc::RpcMethod<TxnControlRequest, rpc::EmptyMessage>
    kDnCommit{"dn.commit"};
inline constexpr rpc::RpcMethod<TxnControlRequest, rpc::EmptyMessage>
    kDnAbort{"dn.abort"};
inline constexpr rpc::RpcMethod<DdlRequest, rpc::EmptyMessage> kDnDdl{
    "dn.ddl"};
inline constexpr rpc::RpcMethod<TxnControlRequest, rpc::EmptyMessage>
    kDnHeartbeat{"dn.heartbeat"};
inline constexpr rpc::RpcMethod<rpc::EmptyMessage, DnStatusReply> kDnStatus{
    "dn.status"};
inline constexpr rpc::RpcMethod<ReadHorizonRequest, rpc::EmptyMessage>
    kDnReadHorizon{"dn.read_horizon"};
inline constexpr rpc::RpcMethod<TxnOutcomeRequest, TxnOutcomeReply>
    kDnTxnState{"dn.txn_state"};

// Served by replica data nodes (read-on-replica).
inline constexpr rpc::RpcMethod<ReadBatchRequest, ReadBatchReply>
    kRorReadBatch{"ror.read_batch"};
inline constexpr rpc::RpcMethod<ScanBatchRequest, ScanBatchReply>
    kRorScanBatch{"ror.scan_batch"};
inline constexpr rpc::RpcMethod<rpc::EmptyMessage, RorStatusReply> kRorStatus{
    "ror.status"};

// Served by coordinator nodes.
inline constexpr rpc::RpcMethod<RcpUpdateMessage, rpc::EmptyMessage>
    kCnRcpUpdate{"cn.rcp_update"};
inline constexpr rpc::RpcMethod<DdlRequest, rpc::EmptyMessage> kCnDdlApply{
    "cn.ddl_apply"};
inline constexpr rpc::RpcMethod<rpc::EmptyMessage, TxnHorizonReply>
    kCnTxnHorizon{"cn.txn_horizon"};
inline constexpr rpc::RpcMethod<TxnOutcomeRequest, TxnOutcomeReply>
    kCnTxnOutcome{"cn.txn_outcome"};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_CLUSTER_MESSAGES_H_
