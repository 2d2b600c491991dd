#ifndef GLOBALDB_SRC_CLUSTER_MESSAGES_H_
#define GLOBALDB_SRC_CLUSTER_MESSAGES_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/common/codec.h"
#include "src/common/statusor.h"
#include "src/common/types.h"
#include "src/rpc/fields.h"
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

  static void Fields(auto& self, auto&& visit) {
    visit(self.table, self.key, self.snapshot, self.txn);
  }
};

/// Read result; errors travel in the RPC reply envelope, not here.
struct ReadReply {
  bool found = false;
  std::string value;

  static void Fields(auto& self, auto&& visit) {
    visit(self.found, self.value);
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

    static void Fields(auto& self, auto&& visit) {
      visit(self.table, self.key, self.for_update);
    }
  };
  Timestamp snapshot = 0;
  TxnId txn = kInvalidTxnId;
  std::vector<Entry> entries;

  static void Fields(auto& self, auto&& visit) {
    visit(self.snapshot, self.txn, self.entries);
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
/// since a copy's views would point into the source's buffer. Hand-written
/// around the field codec for those two reasons (DESIGN.md §5).
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

    static void Fields(auto& self, auto&& visit) {
      visit(self.code, self.message, self.found, self.value);
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
    rpc::EncodeTo(res, dst);
  }
  static StatusOr<ReadBatchReply> Decode(std::string wire, size_t offset) {
    ReadBatchReply r;
    r.wire_ = std::move(wire);
    rpc::PinToHeap(&r.wire_);
    Slice in(r.wire_);
    in.RemovePrefix(offset);
    if (!rpc::DecodeFrom(&in, &r.results)) {
      return Status::Corruption("read batch reply");
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

  // Hand-written: a range's filter and join fields are on the wire only when
  // its flag byte says so, which a field list cannot express.
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
        rpc::EncodeTo(range.join_key_cols, &s);
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
    r.ranges.reserve(std::min<size_t>(n, in.size()));  // n is untrusted
    for (uint32_t i = 0; i < n; ++i) {
      Range range;
      if (!GetVarint32(&in, &range.table) ||
          !rpc::DecodeFrom(&in, &range.start) ||
          !rpc::DecodeFrom(&in, &range.end) ||
          !GetVarint32(&in, &range.limit) || in.empty()) {
        return Status::Corruption("scan batch range");
      }
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
      if ((flags & 4) != 0 &&
          (!GetVarint32(&in, &range.join_table) ||
           !rpc::DecodeFrom(&in, &range.join_key_prefix) ||
           !rpc::DecodeFrom(&in, &range.join_key_cols) ||
           !GetVarint32(&in, &range.join_limit))) {
        return Status::Corruption("scan batch join");
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
/// since a copy's views would point into the source's buffer. Hand-written
/// around the field codec for that reason (DESIGN.md §5).
struct ScanBatchReply {
  struct RangeResult {
    bool limit_hit = false;  // pushed-down limit satisfied server-side
    std::vector<KeyValueView> rows;
    /// Rows pulled in by the lookup join, deduped per chunk by key.
    std::vector<KeyValueView> joined;

    static void Fields(auto& self, auto&& visit) {
      visit(self.limit_hit, self.rows, self.joined);
    }
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

  static void Fields(auto& self, auto&& visit) {
    visit(self.truncated, self.resume_range, self.resume_key, self.results);
  }
  void EncodeTo(std::string* dst) const { rpc::EncodeTo(*this, dst); }
  static StatusOr<ScanBatchReply> Decode(std::string wire, size_t offset) {
    ScanBatchReply r;
    r.wire_ = std::move(wire);
    rpc::PinToHeap(&r.wire_);
    Slice in(r.wire_);
    in.RemovePrefix(offset);
    if (!rpc::DecodeFrom(&in, &r)) {
      return Status::Corruption("scan batch reply");
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

    static void Fields(auto& self, auto&& visit) {
      visit(self.op, self.table, self.key, self.value);
    }
  };
  TxnId txn = kInvalidTxnId;
  Timestamp snapshot = 0;
  std::vector<Entry> entries;

  static void Fields(auto& self, auto&& visit) {
    visit(self.txn, self.snapshot, self.entries);
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

    static void Fields(auto& self, auto&& visit) {
      visit(self.code, self.message);
    }
  };
  std::vector<EntryResult> results;

  static void Fields(auto& self, auto&& visit) { visit(self.results); }
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

  static void Fields(auto& self, auto&& visit) {
    visit(self.txn, self.ts, self.two_phase, self.participants);
  }
};

/// Transaction-outcome lookup (DESIGN.md §13). Served by the owning CN
/// (kCnTxnOutcome, answered from its decision cache) and by peer participant
/// primaries (kDnTxnState, answered from the per-txn decision memo /
/// provisional state). `kUnknown` means the responder has no record either
/// way — the asker falls through to the next resolution source.
struct TxnOutcomeRequest {
  TxnId txn = kInvalidTxnId;

  static void Fields(auto& self, auto&& visit) { visit(self.txn); }
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

  static void Fields(auto& self, auto&& visit) { visit(self.outcome, self.ts); }
};

/// DDL applied on a primary DN (appends a DDL redo record) or broadcast to
/// peer CNs.
struct DdlRequest {
  Timestamp ts = 0;
  std::string payload;

  static void Fields(auto& self, auto&& visit) { visit(self.ts, self.payload); }
};

/// Replica status snapshot for RCP calculation and skyline selection.
struct RorStatusReply {
  Timestamp max_commit_ts = 0;
  Lsn applied_lsn = 0;
  SimDuration queue_delay = 0;

  static void Fields(auto& self, auto&& visit) {
    visit(self.max_commit_ts, self.applied_lsn, self.queue_delay);
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
    RorStatusReply status;  // sent length-prefixed

    static void Fields(auto& self, auto&& visit) {
      visit(self.node, self.healthy, rpc::Prefixed(self.status));
    }
  };
  Timestamp rcp = 0;
  std::vector<Entry> statuses;

  static void Fields(auto& self, auto&& visit) {
    visit(self.rcp, self.statuses);
  }
};

/// Primary liveness + durability status, probed by the health monitor (the
/// DN-side analogue of kCnMaxIssued probing).
struct DnStatusReply {
  Lsn durable_lsn = 0;
  Timestamp max_commit_ts = 0;

  static void Fields(auto& self, auto&& visit) {
    visit(self.durable_lsn, self.max_commit_ts);
  }
};

/// A CN's contribution to the cluster low-watermark read timestamp: no
/// in-flight transaction on the CN runs below it, and no *future* snapshot
/// it hands out (GClock single-shard bypass, ROR at the local RCP) can fall
/// below it either. Monotone per CN.
struct TxnHorizonReply {
  Timestamp horizon = 0;

  static void Fields(auto& self, auto&& visit) { visit(self.horizon); }
};

/// Collector push of the folded cluster read horizon to a DN primary (rides
/// alongside the heartbeat): the primary's vacuum/GC low watermark.
struct ReadHorizonRequest {
  Timestamp horizon = 0;

  static void Fields(auto& self, auto&& visit) { visit(self.horizon); }
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
