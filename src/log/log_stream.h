#ifndef GLOBALDB_SRC_LOG_LOG_STREAM_H_
#define GLOBALDB_SRC_LOG_LOG_STREAM_H_

#include <deque>
#include <string>
#include <vector>

#include "src/common/statusor.h"
#include "src/common/types.h"
#include "src/compression/lz.h"
#include "src/log/redo_record.h"

namespace globaldb {

/// An in-memory per-shard redo stream, kept as its wire bytes. The primary
/// data node appends; the log shipper ships slices of it to replicas. LSNs
/// start at 1 and are dense.
///
/// Append encodes each record once, with its LSN, onto one contiguous byte
/// log and keeps the record's end offset, so a batch's payload is a slice
/// of the log. Lifetime: a slice from Extent is valid until the next Append
/// or TruncateUntil; the shipper frames it before its loop can suspend.
class LogStream {
 public:
  LogStream() = default;

  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  /// Encodes `record` with the next LSN onto the log and returns that LSN;
  /// the bytes its key and value view are not kept.
  Lsn Append(RedoRecord record);

  /// First retained LSN (records below were truncated away).
  Lsn begin_lsn() const { return begin_lsn_; }
  /// LSN the next Append will get.
  Lsn next_lsn() const { return begin_lsn_ + ends_.size(); }
  /// Number of retained records.
  size_t size() const { return ends_.size(); }
  /// Total encoded bytes appended over the stream's lifetime.
  uint64_t total_bytes() const { return total_bytes_; }
  /// Encoded bytes of the currently retained records (lifetime bytes minus
  /// what truncation reclaimed) — the soak bench asserts this flat-lines.
  uint64_t retained_bytes() const { return bytes_.size(); }

  /// The batch of records starting at `from` (inclusive): at most
  /// max_records of them, stopping before the record that would take the
  /// encoded size past max_bytes, but at least one record if `from` holds
  /// one. Fails if `from` was truncated.
  struct BatchExtent {
    /// Last LSN the batch includes (valid only when records > 0).
    Lsn end_lsn = kInvalidLsn;
    size_t records = 0;
    /// Encoded size of the included records (pre-compression).
    size_t bytes = 0;
    /// The included records' encodings, a slice of the log (see above).
    Slice payload;
  };
  StatusOr<BatchExtent> Extent(Lsn from, size_t max_records,
                               size_t max_bytes) const;

  /// Drops records with lsn < until (replicas all caught up past them).
  void TruncateUntil(Lsn until);

  /// Re-bases an *empty* stream so the next Append gets LSN `first`. Used
  /// when a promoted replica adopts the primary role: its new log continues
  /// the shard's LSN sequence from its applied position instead of
  /// restarting at 1. Must not be called on a non-empty stream.
  void ResetBase(Lsn first);

  /// Appends the wire form of a batch to *dst: [u8 compression][bytes],
  /// where bytes is `payload` LZ-compressed if `compression` asks for it and
  /// that shrinks it, and `payload` itself otherwise (framing byte kNone).
  static void EncodeBatch(Slice payload, CompressionType compression,
                          std::string* dst);
  /// Decodes a batch into records that view `batch`, or *scratch if the
  /// batch is compressed: they are valid while both are left in place.
  static Status DecodeBatch(Slice batch, std::string* scratch,
                            std::vector<RedoRecord>* out);

 private:
  /// The retained records' encodings, back to back.
  std::string bytes_;
  /// Each retained record's end offset in the lifetime byte sequence
  /// (bytes_[0] is at total_bytes_ - bytes_.size()).
  std::deque<uint64_t> ends_;
  Lsn begin_lsn_ = 1;
  uint64_t total_bytes_ = 0;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_LOG_LOG_STREAM_H_
