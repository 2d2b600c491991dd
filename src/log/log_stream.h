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

/// An in-memory per-shard redo stream. The primary data node appends; the
/// log shipper reads batches from an LSN cursor and ships them to replicas.
/// LSNs start at 1 and are dense.
class LogStream {
 public:
  LogStream() = default;

  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  /// Appends a record, assigning the next LSN. Returns the assigned LSN.
  Lsn Append(RedoRecord record);

  /// First retained LSN (records below were truncated away).
  Lsn begin_lsn() const { return begin_lsn_; }
  /// LSN the next Append will get.
  Lsn next_lsn() const { return begin_lsn_ + records_.size(); }
  /// Number of retained records.
  size_t size() const { return records_.size(); }
  /// Total encoded bytes appended over the stream's lifetime.
  uint64_t total_bytes() const { return total_bytes_; }
  /// Encoded bytes of the currently retained records (lifetime bytes minus
  /// what truncation reclaimed) — the soak bench asserts this flat-lines.
  uint64_t retained_bytes() const { return retained_bytes_; }

  /// Returns up to max_records records starting at `from` (inclusive),
  /// stopping early once max_bytes of encoded size is reached (at least one
  /// record is returned if available). Fails if `from` was truncated.
  StatusOr<std::vector<RedoRecord>> Read(Lsn from, size_t max_records,
                                         size_t max_bytes) const;

  /// The boundary a Read(from, max_records, max_bytes) would produce, without
  /// copying any records. The shipper uses this to size and bound a batch
  /// before it reads and encodes it.
  struct BatchExtent {
    /// Last LSN the batch would include (valid only when records > 0).
    Lsn end_lsn = kInvalidLsn;
    size_t records = 0;
    /// Encoded size of the included records (pre-compression).
    size_t bytes = 0;
  };
  StatusOr<BatchExtent> Extent(Lsn from, size_t max_records,
                               size_t max_bytes) const;

  /// Returns the record at `lsn` (for tests / recovery inspection).
  StatusOr<RedoRecord> At(Lsn lsn) const;

  /// Drops records with lsn < until (replicas all caught up past them).
  void TruncateUntil(Lsn until);

  /// Re-bases an *empty* stream so the next Append gets LSN `first`. Used
  /// when a promoted replica adopts the primary role: its new log continues
  /// the shard's LSN sequence from its applied position instead of
  /// restarting at 1. Must not be called on a non-empty stream.
  void ResetBase(Lsn first);

  /// Serializes records for the wire, optionally compressed. The batch is
  /// self-describing: [u8 compression][payload], payload = concatenated
  /// record encodings (LSNs travel inside the records).
  static std::string EncodeBatch(const std::vector<RedoRecord>& records,
                                 CompressionType compression);
  static Status DecodeBatch(Slice batch, std::vector<RedoRecord>* out);

 private:
  std::deque<RedoRecord> records_;
  Lsn begin_lsn_ = 1;
  uint64_t total_bytes_ = 0;
  uint64_t retained_bytes_ = 0;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_LOG_LOG_STREAM_H_
