#ifndef GLOBALDB_SRC_REPLICATION_MESSAGES_H_
#define GLOBALDB_SRC_REPLICATION_MESSAGES_H_

#include <string>
#include <utility>

#include "src/common/codec.h"
#include "src/common/statusor.h"
#include "src/common/types.h"
#include "src/rpc/fields.h"
#include "src/rpc/rpc_method.h"

namespace globaldb {

/// One shipped redo batch: the shard it belongs to, the LSN of the first
/// record, and the framed batch (LogStream::EncodeBatch).
struct ReplAppendRequest {
  uint32_t shard = 0;
  Lsn start_lsn = kInvalidLsn;
  /// A view: of the sender's framed batch for Encode, and of the received
  /// payload after Decode (valid while the handler runs).
  Slice batch;

  // Hand-written: the batch is the raw, unprefixed rest of the payload.
  /// Writes everything before the batch. The shipper frames the batch
  /// straight after it (LogShipper::EncodedRequest).
  void EncodeHeader(std::string* dst) const {
    PutVarint32(dst, shard);
    PutVarint64(dst, start_lsn);
  }
  std::string Encode() const {
    std::string s;
    EncodeHeader(&s);
    s.append(batch.data(), batch.size());
    return s;
  }
  static StatusOr<ReplAppendRequest> Decode(Slice in) {
    ReplAppendRequest r;
    if (!GetVarint32(&in, &r.shard) || !GetVarint64(&in, &r.start_lsn)) {
      return Status::Corruption("repl append req");
    }
    r.batch = in;
    return r;
  }
};

/// Cumulative ack: the highest LSN the replica has applied. The ack never
/// covers batches parked in the replica's reorder buffer, so the shipper can
/// always fall back to resending from `applied_lsn + 1`.
///
/// `accepted` distinguishes "the replica kept this batch" (applied now, or
/// buffered out-of-order for a later drain) from "the replica dropped it"
/// (stall, decode failure, a gap the reorder buffer refuses because it is
/// full or disabled by a zero-byte cap). A refused batch makes the shipper
/// rewind its send cursor to the cumulative ack; an accepted one does not.
struct ReplAppendReply {
  Lsn applied_lsn = 0;
  bool accepted = true;

  static void Fields(auto& self, auto&& visit) {
    visit(self.applied_lsn, self.accepted);
  }
};

/// Sent by a replica to its primary after a restart: announces the highest
/// LSN the replica holds durably so the shipper can rewind its cursor and
/// resume immediately instead of waiting out its retry backoff (and without
/// risking a silent gap if the replica lost its applied tail).
///
/// `epoch` is the shard's promotion epoch as the sender last knew it. A
/// hello carrying a stale epoch comes from a node that missed one or more
/// promotions (typically a revived ex-primary): its history may have
/// diverged, so the current primary answers by forcing a reset snapshot
/// instead of resuming redo shipping from the announced LSN (DESIGN.md §13).
struct ReplHelloRequest {
  uint32_t shard = 0;
  Lsn durable_lsn = 0;
  uint64_t epoch = 0;

  static void Fields(auto& self, auto&& visit) {
    visit(self.shard, self.durable_lsn, self.epoch);
  }
};

/// Full-state transfer: sent by the shipper when a replica's resume LSN
/// falls below the log's truncation point (or after a primary promotion
/// re-bases the shard's log). The replica installs the catalog + store
/// images, adopts `checkpoint_lsn` as its applied LSN, and replays the log
/// tail from checkpoint_lsn + 1.
struct ReplSnapshotRequest {
  uint32_t shard = 0;
  Lsn checkpoint_lsn = kInvalidLsn;
  /// Vacuum horizon the image was cut at.
  Timestamp checkpoint_ts = 0;
  /// Largest commit timestamp contained in the image (seeds the replica's
  /// max-commit-timestamp so RCP stays monotone across the install).
  Timestamp max_commit_ts = 0;
  /// Force installation even if the replica's applied LSN is not behind —
  /// set after a promotion, when the shard's history diverged.
  bool reset = false;
  /// Views: of the sender's images for Encode, and of the received payload
  /// after Decode (valid while the handler runs), so a multi-megabyte image
  /// is copied once, into the request body.
  Slice catalog_image;
  Slice store_image;

  static void Fields(auto& self, auto&& visit) {
    visit(self.shard, self.checkpoint_lsn, self.checkpoint_ts,
          self.max_commit_ts, self.reset, self.catalog_image,
          self.store_image);
  }
};

struct ReplSnapshotReply {
  /// The replica's applied LSN after the install (== checkpoint_lsn, or its
  /// own higher LSN if it was already ahead and the install was skipped).
  Lsn applied_lsn = 0;
  bool accepted = true;

  static void Fields(auto& self, auto&& visit) {
    visit(self.applied_lsn, self.accepted);
  }
};

// --- Method descriptors ------------------------------------------------------

// Served by replica appliers.
inline constexpr rpc::RpcMethod<ReplAppendRequest, ReplAppendReply>
    kReplAppend{"repl.append"};

// Served by the primary data node (forwarded to its log shipper).
inline constexpr rpc::RpcMethod<ReplHelloRequest, rpc::EmptyMessage>
    kReplHello{"repl.hello"};

// Served by replica appliers (full-state install).
inline constexpr rpc::RpcMethod<ReplSnapshotRequest, ReplSnapshotReply>
    kReplSnapshot{"repl.snapshot"};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_REPLICATION_MESSAGES_H_
