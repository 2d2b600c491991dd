#ifndef GLOBALDB_SRC_REPLICATION_REPLICA_APPLIER_H_
#define GLOBALDB_SRC_REPLICATION_REPLICA_APPLIER_H_

#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/types.h"
#include "src/log/log_stream.h"
#include "src/replication/messages.h"
#include "src/rpc/rpc_server.h"
#include "src/sim/cpu.h"
#include "src/sim/future.h"
#include "src/sim/network.h"
#include "src/storage/catalog.h"
#include "src/storage/shard_store.h"
#include "src/txn/txn_decisions.h"

namespace globaldb {

struct ApplierOptions {
  /// CPU cost charged per replayed record (divided across the node's cores,
  /// which models the paper's parallel redo replay).
  SimDuration apply_cost_per_record = 1 * kMicrosecond;
  /// Byte cap on the out-of-order reorder buffer: batches arriving ahead of
  /// `applied_lsn + 1` (the pipelined shipper's later window slots racing
  /// an earlier one) wait here and drain in LSN order once the gap fills.
  /// 0 restores the strict refuse-any-gap policy.
  size_t reorder_buffer_bytes = 4 * 1024 * 1024;
  /// Capacity of the replayed-decision memo (DESIGN.md §13): how many
  /// COMMIT/ABORT outcomes the replica remembers so a post-promotion
  /// duplicate phase-2 delivery is rejected instead of re-applied.
  size_t decision_memo_capacity = DecisionMemo::kDefaultCapacity;
};

/// Replica-side redo replay (Section IV-A).
///
/// Applies shipped batches strictly in LSN order, maintains the replica's
/// max commit timestamp (the per-replica input to the RCP calculation), and
/// tracks *pending* transactions: a PENDING_COMMIT or PREPARE record locks
/// the transaction's tuples until its COMMIT/ABORT (or COMMIT_PREPARED/
/// ABORT_PREPARED) is replayed — readers encountering such tuples wait via
/// WaitResolved.
class ReplicaApplier {
 public:
  ReplicaApplier(sim::Simulator* sim, sim::Network* network, NodeId self,
                 ShardId shard, ShardStore* store, Catalog* catalog,
                 sim::CpuScheduler* cpu, ApplierOptions options = {});

  ReplicaApplier(const ReplicaApplier&) = delete;
  ReplicaApplier& operator=(const ReplicaApplier&) = delete;

  NodeId node_id() const { return self_; }
  ShardId shard() const { return shard_; }

  /// Highest commit timestamp replayed (advanced by commits, DDLs, and
  /// heartbeats). This is what the RCP collector polls.
  Timestamp max_commit_ts() const { return max_commit_ts_; }
  /// Last LSN applied (the ack returned to the shipper).
  Lsn applied_lsn() const { return applied_lsn_; }

  /// True if `txn` has an unresolved PENDING_COMMIT / PREPARE on this
  /// replica.
  bool IsPending(TxnId txn) const { return pending_.count(txn) > 0; }
  /// True if a reader at `snapshot` must wait for `txn` to resolve: the
  /// transaction is pending and its commit-timestamp lower bound does not
  /// already place it after the snapshot.
  bool MustWait(TxnId txn, Timestamp snapshot) const {
    auto it = pending_.find(txn);
    return it != pending_.end() && it->second <= snapshot;
  }
  /// Suspends until `txn` is no longer pending.
  sim::Task<void> WaitResolved(TxnId txn);

  /// Promotion transfer (Cluster::PromoteShard reads these synchronously
  /// while the applier is stalled): the unresolved prepared/pending set with
  /// commit-ts lower bounds, the participant shard lists decoded from
  /// replayed PREPARE records (empty vector = unknown — query every shard),
  /// and the replayed-decision memo the new primary adopts.
  const std::map<TxnId, Timestamp>& pending() const { return pending_; }
  const std::map<TxnId, std::vector<ShardId>>& pending_participants() const {
    return pending_participants_;
  }
  const DecisionMemo& decisions() const { return decisions_; }

  /// Called when the hosting replica node restarts. Batch application is
  /// write-ahead durable (an ack implies the batch is persisted), so the
  /// store, applied LSN, and the pending map — rebuilt by the recovery log
  /// scan — all survive; this clears fault-injection state plus the
  /// volatile reorder buffer (its batches were never acked as applied, so
  /// the shipper's rewind to the durable LSN resends them) and counts the
  /// restart.
  void OnRestart() {
    stalled_ = false;
    reorder_.clear();
    reorder_bytes_ = 0;
    metrics_.Add("apply.restarts");
  }

  /// Reorder-buffer occupancy (buffered out-of-order batches / bytes).
  size_t reorder_batches() const { return reorder_.size(); }
  size_t reorder_bytes() const { return reorder_bytes_; }

  /// Artificially delays replay by `d` per batch (fault injection: a slow /
  /// lagging replica for staleness and skyline tests).
  void set_extra_apply_delay(SimDuration d) { extra_apply_delay_ = d; }
  /// When true the applier acknowledges nothing (stuck replica).
  void set_stalled(bool stalled) { stalled_ = stalled; }

  Metrics& metrics() { return metrics_; }

 private:
  /// One out-of-order batch parked until the LSN gap before it fills. It
  /// owns a copy of its wire bytes (the received payload goes away with its
  /// handler), is charged their size against the buffer's cap, and decodes
  /// again when it drains.
  struct BufferedBatch {
    Lsn end_lsn = 0;
    std::string wire;
  };

  sim::Task<StatusOr<ReplAppendReply>> HandleAppend(NodeId from,
                                                    ReplAppendRequest request);
  /// Full-state install (kReplSnapshot): replaces the store + catalog with
  /// the checkpoint image, adopts its LSN, clears the reorder buffer (stale
  /// pre-checkpoint batches must not double-apply), and rebuilds the
  /// pending-commit set from the image's provisional transactions. Skipped
  /// (but acked) when the replica is already at or past the checkpoint,
  /// unless the request carries the post-promotion `reset` flag.
  sim::Task<StatusOr<ReplSnapshotReply>> HandleSnapshot(
      NodeId from, ReplSnapshotRequest request);
  /// FIFO mutual exclusion around record replay: pipelined batches make
  /// HandleAppend reentrant, and the replay loop suspends on the CPU model,
  /// so without a gate two overlapping handlers could interleave (and
  /// double-apply) records.
  sim::Task<void> AcquireApply();
  void ReleaseApply();
  /// Replays `records` in order (skipping duplicates at or below the
  /// applied LSN), copying row values into the store; returns how many
  /// were applied. The bytes the records view must stay in place until it
  /// returns. Must hold the apply gate.
  sim::Task<size_t> ApplyRecords(std::vector<RedoRecord> records);
  /// Drains buffered batches that became contiguous with the applied tail.
  /// Must hold the apply gate.
  sim::Task<size_t> DrainReorder();
  /// Parks an out-of-order batch, evicting the farthest-ahead batches when
  /// over the byte cap (or refusing the newcomer if it *is* the farthest).
  /// Returns false when the batch was refused.
  bool TryBuffer(Lsn start_lsn, BufferedBatch batch);
  void ApplyRecord(const RedoRecord& record);
  void ResolveTxn(TxnId txn);

  sim::Simulator* sim_;
  NodeId self_;
  rpc::RpcServer server_;
  ShardId shard_;
  ShardStore* store_;
  Catalog* catalog_;
  sim::CpuScheduler* cpu_;
  ApplierOptions options_;

  Lsn applied_lsn_ = 0;
  Timestamp max_commit_ts_ = 0;
  /// After a reset (post-promotion) install, only the installing primary's
  /// batches are accepted: the dead primary's unreplicated tail must never
  /// replay on top of the new timeline (its LSNs collide with the promoted
  /// primary's fresh appends).
  NodeId primary_filter_ = kInvalidNodeId;
  /// Bumped by every reset install; in-flight appends that pre-date the
  /// bump re-check it after the apply gate and drop themselves.
  uint64_t install_epoch_ = 0;
  std::map<TxnId, Timestamp> pending_;
  /// Participant shard lists of pending 2PC transactions (from the PREPARE
  /// record payload); entries without one fall back to an empty list.
  std::map<TxnId, std::vector<ShardId>> pending_participants_;
  /// Replayed COMMIT/ABORT outcomes (idempotency across promotion).
  DecisionMemo decisions_;
  sim::CondVar resolved_signal_;
  /// Out-of-order batches keyed by start LSN, waiting for their gap to fill.
  std::map<Lsn, BufferedBatch> reorder_;
  size_t reorder_bytes_ = 0;
  /// Apply-gate state: one holder, FIFO waiters.
  bool apply_busy_ = false;
  std::deque<sim::Promise<bool>> apply_waiters_;
  SimDuration extra_apply_delay_ = 0;
  bool stalled_ = false;
  Metrics metrics_;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_REPLICATION_REPLICA_APPLIER_H_
