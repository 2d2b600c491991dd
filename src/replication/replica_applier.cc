#include "src/replication/replica_applier.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/rpc/fields.h"
#include "src/storage/snapshot.h"

namespace globaldb {

ReplicaApplier::ReplicaApplier(sim::Simulator* sim, sim::Network* network,
                               NodeId self, ShardId shard, ShardStore* store,
                               Catalog* catalog, sim::CpuScheduler* cpu,
                               ApplierOptions options)
    : sim_(sim),
      self_(self),
      server_(network, self),
      shard_(shard),
      store_(store),
      catalog_(catalog),
      cpu_(cpu),
      options_(options),
      decisions_(options.decision_memo_capacity),
      resolved_signal_(sim) {
  server_.Handle(kReplAppend, [this](NodeId from, ReplAppendRequest request) {
    return HandleAppend(from, std::move(request));
  });
  server_.Handle(kReplSnapshot,
                 [this](NodeId from, ReplSnapshotRequest request) {
                   return HandleSnapshot(from, std::move(request));
                 });
}

sim::Task<StatusOr<ReplSnapshotReply>> ReplicaApplier::HandleSnapshot(
    NodeId from, ReplSnapshotRequest request) {
  ReplSnapshotReply ack;
  // A reset install is always allowed (a newer promotion may change the
  // primary again); a plain catch-up snapshot must come from the current
  // primary once a reset pinned one.
  if (request.shard != shard_ || stalled_ ||
      (!request.reset && primary_filter_ != kInvalidNodeId &&
       from != primary_filter_)) {
    ack.applied_lsn = applied_lsn_;
    ack.accepted = false;
    co_return ack;
  }
  if (!request.reset && request.checkpoint_lsn <= applied_lsn_) {
    // Already at or past the checkpoint (a redo batch beat the snapshot):
    // nothing to install, report where we are.
    ack.applied_lsn = applied_lsn_;
    ack.accepted = true;
    co_return ack;
  }

  // Charge the install like a replay of the image (rough: one record per
  // live version).
  co_await cpu_->Consume(options_.apply_cost_per_record *
                         std::max<size_t>(1, request.store_image.size() /
                                                 128));

  // Hold the apply gate across the install: in-flight HandleAppend replays
  // must not interleave with the wholesale state swap. Re-check staleness
  // under the gate — a batch that drained while we waited may have advanced
  // the applied LSN past the checkpoint.
  co_await AcquireApply();
  if (!request.reset && request.checkpoint_lsn <= applied_lsn_) {
    ReleaseApply();
    ack.applied_lsn = applied_lsn_;
    ack.accepted = true;
    co_return ack;
  }
  Status s = InstallCatalog(request.catalog_image, catalog_);
  if (s.ok()) s = InstallShardStore(request.store_image, store_);
  if (!s.ok()) {
    GDB_LOG(Error) << "replica " << self_
                   << ": snapshot install failed: " << s.ToString();
    metrics_.Add("apply.bad_snapshots");
    ReleaseApply();
    ack.applied_lsn = applied_lsn_;
    ack.accepted = false;
    co_return ack;
  }
  applied_lsn_ = request.checkpoint_lsn;
  max_commit_ts_ = std::max(max_commit_ts_, request.max_commit_ts);
  if (request.reset) {
    // History reset: from here on, only the new primary's stream is valid.
    primary_filter_ = from;
    ++install_epoch_;
  }
  // Drop every buffered out-of-order batch: anything parked below the new
  // applied LSN is stale (pre-checkpoint history — with `reset`, possibly
  // from a dead primary) and must never replay on top of the fresh image;
  // anything above it the shipper resends from checkpoint_lsn + 1 anyway.
  reorder_.clear();
  reorder_bytes_ = 0;
  // Rebuild the pending-commit set from the image's provisional state: the
  // in-flight transactions captured mid-2PC. Lower bound 0 (unknown) —
  // replica readers wait until the replayed COMMIT/ABORT resolves them.
  // Participant lists do not survive the install (the image carries only
  // provisional tuples, not PREPARE payloads): if this replica is later
  // promoted with one of these still pending, resolution queries every
  // shard.
  pending_.clear();
  pending_participants_.clear();
  for (TxnId txn : store_->ProvisionalTxns()) pending_[txn] = 0;
  resolved_signal_.NotifyAll();
  ReleaseApply();
  metrics_.Add("apply.snapshot_installs");
  ack.applied_lsn = applied_lsn_;
  ack.accepted = true;
  co_return ack;
}

sim::Task<StatusOr<ReplAppendReply>> ReplicaApplier::HandleAppend(
    NodeId from, ReplAppendRequest request) {
  // Every exit acks the current applied LSN — cumulative, never covering
  // batches that are merely buffered — so the shipper can always fall back
  // to "resend from applied_lsn_ + 1". `accepted=false` marks batches the
  // replica dropped (stall, decode failure, refused gap): those make the
  // shipper rewind immediately instead of waiting out the window.
  ReplAppendReply ack;
  if (request.shard != shard_ ||
      (primary_filter_ != kInvalidNodeId && from != primary_filter_)) {
    metrics_.Add("apply.bad_batches");
    ack.applied_lsn = applied_lsn_;
    ack.accepted = false;
    co_return ack;
  }
  if (stalled_) {
    // Pretend the batch was lost; the shipper will retry.
    ack.applied_lsn = applied_lsn_;
    ack.accepted = false;
    co_return ack;
  }
  // The records view the request's payload, which outlives this handler's
  // suspensions, or `decompressed`, which lives in its frame.
  std::string decompressed;
  std::vector<RedoRecord> records;
  if (!LogStream::DecodeBatch(request.batch, &decompressed, &records).ok()) {
    metrics_.Add("apply.bad_batches");
    ack.applied_lsn = applied_lsn_;
    ack.accepted = false;
    co_return ack;
  }
  if (request.start_lsn > applied_lsn_ + 1) {
    // LSN gap: an earlier window slot is still in flight (or was lost).
    // Park the batch for an in-order drain instead of refusing, unless the
    // buffer is full (a zero-byte cap disables reordering: TryBuffer then
    // refuses every batch). The gap check and the buffer insert are one
    // synchronous region — no suspension point — so a concurrent handler
    // draining the buffer cannot miss this batch.
    BufferedBatch batch;
    batch.end_lsn = records.empty() ? request.start_lsn : records.back().lsn;
    batch.wire = request.batch.ToString();
    ack.accepted = TryBuffer(request.start_lsn, std::move(batch));
    ack.applied_lsn = applied_lsn_;
    co_return ack;
  }

  if (extra_apply_delay_ > 0) co_await sim_->Sleep(extra_apply_delay_);

  // In-order (or duplicate) batch: replay it, then drain whatever buffered
  // batches it made contiguous. Pipelined shipping makes this handler
  // reentrant, so the replay region is serialized behind a FIFO gate.
  const uint64_t epoch = install_epoch_;
  co_await AcquireApply();
  if (epoch != install_epoch_) {
    // A reset install landed while this batch waited at the gate: its
    // records belong to the dead primary's timeline. Drop them.
    ReleaseApply();
    metrics_.Add("apply.bad_batches");
    ack.applied_lsn = applied_lsn_;
    ack.accepted = false;
    co_return ack;
  }
  size_t applied = co_await ApplyRecords(std::move(records));
  applied += co_await DrainReorder();
  ReleaseApply();
  metrics_.Add("apply.records", static_cast<int64_t>(applied));
  metrics_.Add("apply.batches");
  ack.applied_lsn = applied_lsn_;
  co_return ack;
}

sim::Task<void> ReplicaApplier::AcquireApply() {
  if (!apply_busy_) {
    apply_busy_ = true;
    co_return;
  }
  apply_waiters_.emplace_back(sim_);
  sim::Future<bool> turn = apply_waiters_.back().GetFuture();
  (void)co_await turn;
}

void ReplicaApplier::ReleaseApply() {
  if (apply_waiters_.empty()) {
    apply_busy_ = false;
    return;
  }
  // Hand the gate to the next waiter directly (stays busy).
  sim::Promise<bool> next = std::move(apply_waiters_.front());
  apply_waiters_.pop_front();
  next.TrySet(true);
}

sim::Task<size_t> ReplicaApplier::ApplyRecords(
    std::vector<RedoRecord> records) {
  size_t applied = 0;
  for (const RedoRecord& record : records) {
    if (record.lsn <= applied_lsn_) continue;  // duplicate from a resend
    // Replay cost (the node's multi-core CpuScheduler models the paper's
    // parallel replay).
    co_await cpu_->Consume(options_.apply_cost_per_record);
    ApplyRecord(record);
    applied_lsn_ = record.lsn;
    ++applied;
  }
  co_return applied;
}

sim::Task<size_t> ReplicaApplier::DrainReorder() {
  size_t applied = 0;
  while (!reorder_.empty() && reorder_.begin()->first <= applied_lsn_ + 1) {
    auto it = reorder_.begin();
    BufferedBatch batch = std::move(it->second);
    reorder_bytes_ -= batch.wire.size();
    reorder_.erase(it);
    // It decoded when it arrived; `batch` and `decompressed` hold the bytes
    // its records view until they are applied.
    std::string decompressed;
    std::vector<RedoRecord> records;
    GDB_CHECK(LogStream::DecodeBatch(batch.wire, &decompressed, &records).ok());
    applied += co_await ApplyRecords(std::move(records));
    metrics_.Add("apply.reorder_drained");
  }
  co_return applied;
}

bool ReplicaApplier::TryBuffer(Lsn start_lsn, BufferedBatch batch) {
  auto it = reorder_.find(start_lsn);
  if (it != reorder_.end()) {
    metrics_.Add("apply.reorder_duplicates");
    if (batch.end_lsn <= it->second.end_lsn) return true;  // already covered
    reorder_bytes_ -= it->second.wire.size();
    reorder_.erase(it);
  }
  while (reorder_bytes_ + batch.wire.size() >
         options_.reorder_buffer_bytes) {
    // Over the cap: evict the farthest-ahead batch (it is the one the
    // shipper will get to resending last). If the newcomer is the farthest,
    // refuse it instead — the shipper falls back to its cumulative-ack
    // rewind.
    if (reorder_.empty() || std::prev(reorder_.end())->first <= start_lsn) {
      metrics_.Add("apply.reorder_refused");
      return false;
    }
    auto last = std::prev(reorder_.end());
    reorder_bytes_ -= last->second.wire.size();
    reorder_.erase(last);
    metrics_.Add("apply.reorder_evictions");
  }
  reorder_bytes_ += batch.wire.size();
  reorder_.emplace(start_lsn, std::move(batch));
  metrics_.Add("apply.reordered");
  return true;
}

void ReplicaApplier::ApplyRecord(const RedoRecord& record) {
  switch (record.type) {
    case RedoType::kInsert:
      store_->GetOrCreateTable(record.table_id)
          ->ApplyInsert(record.key, record.value, record.txn_id);
      break;
    case RedoType::kUpdate:
      store_->GetOrCreateTable(record.table_id)
          ->ApplyUpdate(record.key, record.value, record.txn_id);
      break;
    case RedoType::kDelete:
      store_->GetOrCreateTable(record.table_id)
          ->ApplyDelete(record.key, record.txn_id);
      break;
    case RedoType::kPendingCommit:
    case RedoType::kPrepare:
      // Timestamp = lower bound on the eventual commit timestamp.
      pending_[record.txn_id] = record.timestamp;
      if (record.type == RedoType::kPrepare && !record.value.empty()) {
        auto shards = rpc::Decode<std::vector<ShardId>>(record.value);
        GDB_CHECK(shards.ok())
            << "malformed PREPARE participant list, txn " << record.txn_id;
        pending_participants_[record.txn_id] = std::move(*shards);
      }
      break;
    case RedoType::kCommit:
    case RedoType::kCommitPrepared:
      store_->CommitTxn(record.txn_id, record.timestamp);
      max_commit_ts_ = std::max(max_commit_ts_, record.timestamp);
      decisions_.Record(record.txn_id, /*committed=*/true, record.timestamp);
      ResolveTxn(record.txn_id);
      break;
    case RedoType::kAbort:
    case RedoType::kAbortPrepared:
      store_->AbortTxn(record.txn_id);
      decisions_.Record(record.txn_id, /*committed=*/false, 0);
      ResolveTxn(record.txn_id);
      break;
    case RedoType::kHeartbeat:
      // Guarantees the max commit timestamp advances on idle shards
      // (Section IV-A) so the RCP keeps moving forward.
      max_commit_ts_ = std::max(max_commit_ts_, record.timestamp);
      break;
    case RedoType::kDdl: {
      Status s = catalog_->ApplyDdl(record.value, record.timestamp);
      if (!s.ok()) {
        GDB_LOG(Error) << "replica " << self_
                       << ": DDL replay failed: " << s.ToString();
      }
      max_commit_ts_ = std::max(max_commit_ts_, record.timestamp);
      break;
    }
    case RedoType::kCheckpoint:
      // The primary checkpointed at this vacuum horizon; prune our version
      // chains at the same horizon so replica memory tracks the primary's.
      metrics_.Add(
          "storage.versions_gced",
          static_cast<int64_t>(store_->Vacuum(record.timestamp).reclaimed));
      break;
  }
}

void ReplicaApplier::ResolveTxn(TxnId txn) {
  pending_participants_.erase(txn);
  if (pending_.erase(txn) > 0) {
    resolved_signal_.NotifyAll();
  }
}

sim::Task<void> ReplicaApplier::WaitResolved(TxnId txn) {
  metrics_.Add("apply.pending_waits");
  while (pending_.count(txn) > 0) {
    co_await resolved_signal_.Wait();
  }
}

}  // namespace globaldb
