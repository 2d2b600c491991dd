#include "src/cluster/data_node.h"

#include <algorithm>
#include <utility>

#include "src/cluster/scan_batch_exec.h"
#include "src/common/logging.h"
#include "src/rpc/fields.h"
#include "src/storage/snapshot.h"

namespace globaldb {

namespace {

// Outcome-resolution RPCs retry at the protocol level (the resolver loop
// owns backoff and re-routing across promotions), so the client itself
// never retries.
rpc::RpcPolicy ResolutionRpcPolicy() {
  rpc::RpcPolicy policy;
  policy.max_attempts = 1;
  return policy;
}

}  // namespace

DataNode::DataNode(sim::Simulator* sim, sim::Network* network, NodeId self,
                   ShardId shard, DataNodeOptions options)
    : sim_(sim),
      network_(network),
      self_(self),
      server_(network, self),
      shard_(shard),
      options_(options),
      store_(shard),
      locks_(sim, options.lock_timeout),
      cpu_(sim, options.cores),
      durability_(&log_, &metrics_),
      decided_(options.decision_memo_capacity),
      client_(network, self, ResolutionRpcPolicy()) {
  BindService();
}

void DataNode::ConfigureReplication(std::vector<NodeId> replicas,
                                    ShipperOptions options) {
  shipper_ = std::make_unique<LogShipper>(sim_, network_, self_, shard_,
                                          &log_, std::move(replicas), options);
  // The shipper's quorum ack now bounds log truncation, and the durability
  // manager's checkpoint backs the shipper's truncated-cursor fallback.
  durability_.set_shipper(shipper_.get());
  shipper_->SetDurability(&durability_);
}

void DataNode::Start() {
  if (shipper_ != nullptr) shipper_->Start();
  // A promoted primary resolves its inherited in-doubt transactions before
  // their rows unblock for new writers (the locks were pinned at install).
  for (const auto& [txn, info] : in_doubt_) {
    sim_->Spawn(ResolveOutcome(txn, info));
  }
  if (options_.enable_checkpoints && checkpointer_ == nullptr) {
    Checkpointer::Options copts;
    copts.interval = options_.checkpoint_interval;
    checkpointer_ = std::make_unique<Checkpointer>(
        sim_, &store_, &catalog_, &durability_,
        [this](RedoRecord record) {
          return AppendAndNotify(std::move(record));
        },
        [this] { return max_commit_ts_; }, &metrics_, copts);
    checkpointer_->Start();
  }
}

void DataNode::Stop() {
  stopped_ = true;
  if (checkpointer_ != nullptr) checkpointer_->Stop();
  if (shipper_ != nullptr) shipper_->Stop();
}

void DataNode::ConfigureOutcomeResolution(
    std::function<NodeId(ShardId)> shard_primary, uint32_t num_shards) {
  shard_primary_ = std::move(shard_primary);
  num_shards_ = num_shards;
}

void DataNode::InstallForPromotion(Lsn applied_lsn, Timestamp max_commit_ts,
                                   const std::string& catalog_image,
                                   const std::string& store_image,
                                   const std::map<TxnId, InDoubtTxn>& in_doubt,
                                   const DecisionMemo* replayed_decisions,
                                   uint64_t promotion_epoch) {
  GDB_CHECK(shipper_ == nullptr && checkpointer_ == nullptr)
      << "InstallForPromotion must precede ConfigureReplication/Start";
  Status status = InstallCatalog(Slice(catalog_image), &catalog_);
  if (status.ok()) status = InstallShardStore(Slice(store_image), &store_);
  GDB_CHECK(status.ok()) << "promotion install failed: " << status.ToString();
  // Continue the shard's LSN sequence where the promoted replica's replay
  // stopped: peers at or below `applied_lsn` re-base via snapshot, peers
  // cannot be above it (it was the most caught-up member).
  log_.ResetBase(applied_lsn + 1);
  max_commit_ts_ = std::max(max_commit_ts_, max_commit_ts);
  promotion_epoch_ = promotion_epoch;
  // Adopt the replica's replayed COMMIT/ABORT memo: a coordinator re-driving
  // phase-2 against this promoted primary must get an idempotent answer even
  // for outcomes the old primary applied.
  if (replayed_decisions != nullptr) decided_.Adopt(*replayed_decisions);
  // Provisional transactions captured in the image fall in two classes
  // (DESIGN.md §13):
  //   - prepared (in `in_doubt`): the coordinator may have decided commit.
  //     Keep them provisional, pin their row locks so new writers queue
  //     behind the outcome, and let Start() spawn a resolver per txn.
  //   - never prepared: the prepare durability wait guarantees the
  //     coordinator never decided commit without the PREPARE being durable
  //     on this (most-caught-up) replica — presumed abort is safe.
  for (TxnId txn : store_.ProvisionalTxns()) {
    auto doubt = in_doubt.find(txn);
    if (doubt != in_doubt.end()) {
      in_doubt_[txn] = doubt->second;
      for (const auto& [table_id, table] : store_.tables()) {
        const std::vector<std::string_view>* keys = table->TouchedKeys(txn);
        if (keys == nullptr) continue;
        for (std::string_view key : *keys) {
          locks_.TryAcquire(txn, table_id, RowKey(key));
        }
      }
      metrics_.Add("dn.promotion_in_doubt");
      continue;
    }
    store_.AbortTxn(txn);
    AppendAndNotify(RedoRecord::AbortPrepared(txn));
    decided_.Record(txn, false, 0);
    metrics_.Add("dn.promotion_aborts");
    metrics_.Add("dn.promotion_aborts_presumed");
  }
  ShardSnapshot seed;
  seed.checkpoint_lsn = log_.next_lsn() - 1;
  seed.checkpoint_ts = 0;
  seed.max_commit_ts = max_commit_ts_;
  seed.catalog_image = EncodeCatalog(catalog_);
  store_.Freeze();
  seed.store = &store_;
  durability_.SeedCheckpoint(std::move(seed));
  metrics_.Add("dn.promotions");
}

Lsn DataNode::AppendAndNotify(RedoRecord record) {
  const Lsn lsn = log_.Append(std::move(record));
  if (shipper_ != nullptr) shipper_->NotifyAppend();
  return lsn;
}

bool DataNode::MaybeCrash(CrashStage stage) {
  if (armed_crash_ != stage || stage == CrashStage::kNone) return false;
  armed_crash_ = CrashStage::kNone;
  metrics_.Add("dn.staged_crashes");
  network_->SetNodeUp(self_, false);
  return true;
}

void DataNode::ResolveInDoubtTxn(TxnId txn, bool committed, Timestamp ts,
                                 const char* source_counter) {
  auto it = in_doubt_.find(txn);
  if (it == in_doubt_.end()) return;  // a coordinator re-drive won the race
  in_doubt_.erase(it);
  if (committed) {
    store_.CommitTxn(txn, ts);
    max_commit_ts_ = std::max(max_commit_ts_, ts);
    AppendAndNotify(RedoRecord::CommitPrepared(txn, ts));
    decided_.Record(txn, true, ts);
    metrics_.Add("dn.promotion_commits");
  } else {
    store_.AbortTxn(txn);
    AppendAndNotify(RedoRecord::AbortPrepared(txn));
    decided_.Record(txn, false, 0);
    metrics_.Add("dn.promotion_aborts");
  }
  metrics_.Add(source_counter);
  locks_.ReleaseAll(txn);
}

sim::Task<void> DataNode::ResolveOutcome(TxnId txn, InDoubtTxn info) {
  // The owning coordinator is encoded in the transaction id (CN node id in
  // the high bits); an empty participant list (the PREPARE pre-dated the
  // participant payload, e.g. rebuilt from a snapshot install) degrades to
  // querying every shard.
  const NodeId owner_cn = static_cast<NodeId>(txn >> 40);
  std::vector<ShardId> peers = info.participants;
  if (peers.empty()) {
    for (ShardId s = 0; s < num_shards_; ++s) peers.push_back(s);
  }
  int cn_transport_failures = 0;
  while (!stopped_ && in_doubt_.count(txn) > 0) {
    // 1. Own memo: a re-driven phase-2 delivery may already have landed.
    if (const TxnDecision* own = decided_.Lookup(txn)) {
      ResolveInDoubtTxn(txn, own->committed, own->ts,
                        own->committed ? "dn.outcome_resolved_by_cn"
                                       : "dn.promotion_aborts_resolved");
      co_return;
    }
    // 2. The owning CN's decision cache.
    TxnOutcomeRequest query;
    query.txn = txn;
    metrics_.Add("dn.outcome_queries");
    auto cn_reply = co_await client_.Call(owner_cn, kCnTxnOutcome, query);
    if (stopped_ || in_doubt_.count(txn) == 0) co_return;
    bool cn_definitive = false;
    if (cn_reply.ok()) {
      cn_transport_failures = 0;
      if (cn_reply->outcome == TxnOutcome::kCommitted) {
        ResolveInDoubtTxn(txn, true, cn_reply->ts,
                          "dn.outcome_resolved_by_cn");
        co_return;
      }
      if (cn_reply->outcome == TxnOutcome::kAborted) {
        ResolveInDoubtTxn(txn, false, 0, "dn.promotion_aborts_resolved");
        metrics_.Add("dn.outcome_resolved_by_cn");
        co_return;
      }
      // kUnknown from a reachable CN is definitive ("no decision was ever
      // made"); kPending means the CN is still deciding — retry.
      cn_definitive = cn_reply->outcome == TxnOutcome::kUnknown;
    } else {
      ++cn_transport_failures;
    }
    // 3. Peer participant primaries: any shard that applied the decision
    // (or its promoted successor, which adopted the memo) answers for it.
    bool peers_definitive = true;
    bool resolved = false;
    for (ShardId peer_shard : peers) {
      if (peer_shard == shard_) continue;
      const NodeId peer = shard_primary_ ? shard_primary_(peer_shard)
                                         : kInvalidNodeId;
      if (peer == kInvalidNodeId) {
        peers_definitive = false;
        continue;
      }
      metrics_.Add("dn.outcome_queries");
      auto peer_reply = co_await client_.Call(peer, kDnTxnState, query);
      if (stopped_ || in_doubt_.count(txn) == 0) co_return;
      if (!peer_reply.ok()) {
        peers_definitive = false;
        continue;
      }
      if (peer_reply->outcome == TxnOutcome::kCommitted) {
        ResolveInDoubtTxn(txn, true, peer_reply->ts,
                          "dn.outcome_resolved_by_peer");
        resolved = true;
        break;
      }
      if (peer_reply->outcome == TxnOutcome::kAborted) {
        ResolveInDoubtTxn(txn, false, 0, "dn.promotion_aborts_resolved");
        metrics_.Add("dn.outcome_resolved_by_peer");
        resolved = true;
        break;
      }
      if (peer_reply->outcome != TxnOutcome::kUnknown) {
        peers_definitive = false;  // kPending: ask again later
      }
    }
    if (resolved) co_return;
    // 4. Presumed abort — only once every source is definitive: the CN
    // answered "unknown" (or is considered permanently gone after repeated
    // transport failures) and every peer answered "unknown". A CN that
    // decided commit records the decision before phase-2, and a commit it
    // acked is durable at some participant's quorum, so universal "unknown"
    // means the commit was never decided or never acknowledged.
    if ((cn_definitive ||
         cn_transport_failures >= options_.outcome_cn_give_up) &&
        peers_definitive) {
      ResolveInDoubtTxn(txn, false, 0, "dn.promotion_aborts_presumed");
      co_return;
    }
    co_await sim_->Sleep(options_.outcome_retry_backoff);
  }
}

void DataNode::BindService() {
  server_.Handle(kDnLockRead, [this](NodeId from, ReadRequest request) {
    return HandleLockRead(from, std::move(request));
  });
  server_.Handle(kDnReadBatch, [this](NodeId from, ReadBatchRequest request) {
    return HandleReadBatch(from, std::move(request));
  });
  server_.Handle(kDnScanBatch, [this](NodeId from, ScanBatchRequest request) {
    return HandleScanBatch(from, std::move(request));
  });
  server_.Handle(kDnWriteBatch, [this](NodeId from, WriteBatchRequest request) {
    return HandleWriteBatch(from, std::move(request));
  });
  server_.Handle(kDnPrecommit, [this](NodeId from, TxnControlRequest request) {
    return HandlePrecommit(from, std::move(request));
  });
  server_.Handle(kDnCommit, [this](NodeId from, TxnControlRequest request) {
    return HandleCommit(from, std::move(request));
  });
  server_.Handle(kDnAbort, [this](NodeId from, TxnControlRequest request) {
    return HandleAbort(from, std::move(request));
  });
  server_.Handle(kDnDdl, [this](NodeId from, DdlRequest request) {
    return HandleDdl(from, std::move(request));
  });
  server_.Handle(kDnHeartbeat, [this](NodeId from, TxnControlRequest request) {
    return HandleHeartbeat(from, std::move(request));
  });
  server_.Handle(kReplHello, [this](NodeId from, ReplHelloRequest request) {
    return HandleReplHello(from, std::move(request));
  });
  server_.Handle(kDnStatus, [this](NodeId from, rpc::EmptyMessage request) {
    return HandleStatus(from, std::move(request));
  });
  server_.Handle(kDnReadHorizon,
                 [this](NodeId from, ReadHorizonRequest request) {
                   return HandleReadHorizon(from, std::move(request));
                 });
  server_.Handle(kDnTxnState, [this](NodeId from, TxnOutcomeRequest request) {
    return HandleTxnState(from, std::move(request));
  });
}

sim::Task<StatusOr<TxnOutcomeReply>> DataNode::HandleTxnState(
    NodeId from, TxnOutcomeRequest request) {
  // Peer in-doubt resolution stays cheap (no CPU charge): it runs while the
  // asking shard holds row locks.
  metrics_.Add("dn.txn_state_queries");
  TxnOutcomeReply reply;
  if (const TxnDecision* decision = decided_.Lookup(request.txn)) {
    reply.outcome = decision->committed ? TxnOutcome::kCommitted
                                        : TxnOutcome::kAborted;
    reply.ts = decision->ts;
  }
  // No decision (including: the txn is in doubt here too) → kUnknown.
  co_return reply;
}

sim::Task<StatusOr<DnStatusReply>> DataNode::HandleStatus(
    NodeId from, rpc::EmptyMessage request) {
  // Health probes must stay cheap: no CPU charge, so a saturated node still
  // answers and is not mistaken for a dead one.
  metrics_.Add("dn.status_probes");
  DnStatusReply reply;
  reply.durable_lsn = log_.next_lsn() - 1;
  reply.max_commit_ts = max_commit_ts_;
  co_return reply;
}

sim::Task<StatusOr<rpc::EmptyMessage>> DataNode::HandleReadHorizon(
    NodeId from, ReadHorizonRequest request) {
  // The RCP collector's cluster-wide oldest in-flight read timestamp: the
  // vacuum horizon for checkpoint-time GC (monotone clamp inside).
  durability_.AdvanceReadHorizon(request.horizon);
  co_return rpc::EmptyMessage{};
}

sim::Task<StatusOr<rpc::EmptyMessage>> DataNode::HandleReplHello(
    NodeId from, ReplHelloRequest request) {
  metrics_.Add("dn.repl_hellos");
  if (request.shard == shard_ && shipper_ != nullptr) {
    if (request.epoch < promotion_epoch_) {
      // The sender missed at least one promotion: its history may contain a
      // dead primary's unreplicated tail, so its announced durable LSN is
      // not trustworthy. Adopt it into the replica set if it is new (a
      // revived ex-primary re-integrating) and force a reset snapshot
      // instead of resuming redo shipping (DESIGN.md §13).
      metrics_.Add("dn.stale_epoch_hellos");
      shipper_->AddReplica(from);
      shipper_->RequireSnapshot(from);
    } else {
      shipper_->AnnounceReplica(from, request.durable_lsn);
    }
  }
  co_return rpc::EmptyMessage{};
}

sim::Task<StatusOr<ReadReply>> DataNode::HandleLockRead(NodeId from,
                                                        ReadRequest request) {
  co_await cpu_.Consume(options_.read_cost);
  metrics_.Add("dn.lock_reads");
  // SELECT ... FOR UPDATE semantics: take the row lock, then return the
  // *latest committed* version. Writers following this read update under
  // the held lock and cannot hit a write-write conflict.
  Status lock_status =
      co_await locks_.Acquire(request.txn, request.table, request.key);
  if (!lock_status.ok()) co_return lock_status;
  ReadReply reply;
  MvccTable* table = store_.GetTable(request.table);
  if (table == nullptr) {
    co_return reply;  // catalog-known table, storage-empty shard
  }
  ReadResult result = table->Read(request.key, kTimestampMax - 1, request.txn);
  reply.found = result.found;
  reply.value = result.value.ToString();
  co_return reply;
}

sim::Task<StatusOr<rpc::Encoded<ReadBatchReply>>> DataNode::HandleReadBatch(
    NodeId from, ReadBatchRequest request) {
  metrics_.Add("dn.read_batches");
  metrics_.Hist("dn.read_batch_entries")
      .Record(static_cast<int64_t>(request.entries.size()));
  // One snapshot resolution for the whole batch; each entry is then an
  // independent MVCC lookup (plus a row lock for for_update entries).
  // Entry failures are per-entry: a lock timeout on one key must not
  // invalidate the rows already fetched for the others. Each entry is
  // written into the reply as soon as it is read, before the next entry's
  // CPU charge suspends the handler, so no view outlives its read.
  std::string wire = rpc::BeginOkEnvelope();
  ReadBatchReply::PutCount(&wire, request.entries.size());
  for (const ReadBatchRequest::Entry& entry : request.entries) {
    co_await cpu_.Consume(options_.read_cost);
    metrics_.Add("dn.batched_reads");
    Timestamp snapshot = request.snapshot;
    if (entry.for_update) {
      Status lock_status =
          co_await locks_.Acquire(request.txn, entry.table, entry.key);
      if (!lock_status.ok()) {
        ReadBatchReply::PutEntry(
            &wire, {lock_status.code(), lock_status.message(), false, {}});
        continue;
      }
      // FOR UPDATE reads the latest committed version under the held lock.
      snapshot = kTimestampMax - 1;
    }
    ReadBatchReply::EntryResult result;
    // A missing table is a catalog-known table on a storage-empty shard.
    if (const MvccTable* table = store_.GetTable(entry.table)) {
      ReadResult read = table->Read(entry.key, snapshot, request.txn);
      result.found = read.found;
      result.value = read.value;
    }
    ReadBatchReply::PutEntry(&wire, result);
  }
  co_return rpc::Encoded<ReadBatchReply>{std::move(wire)};
}

sim::Task<StatusOr<rpc::Encoded<ScanBatchReply>>> DataNode::HandleScanBatch(
    NodeId from, ScanBatchRequest request) {
  metrics_.Add("dn.scan_batches");
  metrics_.Hist("dn.scan_batch_ranges")
      .Record(static_cast<int64_t>(request.ranges.size()));
  // On the primary the requesting transaction reads its own flushed
  // provisional writes; other transactions' provisional versions are simply
  // invisible, so no pending-wait predicate is needed. The pass encodes the
  // reply before the CPU charge below suspends the handler.
  ScanBatchExecResult exec = ExecuteScanBatch(
      store_, request, request.txn, options_.scan_chunk_bytes,
      options_.read_cost, options_.scan_row_cost, nullptr);
  co_await cpu_.Consume(exec.cpu_cost);
  metrics_.Add("dn.scan_ranges", exec.ranges_served);
  metrics_.Add("dn.scan_rows_returned", exec.rows_returned);
  metrics_.Add("dn.scan_rows_filtered", exec.rows_filtered);
  metrics_.Add("dn.scan_limit_hits", exec.limit_hits);
  metrics_.Add("dn.scan_join_lookups", exec.join_lookups);
  if (exec.truncated) metrics_.Add("dn.scan_chunks_truncated");
  co_return std::move(exec.reply);
}

sim::Task<Status> DataNode::ApplyWrite(TxnId txn, Timestamp snapshot,
                                       WriteOp op, TableId table_id, RowKey key,
                                       std::string value) {
  // Row lock first: writers queue instead of instantly aborting. If the
  // transaction already holds the lock (it did a locked read), the write
  // applies to the latest version — no snapshot conflict is possible.
  const bool already_held = locks_.IsHeldBy(txn, table_id, key);
  Status lock_status = co_await locks_.Acquire(txn, table_id, key);
  if (!lock_status.ok()) co_return lock_status;
  if (already_held) snapshot = kTimestampMax;

  MvccTable* table = store_.GetOrCreateTable(table_id);
  Status status;
  switch (op) {
    case WriteOp::kInsert:
      status = table->Insert(key, value, txn);
      if (status.ok()) {
        AppendAndNotify(RedoRecord::Insert(txn, table_id, key, value));
      }
      break;
    case WriteOp::kUpdate:
      status = table->Update(key, value, txn, snapshot);
      if (status.ok()) {
        AppendAndNotify(RedoRecord::Update(txn, table_id, key, value));
      }
      break;
    case WriteOp::kDelete:
      status = table->Delete(key, txn, snapshot);
      if (status.ok()) {
        AppendAndNotify(RedoRecord::Delete(txn, table_id, key));
      }
      break;
  }
  co_return status;
}

sim::Task<StatusOr<WriteBatchReply>> DataNode::HandleWriteBatch(
    NodeId from, WriteBatchRequest request) {
  metrics_.Add("dn.write_batches");
  metrics_.Hist("dn.write_batch_entries")
      .Record(static_cast<int64_t>(request.entries.size()));
  WriteBatchReply reply;
  reply.results.resize(request.entries.size());
  // This shard already rolled the transaction back after a failing entry in
  // an earlier batch (or the transaction's outcome is already decided and
  // this is a duplicated/reordered late delivery). Applying anything now
  // would re-acquire locks behind the resolution and leave orphaned
  // provisional versions; reject the whole batch instead.
  bool failed = self_aborted_txns_.count(request.txn) > 0;
  if (!failed && decided_.Lookup(request.txn) != nullptr) {
    metrics_.Add("dn.decision_dedup_hits");
    failed = true;
  }
  if (failed) metrics_.Add("dn.write_batch_rejects");
  for (size_t i = 0; i < request.entries.size(); ++i) {
    if (failed) {
      // One failing entry poisons the rest of the batch (and any batch
      // arriving after a self-rollback): they follow it in statement order
      // and the transaction is going to abort.
      reply.results[i].code = StatusCode::kAborted;
      reply.results[i].message = "skipped: transaction failed on this shard";
      continue;
    }
    co_await cpu_.Consume(options_.write_cost);
    metrics_.Add("dn.batched_writes");
    WriteBatchRequest::Entry& entry = request.entries[i];
    Status status = co_await ApplyWrite(request.txn, request.snapshot,
                                        entry.op, entry.table,
                                        std::move(entry.key),
                                        std::move(entry.value));
    reply.results[i].code = status.code();
    reply.results[i].message = std::string(status.message());
    if (!status.ok()) {
      // Roll this shard back immediately and free every lock the
      // transaction holds here: nothing stays orphaned even if the
      // coordinator's abort broadcast never arrives (it may have crashed
      // between flush and precommit).
      failed = true;
      metrics_.Add("dn.write_batch_failures");
      store_.AbortTxn(request.txn);
      AppendAndNotify(RedoRecord::Abort(request.txn));
      locks_.ReleaseAll(request.txn);
      RememberSelfAborted(request.txn);
      // The self-rollback is this shard's final word on the transaction:
      // memoize it so a late commit (which the coordinator cannot validly
      // send after seeing the entry failure) is rejected, and the
      // coordinator's abort broadcast dedups into a no-op.
      decided_.Record(request.txn, false, 0);
    }
  }
  co_return reply;
}

void DataNode::RememberSelfAborted(TxnId txn) {
  if (!self_aborted_txns_.insert(txn).second) return;
  self_aborted_order_.push_back(txn);
  constexpr size_t kMaxRemembered = 1024;
  while (self_aborted_order_.size() > kMaxRemembered) {
    self_aborted_txns_.erase(self_aborted_order_.front());
    self_aborted_order_.pop_front();
  }
}

sim::Task<StatusOr<rpc::EmptyMessage>> DataNode::HandlePrecommit(
    NodeId from, TxnControlRequest request) {
  co_await cpu_.Consume(options_.commit_cost);
  metrics_.Add("dn.precommits");
  if (const TxnDecision* prior = decided_.Lookup(request.txn)) {
    // A duplicated (or reordered-past-the-decision) precommit delivery must
    // not re-append PREPARE: a replica replaying it after the commit/abort
    // record would consider the transaction pending forever.
    metrics_.Add("dn.decision_dedup_hits");
    if (!prior->committed) {
      co_return Status::FailedPrecondition(
          "transaction already aborted on this shard");
    }
    co_return rpc::EmptyMessage{};
  }
  // PENDING_COMMIT / PREPARE is written *before* the commit timestamp is
  // assigned (Section IV-A): replicas lock the transaction's tuples from
  // this point until the final commit/abort record. The timestamp field
  // carries the CN's lower bound on the eventual commit timestamp; a 2PC
  // PREPARE also carries the participant shard list, so a promoted replica
  // knows which peers to ask when resolving the transaction in doubt.
  const std::string participants =
      request.two_phase ? rpc::Encode(request.participants) : std::string();
  RedoRecord record = request.two_phase
                          ? RedoRecord::Prepare(request.txn, participants)
                          : RedoRecord::PendingCommit(request.txn);
  record.timestamp = request.ts;
  const Lsn prepare_lsn = AppendAndNotify(std::move(record));
  if (request.two_phase && shipper_ != nullptr) {
    // The prepare must reach the replication mode's durability point before
    // the coordinator may decide commit: that is what entitles a promoted
    // (most-caught-up) replica to presume abort for any transaction whose
    // PREPARE it never replayed. No-op under async replication.
    Status durability = co_await shipper_->WaitDurable(prepare_lsn);
    if (!durability.ok()) co_return durability;
  }
  if (request.two_phase && MaybeCrash(CrashStage::kAfterPrepareAppend)) {
    co_return Status::Unavailable("staged crash after prepare append");
  }
  co_return rpc::EmptyMessage{};
}

sim::Task<StatusOr<rpc::EmptyMessage>> DataNode::HandleCommit(
    NodeId from, TxnControlRequest request) {
  co_await cpu_.Consume(options_.commit_cost);
  if (request.two_phase && MaybeCrash(CrashStage::kOnCommitArrival)) {
    // The decision arrived but nothing of it applied: the coordinator must
    // re-drive it against this shard's promoted successor.
    co_return Status::Unavailable("staged crash on commit arrival");
  }
  if (const TxnDecision* prior = decided_.Lookup(request.txn)) {
    // Duplicated or re-driven phase-2 delivery: answer from the memo
    // (idempotent) instead of re-applying. A conflicting decision is a
    // protocol violation, surfaced loudly rather than absorbed.
    metrics_.Add("dn.decision_dedup_hits");
    if (!prior->committed) {
      co_return Status::FailedPrecondition(
          "transaction already aborted on this shard");
    }
    if (shipper_ != nullptr) {
      // Re-confirm durability so the retried ack carries the same guarantee
      // as the one that was lost.
      Status durability = co_await shipper_->WaitDurable(log_.next_lsn() - 1);
      if (!durability.ok()) co_return durability;
    }
    co_return rpc::EmptyMessage{};
  }
  if (locks_.HeldCount(request.txn) == 0 &&
      in_doubt_.count(request.txn) == 0) {
    // No lock and no in-doubt entry: the transaction's writes never reached
    // this node, so committing would acknowledge nothing (DESIGN.md §13).
    metrics_.Add("dn.commit_unknown");
    if (request.two_phase) {
      GDB_LOG(Error) << "data node " << self_ << ": commit for txn "
                     << request.txn << " whose PREPARE it never saw";
    }
    co_return Status::NotFound("commit for an unknown transaction");
  }
  metrics_.Add("dn.commits");
  self_aborted_txns_.erase(request.txn);
  in_doubt_.erase(request.txn);  // the coordinator's re-drive beat the resolver
  store_.CommitTxn(request.txn, request.ts);
  max_commit_ts_ = std::max(max_commit_ts_, request.ts);
  AppendAndNotify(request.two_phase
                      ? RedoRecord::CommitPrepared(request.txn, request.ts)
                      : RedoRecord::Commit(request.txn, request.ts));
  decided_.Record(request.txn, true, request.ts);
  const Lsn commit_lsn = log_.next_lsn() - 1;
  if (request.two_phase) {
    // Commit applied and appended; the ack (and possibly the shipped
    // record) is what gets lost.
    MaybeCrash(CrashStage::kMidPhase2);
  }
  // Synchronous replication waits here; async returns immediately.
  Status durability;
  if (shipper_ != nullptr) {
    durability = co_await shipper_->WaitDurable(commit_lsn);
  }
  locks_.ReleaseAll(request.txn);
  if (!durability.ok()) co_return durability;
  co_return rpc::EmptyMessage{};
}

sim::Task<StatusOr<rpc::EmptyMessage>> DataNode::HandleAbort(
    NodeId from, TxnControlRequest request) {
  co_await cpu_.Consume(options_.commit_cost);
  if (const TxnDecision* prior = decided_.Lookup(request.txn)) {
    metrics_.Add("dn.decision_dedup_hits");
    self_aborted_txns_.erase(request.txn);
    if (prior->committed) {
      co_return Status::FailedPrecondition(
          "transaction already committed on this shard");
    }
    co_return rpc::EmptyMessage{};  // duplicate abort: a no-op
  }
  metrics_.Add("dn.aborts");
  // The coordinator's resolution arrived; no further batches can follow it
  // for this transaction, so the self-abort marker can go.
  self_aborted_txns_.erase(request.txn);
  in_doubt_.erase(request.txn);
  store_.AbortTxn(request.txn);
  AppendAndNotify(request.two_phase ? RedoRecord::AbortPrepared(request.txn)
                                    : RedoRecord::Abort(request.txn));
  decided_.Record(request.txn, false, 0);
  locks_.ReleaseAll(request.txn);
  co_return rpc::EmptyMessage{};
}

sim::Task<StatusOr<rpc::EmptyMessage>> DataNode::HandleDdl(
    NodeId from, DdlRequest request) {
  co_await cpu_.Consume(options_.commit_cost);
  metrics_.Add("dn.ddls");
  Status status = catalog_.ApplyDdl(request.payload, request.ts);
  if (!status.ok()) co_return status;
  max_commit_ts_ = std::max(max_commit_ts_, request.ts);
  AppendAndNotify(RedoRecord::Ddl(request.ts, request.payload));
  co_return rpc::EmptyMessage{};
}

sim::Task<StatusOr<rpc::EmptyMessage>> DataNode::HandleHeartbeat(
    NodeId from, TxnControlRequest request) {
  // Heartbeats are cheap; no CPU charge so they cannot be crowded out.
  metrics_.Add("dn.heartbeats");
  max_commit_ts_ = std::max(max_commit_ts_, request.ts);
  AppendAndNotify(RedoRecord::Heartbeat(request.ts));
  co_return rpc::EmptyMessage{};
}

}  // namespace globaldb
