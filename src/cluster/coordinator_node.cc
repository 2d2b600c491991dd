#include "src/cluster/coordinator_node.h"

#include <algorithm>
#include <map>

#include "src/cluster/join_keys.h"
#include "src/common/logging.h"
#include "src/sim/future.h"

namespace globaldb {

namespace {

/// The CN never retries automatically: its traffic is dominated by
/// non-idempotent mutations (writes, precommits, commits) where a blind
/// re-send after an ambiguous timeout could double-apply. Failover and
/// error handling are protocol-level decisions made at each call site.
rpc::RpcPolicy BuildPolicy() {
  rpc::RpcPolicy policy;
  policy.max_attempts = 1;
  return policy;
}

}  // namespace

CoordinatorNode::CoordinatorNode(sim::Simulator* sim, sim::Network* network,
                                 NodeId self, RegionId region, NodeId gtm_node,
                                 sim::HardwareClockOptions clock_options,
                                 CoordinatorOptions options)
    : sim_(sim),
      network_(network),
      self_(self),
      region_(region),
      gtm_node_(gtm_node),
      options_(options),
      client_(network, self, BuildPolicy()),
      server_(network, self),
      cpu_(sim, options.cores),
      decided_(options.decision_cache_capacity) {
  clock_ = std::make_unique<sim::HardwareClock>(sim, sim->rng().Fork(),
                                                clock_options);
  ts_source_ = std::make_unique<TimestampSource>(sim, network, self, gtm_node,
                                                 clock_.get());
  BindService();
}

void CoordinatorNode::SetShardMap(std::vector<NodeId> primaries) {
  shard_primaries_ = std::move(primaries);
  // Precompute the shards mastered in our region once; replicated-table
  // reads rotate across this set on every statement.
  local_replicated_shards_.clear();
  for (ShardId s = 0; s < static_cast<ShardId>(shard_primaries_.size());
       ++s) {
    if (network_->RegionOf(shard_primaries_[s]) == region_) {
      local_replicated_shards_.push_back(s);
    }
  }
}

void CoordinatorNode::AddReplica(ShardId shard, NodeId node, RegionId region) {
  // Base latency estimated from the topology (one-way).
  const SimDuration latency = network_->topology().OneWayLatency(
      region_, region);
  selector_.AddReplica(node, shard, region, latency);
}

void CoordinatorNode::SetPeerCns(std::vector<NodeId> peers) {
  peer_cns_ = std::move(peers);
}

void CoordinatorNode::UpdateShardPrimary(ShardId shard, NodeId node) {
  if (shard >= static_cast<ShardId>(shard_primaries_.size())) return;
  shard_primaries_[shard] = node;
  // Recompute the local-region rotation set with the new primary location.
  local_replicated_shards_.clear();
  for (ShardId s = 0; s < static_cast<ShardId>(shard_primaries_.size());
       ++s) {
    if (network_->RegionOf(shard_primaries_[s]) == region_) {
      local_replicated_shards_.push_back(s);
    }
  }
  selector_.RemoveReplica(node);
  if (rcp_ != nullptr) rcp_->RemoveReplica(node);
  metrics_.Add("cn.primary_updates");
}

Timestamp CoordinatorNode::TxnHorizon() const {
  // last_committed is the floor every future begin is at or above: GClock's
  // single-shard-read bypass hands out exactly this value, and everything
  // else (GTM counter grants, GClock clock reads after commit-wait) sits
  // above it. Vacuuming *at* a snapshot is safe — visibility requires
  // end_ts > snapshot, vacuum only removes end_ts <= horizon.
  Timestamp horizon = ts_source_->last_committed();
  if (options_.enable_ror && rcp_ != nullptr && rcp_->rcp() > 0) {
    // A future ROR transaction reads at the RCP, which may trail
    // last_committed; it only moves forward, so min-ing it keeps the
    // horizon monotone.
    horizon = std::min(horizon, rcp_->rcp());
  }
  for (const auto& [txn, snapshot] : active_snapshots_) {
    horizon = std::min(horizon, snapshot);
  }
  return horizon;
}

void CoordinatorNode::StartServices(bool rcp_collector) {
  services_running_ = true;
  std::vector<RcpService::ReplicaDesc> descs;
  for (const auto& [node, info] : selector_.replicas()) {
    descs.push_back({node, info.shard});
  }
  rcp_ = std::make_unique<RcpService>(sim_, network_, self_, std::move(descs),
                                      peer_cns_, &selector_,
                                      options_.rcp_interval);
  if (rcp_collector) {
    rcp_->Activate();
    sim_->Spawn(HeartbeatLoop());
    sim_->Spawn(HorizonLoop());
  }
}

void CoordinatorNode::BindService() {
  server_.Handle(kCnRcpUpdate, [this](NodeId from, RcpUpdateMessage update) {
    return HandleRcpUpdate(from, std::move(update));
  });
  server_.Handle(kCnDdlApply, [this](NodeId from, DdlRequest request) {
    return HandleDdlApply(from, std::move(request));
  });
  server_.Handle(kCnTxnHorizon, [this](NodeId from, rpc::EmptyMessage request) {
    return HandleTxnHorizon(from, std::move(request));
  });
  server_.Handle(kCnTxnOutcome, [this](NodeId from, TxnOutcomeRequest request) {
    return HandleTxnOutcome(from, std::move(request));
  });
}

sim::Task<StatusOr<TxnOutcomeReply>> CoordinatorNode::HandleTxnOutcome(
    NodeId from, TxnOutcomeRequest request) {
  metrics_.Add("cn.outcome_queries_served");
  TxnOutcomeReply reply;
  if (const TxnDecision* decision = decided_.Lookup(request.txn)) {
    reply.outcome = decision->committed ? TxnOutcome::kCommitted
                                        : TxnOutcome::kAborted;
    reply.ts = decision->ts;
  } else if (active_snapshots_.count(request.txn) > 0) {
    // The transaction is still open here: the decision may be seconds away
    // (e.g. a slow CommitTs). "Unknown" would license presumed abort, so
    // answer pending and make the asker retry.
    reply.outcome = TxnOutcome::kPending;
  }
  co_return reply;
}

sim::Task<StatusOr<TxnHorizonReply>> CoordinatorNode::HandleTxnHorizon(
    NodeId from, rpc::EmptyMessage request) {
  TxnHorizonReply reply;
  reply.horizon = TxnHorizon();
  co_return reply;
}

sim::Task<void> CoordinatorNode::HorizonLoop() {
  while (services_running_) {
    co_await sim_->Sleep(options_.horizon_interval);
    Timestamp horizon = TxnHorizon();
    if (!peer_cns_.empty()) {
      std::vector<NodeId> peers;
      for (NodeId peer : peer_cns_) {
        if (peer != self_) peers.push_back(peer);
      }
      auto results = co_await client_.CallAll(peers, kCnTxnHorizon,
                                              rpc::EmptyMessage{});
      for (size_t i = 0; i < peers.size(); ++i) {
        Timestamp& known = peer_horizons_[peers[i]];
        // On failure keep the last reported value: per-CN horizons are
        // monotone, so an old report is a valid (conservative) lower bound.
        if (results[i].ok()) known = std::max(known, (*results[i]).horizon);
        horizon = std::min(horizon, known);
      }
    }
    if (horizon == 0) continue;  // nothing learned yet
    ReadHorizonRequest push;
    push.horizon = horizon;
    for (NodeId primary : shard_primaries_) {
      client_.Send(primary, kDnReadHorizon, push);
    }
    metrics_.Add("cn.horizon_rounds");
  }
}

sim::Task<StatusOr<rpc::EmptyMessage>> CoordinatorNode::HandleRcpUpdate(
    NodeId from, RcpUpdateMessage update) {
  // Updates may race service startup: before the RCP service exists the
  // push is simply dropped (the next one arrives within a poll interval).
  if (rcp_ != nullptr) rcp_->ApplyUpdate(update);
  co_return rpc::EmptyMessage{};
}

sim::Task<StatusOr<rpc::EmptyMessage>> CoordinatorNode::HandleDdlApply(
    NodeId from, DdlRequest request) {
  GDB_CO_RETURN_IF_ERROR(catalog_.ApplyDdl(request.payload, request.ts));
  co_return rpc::EmptyMessage{};
}

sim::Task<void> CoordinatorNode::HeartbeatLoop() {
  while (services_running_) {
    co_await sim_->Sleep(options_.heartbeat_interval);
    // A heartbeat transaction: obtain a commit timestamp and append a
    // HEARTBEAT record on every primary so idle shards' replicas keep
    // advancing their max commit timestamp.
    auto ts = co_await ts_source_->CommitTs(ts_source_->mode());
    if (!ts.ok()) continue;  // e.g. mid-transition; retry next tick
    ts_source_->RecordCommitted(*ts);
    TxnControlRequest heartbeat;
    heartbeat.ts = *ts;
    for (NodeId primary : shard_primaries_) {
      client_.Send(primary, kDnHeartbeat, heartbeat);
    }
    metrics_.Add("cn.heartbeats");
  }
}

// --- DDL --------------------------------------------------------------------

sim::Task<Status> CoordinatorNode::CreateTable(TableSchema schema) {
  co_await cpu_.Consume(options_.statement_cost);
  auto id = catalog_.CreateTable(std::move(schema));
  if (!id.ok()) co_return id.status();
  const TableSchema* created = catalog_.FindTableById(*id);
  GDB_CHECK(created != nullptr);

  auto ts = co_await ts_source_->CommitTs(ts_source_->mode());
  if (!ts.ok()) co_return ts.status();
  ts_source_->RecordCommitted(*ts);
  catalog_.RecordDdlTimestamp(*id, *ts);

  DdlRequest request;
  request.ts = *ts;
  request.payload = Catalog::MakeCreatePayload(*created);
  GDB_CO_RETURN_IF_ERROR(co_await Broadcast(shard_primaries_, kDnDdl, request));
  // Peer CNs apply the schema directly (they do not replay redo).
  GDB_CO_RETURN_IF_ERROR(co_await Broadcast(peer_cns_, kCnDdlApply, request));
  metrics_.Add("cn.ddls");
  co_return Status::OK();
}

// --- Transactions -------------------------------------------------------------

bool CoordinatorNode::RorDdlVisible(const TableSchema& schema) const {
  const Timestamp rcp = this->rcp();
  // Condition 1: every DDL in the cluster has been replayed everywhere.
  if (rcp > catalog_.MaxDdlTimestamp()) return true;
  // Condition 2: all DDLs for this specific table have been replayed.
  return rcp > catalog_.LastDdlTimestamp(schema.id);
}

sim::Task<StatusOr<TxnHandle>> CoordinatorNode::Begin(
    bool read_only, bool single_shard, ReadOptions read_options) {
  co_await cpu_.Consume(options_.statement_cost);
  TxnHandle txn;
  txn.id = NextTxnId();
  txn.read_only = read_only;

  if (read_only && options_.enable_ror && rcp_ != nullptr && rcp() > 0) {
    const Timestamp rcp_ts = rcp();
    bool fresh_enough = true;
    if (read_options.max_staleness > 0 &&
        ts_source_->mode() == TimestampMode::kGclock) {
      const SimDuration staleness =
          clock_->Read() - static_cast<SimTime>(rcp_ts);
      fresh_enough = staleness <= read_options.max_staleness;
    }
    if (fresh_enough) {
      txn.use_ror = true;
      txn.snapshot = rcp_ts;
      txn.mode = ts_source_->mode();
      active_snapshots_[txn.id] = txn.snapshot;
      metrics_.Add("cn.ror_txns");
      co_return txn;
    }
    metrics_.Add("cn.ror_fallbacks");
  }

  auto grant = co_await ts_source_->BeginTs(read_only && single_shard);
  if (!grant.ok()) co_return grant.status();
  txn.snapshot = grant->ts;
  txn.mode = grant->mode;
  active_snapshots_[txn.id] = txn.snapshot;
  metrics_.Add("cn.txns");
  co_return txn;
}

StatusOr<ShardId> CoordinatorNode::ShardOf(const TableSchema& schema,
                                           const Row& row) const {
  const uint32_t num_shards = static_cast<uint32_t>(shard_primaries_.size());
  if (num_shards == 0) return Status::FailedPrecondition("no shards");
  if (schema.distribution == DistributionKind::kReplicated) {
    // Read any copy: rotate across the (precomputed) shards whose primaries
    // live in our region so one data node does not absorb every
    // replicated-table read.
    if (local_replicated_shards_.empty()) return ShardId{0};
    return local_replicated_shards_[replicated_rotation_++ %
                                    local_replicated_shards_.size()];
  }
  return RouteRowToShard(schema, row, num_shards);
}

std::vector<ShardId> CoordinatorNode::WriteTargets(const TableSchema& schema,
                                                   const Row& row) const {
  const uint32_t num_shards = static_cast<uint32_t>(shard_primaries_.size());
  if (schema.distribution == DistributionKind::kReplicated) {
    std::vector<ShardId> all(num_shards);
    for (uint32_t s = 0; s < num_shards; ++s) all[s] = s;
    return all;
  }
  return {RouteRowToShard(schema, row, num_shards)};
}

sim::Task<Status> CoordinatorNode::DoWrite(TxnHandle* txn,
                                           const TableSchema& schema,
                                           WriteOp op, RowKey key,
                                           std::string value,
                                           const Row& route_row) {
  std::vector<ShardId> targets = WriteTargets(schema, route_row);
  if (txn->writes == nullptr) {
    txn->writes =
        std::make_shared<TxnWriteBuffer>(sim_, txn->id, txn->snapshot);
  }
  // A flush that already failed dooms the transaction; stop buffering and
  // let the caller abort.
  GDB_CO_RETURN_IF_ERROR(txn->writes->error);

  WriteBatchRequest::Entry entry;
  entry.op = op;
  entry.table = schema.id;
  entry.key = std::move(key);
  entry.value = std::move(value);
  for (size_t i = 0; i < targets.size(); ++i) {
    const ShardId shard = targets[i];
    auto& sq = txn->writes->shards[shard];
    sq.queued.push_back(i + 1 == targets.size() ? std::move(entry) : entry);
    // The shard joins the write set at enqueue time: commit flushes to it,
    // and an abort after a partial flush must still reach it.
    txn->write_shards.insert(shard);
    if (sq.queued.size() >= options_.write_batch_max_entries) {
      StartFlush(txn->writes, shard);
    }
  }
  co_return Status::OK();
}

void CoordinatorNode::StartFlush(const std::shared_ptr<TxnWriteBuffer>& wb,
                                 ShardId shard) {
  auto it = wb->shards.find(shard);
  if (it == wb->shards.end() || it->second.queued.empty()) return;
  TxnWriteBuffer::ShardQueue& sq = it->second;
  if (!wb->error.ok()) {
    // The transaction is doomed: a batch sent now could re-acquire locks on
    // a shard that already rolled itself back after the failing entry, and
    // would stay orphaned if the CN died before the abort broadcast. Drop
    // the entries; EndTxn's abort broadcast cleans up what earlier batches
    // applied.
    sq.queued.clear();
    return;
  }
  if (sq.inflight) {
    // Per-shard serialization (see ShardQueue): the chained flush departs
    // when the in-flight batch completes, so batches reach the DN in
    // statement order regardless of network jitter.
    sq.flush_deferred = true;
    return;
  }
  WriteBatchRequest request;
  request.txn = wb->txn;
  request.snapshot = wb->snapshot;
  request.entries = std::move(sq.queued);
  sq.queued.clear();
  sq.inflight = true;
  metrics_.Add("cn.write_batches");
  metrics_.Hist("cn.write_batch_size")
      .Record(static_cast<int64_t>(request.entries.size()));
  wb->inflight.Add(1);
  ++wb->inflight_count;
  sim_->Spawn(FlushShardBatch(wb, shard, std::move(request)));
}

sim::Task<void> CoordinatorNode::FlushShardBatch(
    std::shared_ptr<TxnWriteBuffer> wb, ShardId shard,
    WriteBatchRequest request) {
  auto reply =
      co_await client_.Call(shard_primaries_[shard], kDnWriteBatch, request);
  if (!reply.ok()) {
    if (wb->error.ok()) wb->error = reply.status();
  } else {
    for (const auto& result : reply->results) {
      if (result.code == StatusCode::kOk) continue;
      metrics_.Add("cn.write_batch_entry_failures");
      if (wb->error.ok()) wb->error = result.ToStatus();
      break;
    }
  }
  TxnWriteBuffer::ShardQueue& sq = wb->shards[shard];
  sq.inflight = false;
  const bool deferred = sq.flush_deferred;
  sq.flush_deferred = false;
  // Chain before releasing the wait group: the count never dips to zero in
  // between, so a barrier already in Wait() covers the chained batch too.
  if (deferred) StartFlush(wb, shard);
  --wb->inflight_count;
  wb->inflight.Done();
}

sim::Task<Status> CoordinatorNode::FlushWrites(TxnHandle* txn) {
  auto wb = txn->writes;
  if (wb == nullptr) co_return Status::OK();
  for (auto& [shard, sq] : wb->shards) {
    if (!sq.queued.empty()) StartFlush(wb, shard);
  }
  co_await wb->inflight.Wait();
  co_return wb->error;
}

bool CoordinatorNode::NeedsFlushForKey(const TxnHandle& txn, TableId table,
                                       const RowKey& key) const {
  const TxnWriteBuffer* wb = txn.writes.get();
  if (wb == nullptr) return false;
  // A recorded failure must surface at the next barrier; flushes still on
  // the wire could race the read on the data node, so wait them out too.
  if (!wb->error.ok() || wb->inflight_count > 0) return true;
  for (const auto& [shard, sq] : wb->shards) {
    for (const auto& entry : sq.queued) {
      if (entry.table == table && entry.key == key) return true;
    }
  }
  return false;
}

bool CoordinatorNode::NeedsFlushForScan(const TxnHandle& txn, TableId table,
                                        const RowKey& start,
                                        const RowKey& end) const {
  const TxnWriteBuffer* wb = txn.writes.get();
  if (wb == nullptr) return false;
  if (!wb->error.ok() || wb->inflight_count > 0) return true;
  for (const auto& [shard, sq] : wb->shards) {
    for (const auto& entry : sq.queued) {
      if (entry.table == table && entry.key >= start &&
          (end.empty() || entry.key < end)) {
        return true;
      }
    }
  }
  return false;
}

sim::Task<Status> CoordinatorNode::Insert(TxnHandle* txn,
                                          const std::string& table,
                                          const Row& row) {
  co_await cpu_.Consume(options_.statement_cost);
  const TableSchema* schema = catalog_.FindTable(table);
  if (schema == nullptr) co_return Status::NotFound("table " + table);
  GDB_CO_RETURN_IF_ERROR(schema->ValidateRow(row));
  std::string value;
  EncodeRow(row, &value);
  co_return co_await DoWrite(txn, *schema, WriteOp::kInsert,
                             schema->PrimaryKeyOf(row), std::move(value),
                             row);
}

sim::Task<Status> CoordinatorNode::Update(TxnHandle* txn,
                                          const std::string& table,
                                          const Row& row) {
  co_await cpu_.Consume(options_.statement_cost);
  const TableSchema* schema = catalog_.FindTable(table);
  if (schema == nullptr) co_return Status::NotFound("table " + table);
  GDB_CO_RETURN_IF_ERROR(schema->ValidateRow(row));
  std::string value;
  EncodeRow(row, &value);
  co_return co_await DoWrite(txn, *schema, WriteOp::kUpdate,
                             schema->PrimaryKeyOf(row), std::move(value),
                             row);
}

sim::Task<Status> CoordinatorNode::Delete(TxnHandle* txn,
                                          const std::string& table,
                                          const Row& key_values) {
  co_await cpu_.Consume(options_.statement_cost);
  const TableSchema* schema = catalog_.FindTable(table);
  if (schema == nullptr) co_return Status::NotFound("table " + table);
  if (key_values.size() != schema->key_columns.size()) {
    co_return Status::InvalidArgument("key arity mismatch");
  }
  // Rebuild a sparse row to route and encode the key.
  Row sparse(schema->columns.size());
  for (size_t i = 0; i < schema->key_columns.size(); ++i) {
    sparse[schema->key_columns[i]] = key_values[i];
  }
  co_return co_await DoWrite(txn, *schema, WriteOp::kDelete,
                             schema->PrimaryKeyOf(sparse), "", sparse);
}

NodeId CoordinatorNode::PickReadTarget(const TxnHandle& txn, bool ddl_visible,
                                       ShardId shard) {
  if (txn.use_ror && ddl_visible) {
    auto replica = selector_.Pick(shard, txn.snapshot);
    if (replica.ok()) {
      // The primary is also a candidate: a shard mastered in this region is
      // cheaper to read locally than from a remote replica. On a near-tie
      // prefer the replica (offload primaries, Section IV-B).
      const NodeId primary = shard_primaries_[shard];
      const SimDuration primary_cost =
          2 * network_->topology().OneWayLatency(
                  region_, network_->RegionOf(primary));
      const NodeSelector::ReplicaInfo* info = selector_.Get(*replica);
      const SimDuration replica_cost =
          info != nullptr ? info->Cost() : kSimTimeMax;
      if (replica_cost <=
          primary_cost + primary_cost / 4 + 1 * kMillisecond) {
        metrics_.Add("cn.replica_reads");
        return *replica;
      }
    }
  }
  metrics_.Add("cn.primary_reads");
  return shard_primaries_[shard];
}

sim::Task<StatusOr<std::optional<Row>>> CoordinatorNode::Get(
    TxnHandle* txn, const std::string& table, const Row& key_values) {
  std::vector<MultiGetKey> keys;
  keys.push_back({table, key_values, false});
  auto rows = co_await MultiGet(txn, std::move(keys));
  if (!rows.ok()) co_return rows.status();
  co_return std::move((*rows)[0]);
}

sim::Task<StatusOr<std::vector<std::optional<Row>>>> CoordinatorNode::MultiGet(
    TxnHandle* txn, const std::string& table, const std::vector<Row>& keys) {
  std::vector<MultiGetKey> multi;
  multi.reserve(keys.size());
  for (const Row& key : keys) multi.push_back({table, key, false});
  co_return co_await MultiGet(txn, std::move(multi));
}

sim::Task<StatusOr<std::vector<std::optional<Row>>>> CoordinatorNode::MultiGet(
    TxnHandle* txn, std::vector<MultiGetKey> keys) {
  if (keys.empty()) co_return std::vector<std::optional<Row>>{};
  // Parse/plan/route CPU per key: the batch saves round trips, not planning
  // work.
  co_await cpu_.Consume(options_.statement_cost *
                        static_cast<SimDuration>(keys.size()));

  // Resolve every key to (table, encoded key, shard) and dedup exact
  // repeats — each unique key is fetched once and fanned back to every
  // requesting slot.
  struct UniqueKey {
    TableId table = 0;
    RowKey key;
    bool for_update = false;
    ShardId shard = kInvalidShardId;
    bool ddl_visible = false;
  };
  std::vector<UniqueKey> unique;
  std::vector<size_t> slot_of(keys.size());  // keys[i] -> unique index
  bool needs_flush = false;
  for (size_t i = 0; i < keys.size(); ++i) {
    const MultiGetKey& mk = keys[i];
    const TableSchema* schema = catalog_.FindTable(mk.table);
    if (schema == nullptr) co_return Status::NotFound("table " + mk.table);
    if (mk.key_values.size() != schema->key_columns.size()) {
      co_return Status::InvalidArgument("key arity mismatch");
    }
    if (mk.for_update &&
        schema->distribution == DistributionKind::kReplicated) {
      co_return Status::Unimplemented("FOR UPDATE on replicated table");
    }
    Row sparse(schema->columns.size());
    for (size_t c = 0; c < schema->key_columns.size(); ++c) {
      sparse[schema->key_columns[c]] = mk.key_values[c];
    }
    UniqueKey uk;
    uk.table = schema->id;
    uk.key = schema->PrimaryKeyOf(sparse);
    uk.for_update = mk.for_update;
    // A linear probe: batches hold tens of keys, so this beats a map.
    auto dup = std::find_if(
        unique.begin(), unique.end(), [&uk](const UniqueKey& u) {
          return u.table == uk.table && u.for_update == uk.for_update &&
                 u.key == uk.key;
        });
    slot_of[i] = static_cast<size_t>(dup - unique.begin());
    if (dup != unique.end()) continue;
    if (mk.for_update) {
      // Lock-reads pin their home shard (the lock lives on the primary);
      // plain reads of replicated tables may rotate to any local copy.
      uk.shard = RouteRowToShard(
          *schema, sparse, static_cast<uint32_t>(shard_primaries_.size()));
    } else {
      auto shard = ShardOf(*schema, sparse);
      if (!shard.ok()) co_return shard.status();
      uk.shard = *shard;
    }
    uk.ddl_visible = RorDdlVisible(*schema);
    needs_flush = needs_flush || NeedsFlushForKey(*txn, uk.table, uk.key);
    unique.push_back(std::move(uk));
  }
  metrics_.Add("cn.multigets");
  metrics_.Hist("cn.read_batch_size")
      .Record(static_cast<int64_t>(unique.size()));

  // Read-your-writes across the whole key set: at most ONE barrier no
  // matter how many keys overlap the write buffer.
  if (needs_flush) {
    metrics_.Add("cn.multiget_flush_barriers");
    GDB_CO_RETURN_IF_ERROR(co_await FlushWrites(txn));
  }

  // Group unique keys by shard; route each group independently.
  std::map<ShardId, size_t> group_of;
  std::vector<ReadGroup> groups;
  for (size_t u = 0; u < unique.size(); ++u) {
    auto [it, inserted] = group_of.try_emplace(unique[u].shard, groups.size());
    if (inserted) {
      ReadGroup group;
      group.shard = unique[u].shard;
      group.request.snapshot = txn->snapshot;
      groups.push_back(std::move(group));
    }
    ReadGroup& group = groups[it->second];
    ReadBatchRequest::Entry entry;
    entry.table = unique[u].table;
    entry.key = unique[u].key;
    entry.for_update = unique[u].for_update;
    group.request.entries.push_back(std::move(entry));
    group.slots.push_back(u);
  }
  metrics_.Hist("cn.multiget_fanout")
      .Record(static_cast<int64_t>(groups.size()));

  for (ReadGroup& group : groups) {
    bool has_lock = false;
    bool ddl_visible = true;
    for (size_t u : group.slots) {
      has_lock = has_lock || unique[u].for_update;
      ddl_visible = ddl_visible && unique[u].ddl_visible;
    }
    if (has_lock) {
      // Locks live on the primary, and they must be released at
      // commit/abort: the shard joins the write set before the RPC departs,
      // so even a failed acquisition is covered by the abort broadcast.
      group.target = shard_primaries_[group.shard];
      group.is_replica = false;
      group.request.txn = txn->id;
      txn->write_shards.insert(group.shard);
    } else {
      group.target = PickReadTarget(*txn, ddl_visible, group.shard);
      group.is_replica = group.target != shard_primaries_[group.shard];
      group.request.txn = txn->use_ror ? kInvalidTxnId : txn->id;
    }
    metrics_.Add(group.is_replica ? "cn.read_batch_replica"
                                  : "cn.read_batch_primary");
  }

  // Fan every group out in parallel: the WAN cost of the whole MultiGet is
  // one round trip to the slowest group, not a sum over keys.
  sim::WaitGroup wg(sim_);
  for (ReadGroup& group : groups) {
    wg.Add(1);
    sim_->Spawn(CallReadGroup(&group, &wg));
  }
  co_await wg.Wait();

  // First error wins: group envelope errors, then per-entry errors, in
  // group order.
  std::vector<std::optional<Row>> unique_rows(unique.size());
  for (ReadGroup& group : groups) {
    if (!group.reply.ok()) co_return group.reply.status();
    ReadBatchReply& reply = *group.reply;
    if (reply.results.size() != group.request.entries.size()) {
      co_return Status::Internal("read batch reply size mismatch");
    }
    for (size_t e = 0; e < reply.results.size(); ++e) {
      const ReadBatchReply::EntryResult& result = reply.results[e];
      if (result.code != StatusCode::kOk) co_return result.ToStatus();
      if (!result.found) continue;
      Row row;
      GDB_CO_RETURN_IF_ERROR(DecodeRow(result.value, &row));
      unique_rows[group.slots[e]] = std::move(row);
    }
  }
  std::vector<std::optional<Row>> rows(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) rows[i] = unique_rows[slot_of[i]];
  co_return rows;
}

sim::Task<void> CoordinatorNode::CallReadGroup(ReadGroup* group,
                                               sim::WaitGroup* wg) {
  auto reply = co_await client_.Call(
      group->target, group->is_replica ? kRorReadBatch : kDnReadBatch,
      group->request);
  if (!reply.ok() && group->is_replica &&
      rpc::IsTransportError(reply.status())) {
    // Failover scoped to this group: exclude the unreachable replica and
    // retry on the shard primary. Application errors are not failed over —
    // the primary would return the same answer. The other groups' results
    // are unaffected.
    selector_.MarkFailed(group->target);
    metrics_.Add("cn.replica_failovers");
    reply = co_await client_.Call(shard_primaries_[group->shard],
                                  kDnReadBatch, group->request);
  }
  group->reply = std::move(reply);
  wg->Done();
}

sim::Task<StatusOr<std::optional<Row>>> CoordinatorNode::GetForUpdate(
    TxnHandle* txn, const std::string& table, const Row& key_values) {
  co_await cpu_.Consume(options_.statement_cost);
  const TableSchema* schema = catalog_.FindTable(table);
  if (schema == nullptr) co_return Status::NotFound("table " + table);
  if (key_values.size() != schema->key_columns.size()) {
    co_return Status::InvalidArgument("key arity mismatch");
  }
  if (schema->distribution == DistributionKind::kReplicated) {
    co_return Status::Unimplemented("FOR UPDATE on replicated table");
  }
  Row sparse(schema->columns.size());
  for (size_t i = 0; i < schema->key_columns.size(); ++i) {
    sparse[schema->key_columns[i]] = key_values[i];
  }
  const uint32_t num_shards = static_cast<uint32_t>(shard_primaries_.size());
  const ShardId shard = RouteRowToShard(*schema, sparse, num_shards);

  ReadRequest request;
  request.table = schema->id;
  request.key = schema->PrimaryKeyOf(sparse);
  request.snapshot = txn->snapshot;
  request.txn = txn->id;

  if (NeedsFlushForKey(*txn, schema->id, request.key)) {
    metrics_.Add("cn.flush_barriers");
    GDB_CO_RETURN_IF_ERROR(co_await FlushWrites(txn));
  }

  // The lock must be released at commit/abort, so the shard joins the
  // transaction's write set even if no write follows — and before the RPC
  // departs: the DN may take the lock and the reply still be lost, and only
  // the abort broadcast frees an active transaction's locks.
  txn->write_shards.insert(shard);
  auto result =
      co_await client_.Call(shard_primaries_[shard], kDnLockRead, request);
  if (!result.ok()) co_return result.status();
  if (!result->found) co_return std::optional<Row>{};
  Row row;
  GDB_CO_RETURN_IF_ERROR(DecodeRow(Slice(result->value), &row));
  co_return std::optional<Row>(std::move(row));
}

sim::Task<StatusOr<std::vector<ScanResult>>> CoordinatorNode::ScanBatch(
    TxnHandle* txn, std::vector<ScanSpec> specs) {
  if (specs.empty()) co_return std::vector<ScanResult>{};
  co_await cpu_.Consume(options_.statement_cost *
                        static_cast<SimDuration>(specs.size()));
  metrics_.Add("cn.scan_batches");
  metrics_.Hist("cn.scan_batch_size")
      .Record(static_cast<int64_t>(specs.size()));

  // Resolve every spec's table, shard set, and ROR DDL visibility up front;
  // the read-your-writes check runs across ALL ranges (and join tables, for
  // which buffered writes anywhere in the table count) so the whole batch
  // needs at most one flush barrier.
  struct SpecPlan {
    TableId table = kInvalidTableId;
    TableId join_table = kInvalidTableId;
    std::vector<ShardId> shards;
    bool ddl_visible = true;
  };
  std::vector<SpecPlan> plans(specs.size());
  const uint32_t total_shards =
      static_cast<uint32_t>(shard_primaries_.size());
  bool needs_flush = false;
  for (size_t i = 0; i < specs.size(); ++i) {
    const ScanSpec& spec = specs[i];
    const TableSchema* schema = catalog_.FindTable(spec.table);
    if (schema == nullptr) co_return Status::NotFound("table " + spec.table);
    SpecPlan& plan = plans[i];
    plan.table = schema->id;
    plan.ddl_visible = RorDdlVisible(*schema);
    if (!spec.join_table.empty()) {
      const TableSchema* join_schema = catalog_.FindTable(spec.join_table);
      if (join_schema == nullptr) {
        co_return Status::NotFound("table " + spec.join_table);
      }
      plan.join_table = join_schema->id;
      plan.ddl_visible = plan.ddl_visible && RorDdlVisible(*join_schema);
      // Join keys derive from scanned rows, so the overlap with this txn's
      // buffered writes can't be computed range-wise: check the whole table.
      needs_flush =
          needs_flush || NeedsFlushForScan(*txn, join_schema->id, "", "");
    }
    if (schema->distribution == DistributionKind::kReplicated) {
      auto shard = ShardOf(*schema, {});
      if (!shard.ok()) co_return shard.status();
      plan.shards.push_back(*shard);
    } else if (spec.route.has_value()) {
      plan.shards.push_back(RouteToShard(*schema, *spec.route, total_shards));
    } else {
      for (ShardId s = 0; s < total_shards; ++s) plan.shards.push_back(s);
    }
    needs_flush = needs_flush ||
                  NeedsFlushForScan(*txn, plan.table, spec.start, spec.end);
  }
  if (needs_flush) {
    metrics_.Add("cn.scan_flush_barriers");
    GDB_CO_RETURN_IF_ERROR(co_await FlushWrites(txn));
  }

  // Group ranges by shard: each group becomes ONE streaming RPC carrying
  // every range that shard serves, in spec order.
  std::vector<ScanGroup> groups;
  std::map<ShardId, size_t> group_of;
  for (size_t i = 0; i < specs.size(); ++i) {
    const ScanSpec& spec = specs[i];
    const SpecPlan& plan = plans[i];
    ScanBatchRequest::Range range;
    range.table = plan.table;
    range.start = spec.start;
    range.end = spec.end;
    range.limit = spec.limit;
    range.reverse = spec.reverse;
    range.filter_col = spec.filter_col;
    range.filter_eq = spec.filter_eq;
    if (plan.join_table != kInvalidTableId) {
      range.join_table = plan.join_table;
      range.join_key_prefix = spec.join_key_prefix;
      range.join_key_cols = spec.join_key_cols;
      range.join_prefix = spec.join_prefix;
      range.join_limit = spec.join_limit;
    }
    for (ShardId s : plan.shards) {
      auto [it, inserted] = group_of.try_emplace(s, groups.size());
      if (inserted) {
        groups.emplace_back();
        groups.back().shard = s;
      }
      ScanGroup& group = groups[it->second];
      group.base.ranges.push_back(range);
      group.spec_of.push_back(i);
      group.ddl_visible = group.ddl_visible && plan.ddl_visible;
    }
  }

  for (ScanGroup& group : groups) {
    group.target = PickReadTarget(*txn, group.ddl_visible, group.shard);
    group.is_replica = group.target != shard_primaries_[group.shard];
    group.base.snapshot = txn->snapshot;
    group.base.txn = txn->use_ror ? kInvalidTxnId : txn->id;
    group.base.max_bytes = options_.scan_chunk_bytes;
    metrics_.Add(group.is_replica ? "cn.scan_batch_replica"
                                  : "cn.scan_batch_primary");
  }
  metrics_.Hist("cn.scan_fanout").Record(static_cast<int64_t>(groups.size()));

  sim::WaitGroup wg(sim_);
  for (ScanGroup& group : groups) {
    wg.Add(1);
    sim_->Spawn(CallScanGroup(&group, &wg));
  }
  co_await wg.Wait();
  for (const ScanGroup& group : groups) {
    if (!group.error.ok()) co_return group.error;
  }

  // Per spec: ordered k-way merge of the shard cursors. Each cursor is
  // key-sorted the way the server emitted it (ascending; descending for
  // reverse ranges), so a streaming merge yields the global order without a
  // full re-sort, capped at the spec's limit. The merge runs on views into
  // the chunk replies; only rows the spec returns are decoded.
  std::vector<ScanResult> out(specs.size());
  int64_t total_merged = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    std::vector<const std::vector<KeyValueView>*> parts;
    std::vector<KeyValueView> joined;
    for (const ScanGroup& group : groups) {
      for (size_t r = 0; r < group.spec_of.size(); ++r) {
        if (group.spec_of[r] != i) continue;
        if (!group.rows[r].empty()) parts.push_back(&group.rows[r]);
        joined.insert(joined.end(), group.joined[r].begin(),
                      group.joined[r].end());
      }
    }
    const bool reverse = specs[i].reverse;
    size_t received = 0;
    for (const std::vector<KeyValueView>* part : parts) {
      received += part->size();
    }
    std::vector<size_t> cursor(parts.size(), 0);
    std::vector<const KeyValueView*> merged;
    while (merged.size() < specs[i].limit) {
      int best = -1;
      for (size_t p = 0; p < parts.size(); ++p) {
        if (cursor[p] >= parts[p]->size()) continue;
        if (best < 0) {
          best = static_cast<int>(p);
          continue;
        }
        const Slice a = (*parts[p])[cursor[p]].key;
        const Slice b = (*parts[best])[cursor[best]].key;
        if (reverse ? (b < a) : (a < b)) best = static_cast<int>(p);
      }
      if (best < 0) break;
      merged.push_back(&(*parts[best])[cursor[best]++]);
    }
    total_merged += static_cast<int64_t>(merged.size());
    out[i].rows.reserve(merged.size());
    for (const KeyValueView* row : merged) {
      Row decoded;
      GDB_CO_RETURN_IF_ERROR(DecodeRow(row->value, &decoded));
      out[i].rows.push_back(std::move(decoded));
    }
    // Joined rows are deduped by key across shards AND chunks — the
    // executor's dedup is per-chunk, so a join key revisited after a
    // continuation comes back twice.
    std::sort(joined.begin(), joined.end(),
              [](const KeyValueView& a, const KeyValueView& b) {
                return a.key < b.key;
              });
    joined.erase(std::unique(joined.begin(), joined.end(),
                             [](const KeyValueView& a, const KeyValueView& b) {
                               return a.key == b.key;
                             }),
                 joined.end());
    // A shard joins every row it returns, but the global limit can drop
    // some of those rows in the merge — their lookups must not leak into
    // the result (a join pairs only with rows the spec returns). When the
    // merge dropped a row, keep exactly the entries whose key derives from
    // a merged row: an exact match for point joins, a prefix match for
    // prefix joins (join keys encode the same column sequence, so they are
    // mutually prefix-free and the sorted predecessor is the only candidate
    // prefix). When it dropped none, every joined row came from a returned
    // row.
    if (!specs[i].join_table.empty() && merged.size() < received) {
      JoinKeys keys(specs[i].join_key_prefix, specs[i].join_key_cols,
                    merged.size());
      for (const KeyValueView* row : merged) keys.Add(row->value);
      const std::vector<Slice> keep = keys.Sorted();
      auto survives = [&](const Slice& k) {
        if (!specs[i].join_prefix) {
          return std::binary_search(keep.begin(), keep.end(), k);
        }
        auto it = std::upper_bound(keep.begin(), keep.end(), k);
        return it != keep.begin() && k.StartsWith(*(it - 1));
      };
      joined.erase(std::remove_if(joined.begin(), joined.end(),
                                  [&](const KeyValueView& row) {
                                    return !survives(row.key);
                                  }),
                   joined.end());
    }
    out[i].joined.reserve(joined.size());
    for (const KeyValueView& row : joined) {
      Row decoded;
      GDB_CO_RETURN_IF_ERROR(DecodeRow(row.value, &decoded));
      out[i].joined.push_back(std::move(decoded));
    }
  }
  metrics_.Hist("cn.scan_merge_rows").Record(total_merged);
  co_return out;
}

sim::Task<void> CoordinatorNode::CallScanGroup(ScanGroup* group,
                                               sim::WaitGroup* wg) {
  const size_t num_ranges = group->base.ranges.size();
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool on_replica = group->is_replica && attempt == 0;
    const NodeId target =
        on_replica ? group->target : shard_primaries_[group->shard];
    group->replies.clear();
    group->rows.assign(num_ranges, {});
    group->joined.assign(num_ranges, {});
    group->error = Status::OK();
    ScanBatchRequest request = group->base;
    bool failover = false;
    while (true) {
      // Two awaits, not one ternary: GCC 12 double-destroys the Task
      // temporary a ternary operand materializes inside a co_await.
      StatusOr<ScanBatchReply> reply{Status::Unavailable("not attempted")};
      if (on_replica) {
        reply = co_await client_.Call(target, kRorScanBatch, request);
      } else {
        reply = co_await client_.Call(target, kDnScanBatch, request);
      }
      if (!reply.ok()) {
        if (on_replica && rpc::IsTransportError(reply.status())) {
          // Restart the WHOLE group on the primary: splicing chunks from
          // two nodes would interleave rows from different store states.
          selector_.MarkFailed(target);
          metrics_.Add("cn.replica_failovers");
          failover = true;
          break;
        }
        group->error = reply.status();
        break;
      }
      metrics_.Add("cn.scan_chunks");
      if (reply->results.size() != num_ranges) {
        group->error =
            Status::Internal("scan batch reply/request range mismatch");
        break;
      }
      // The chunk's views point into its envelope, which moves with it
      // (the envelope's heap block stays put), so the group keeps every
      // chunk until the merge is done.
      const ScanBatchReply& chunk =
          group->replies.emplace_back(std::move(*reply));
      for (size_t r = request.resume_range; r < num_ranges; ++r) {
        const ScanBatchReply::RangeResult& result = chunk.results[r];
        group->rows[r].insert(group->rows[r].end(), result.rows.begin(),
                              result.rows.end());
        group->joined[r].insert(group->joined[r].end(), result.joined.begin(),
                                result.joined.end());
      }
      if (!chunk.truncated) break;
      const uint32_t rr = chunk.resume_range;
      if (rr >= num_ranges || rr < request.resume_range) {
        group->error = Status::Internal("scan batch resume cursor invalid");
        break;
      }
      // Client-driven continuation: the server kept no cursor, so the next
      // chunk re-describes the remaining work — the resumed range restarts
      // at the resume key with its limit shrunk by the rows already in
      // hand. An empty resume key means the range never started.
      request.resume_range = rr;
      if (!chunk.resume_key.empty()) {
        request.ranges[rr].start = chunk.resume_key.ToString();
        const uint32_t orig = group->base.ranges[rr].limit;
        const uint32_t got =
            static_cast<uint32_t>(std::min<size_t>(group->rows[rr].size(),
                                                   orig));
        request.ranges[rr].limit = orig - got;
      }
    }
    if (!failover) break;
  }
  wg->Done();
}

sim::Task<Status> CoordinatorNode::EndTxn(TxnHandle* txn, bool commit) {
  co_await cpu_.Consume(options_.statement_cost);

  // Resolve the buffered-write pipeline first. A commit sends the final
  // flush just ahead of precommit; an abort discards entries that were
  // never sent but must still drain in-flight flushes — the abort broadcast
  // below must not overtake a batch still on the wire, or the locks that
  // batch acquires would be orphaned.
  Status flushed = Status::OK();
  if (txn->writes != nullptr) {
    if (commit) {
      flushed = co_await FlushWrites(txn);
    } else {
      for (auto& [shard, sq] : txn->writes->shards) sq.queued.clear();
      co_await txn->writes->inflight.Wait();
    }
  }

  if (txn->write_shards.empty()) {
    metrics_.Add(commit ? "cn.readonly_commits" : "cn.readonly_aborts");
    co_return Status::OK();
  }
  const std::vector<NodeId> shards = [&] {
    std::vector<NodeId> nodes;
    for (ShardId s : txn->write_shards) nodes.push_back(shard_primaries_[s]);
    return nodes;
  }();
  const bool two_phase = txn->write_shards.size() > 1;

  TxnControlRequest control;
  control.txn = txn->id;
  control.two_phase = two_phase;
  // The participant list rides on every control message; the PREPARE record
  // persists it so a promoted replica knows which peers can resolve the
  // transaction if this CN is gone (DESIGN.md §13).
  control.participants.assign(txn->write_shards.begin(),
                              txn->write_shards.end());

  if (!commit) {
    metrics_.Add("cn.aborts");
    decided_.Record(txn->id, false, 0);
    co_return co_await DriveDecision(txn, /*commit=*/false, control);
  }
  if (!flushed.ok()) {
    // A buffered write failed: the failing shard already rolled itself
    // back; tell the rest.
    metrics_.Add("cn.batch_flush_aborts");
    decided_.Record(txn->id, false, 0);
    (void)co_await Broadcast(shards, kDnAbort, control);
    co_return flushed;
  }

  // Phase 1: PENDING_COMMIT (one-shard) or PREPARE (2PC) on every write
  // shard — before the commit timestamp exists (Section IV-A). The record
  // carries a lower bound on the eventual commit timestamp (the clock's
  // current lower bound under GClock, the largest seen counter under GTM):
  // replica readers below that bound need not wait on the pending tuples.
  if (txn->mode == TimestampMode::kGclock) {
    control.ts = static_cast<Timestamp>(
        std::max<SimTime>(0, clock_->Read() - clock_->ErrorBound()));
  } else {
    control.ts = ts_source_->max_issued();
  }
  const SimTime precommit_start = sim_->now();
  Status precommit = co_await Broadcast(shards, kDnPrecommit, control);
  metrics_.Hist("cn.precommit_us")
      .Record((sim_->now() - precommit_start) / kMicrosecond);
  control.ts = 0;
  if (!precommit.ok()) {
    // The decision is abort; record it before telling anyone, so an
    // in-doubt resolver that beats the broadcast already finds it.
    decided_.Record(txn->id, false, 0);
    (void)co_await Broadcast(shards, kDnAbort, control);
    metrics_.Add("cn.precommit_aborts");
    co_return precommit;
  }

  // Commit timestamp (includes GClock commit-wait / DUAL rules).
  const SimTime ts_start = sim_->now();
  auto ts = co_await ts_source_->CommitTs(txn->mode);
  metrics_.Hist("cn.commit_ts_us").Record((sim_->now() - ts_start) /
                                          kMicrosecond);
  if (!ts.ok()) {
    decided_.Record(txn->id, false, 0);
    (void)co_await Broadcast(shards, kDnAbort, control);
    metrics_.Add("cn.ts_aborts");
    co_return ts.status();
  }

  // Phase 2: commit everywhere (synchronous replication waits inside). The
  // decision is recorded *before* the first delivery attempt: from here the
  // transaction is committed no matter which sends die, and the cache entry
  // is what a promoted primary's in-doubt resolver reads.
  control.ts = *ts;
  decided_.Record(txn->id, true, *ts);
  const SimTime phase2_start = sim_->now();
  Status committed = co_await DriveDecision(txn, /*commit=*/true, control);
  metrics_.Hist("cn.commit_phase2_us")
      .Record((sim_->now() - phase2_start) / kMicrosecond);
  if (!committed.ok()) co_return committed;
  ts_source_->RecordCommitted(*ts);
  metrics_.Add("cn.commits");
  metrics_.Add(two_phase ? "cn.2pc_commits" : "cn.1pc_commits");
  co_return Status::OK();
}

sim::Task<Status> CoordinatorNode::DriveDecision(TxnHandle* txn, bool commit,
                                                 TxnControlRequest control) {
  const auto method = commit ? kDnCommit : kDnAbort;
  // Aborts re-drive only briefly: they are lock cleanup, and a promoted
  // primary's in-doubt resolver reads the abort from the decision cache
  // anyway. Commits re-drive until the limit — the decision must land.
  const int retry_limit = commit ? options_.commit_retry_limit : 2;
  int attempts = 0;
  for (;;) {
    // Recompute targets per attempt: UpdateShardPrimary re-points a shard at
    // its promoted replica between attempts, which is exactly the node the
    // re-drive must reach.
    std::vector<NodeId> nodes;
    nodes.reserve(txn->write_shards.size());
    for (ShardId s : txn->write_shards) nodes.push_back(shard_primaries_[s]);
    Status status = co_await Broadcast(nodes, method, control);
    if (status.ok() || !rpc::IsTransportError(status) ||
        attempts >= retry_limit) {
      co_return status;
    }
    ++attempts;
    metrics_.Add("cn.commit_retries");
    co_await sim_->Sleep(options_.commit_retry_backoff);
  }
}

sim::Task<Status> CoordinatorNode::Commit(TxnHandle* txn) {
  Status status = co_await EndTxn(txn, /*commit=*/true);
  // Deregister only after the protocol fully resolved: the snapshot must
  // hold the GC horizon down for as long as any read of it might still run.
  active_snapshots_.erase(txn->id);
  co_return status;
}

sim::Task<Status> CoordinatorNode::Abort(TxnHandle* txn) {
  Status status = co_await EndTxn(txn, /*commit=*/false);
  active_snapshots_.erase(txn->id);
  co_return status;
}

}  // namespace globaldb
