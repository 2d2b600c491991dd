#include "src/cluster/replica_node.h"

#include <functional>
#include <utility>

#include "src/cluster/scan_batch_exec.h"

namespace globaldb {

ReplicaNode::ReplicaNode(sim::Simulator* sim, sim::Network* network,
                         NodeId self, ShardId shard,
                         ReplicaNodeOptions options)
    : sim_(sim),
      self_(self),
      server_(network, self),
      client_(network, self),
      shard_(shard),
      options_(options),
      store_(shard),
      cpu_(sim, options.cores) {
  applier_ = std::make_unique<ReplicaApplier>(sim, network, self, shard,
                                              &store_, &catalog_, &cpu_,
                                              options.applier);
  BindService();
}

void ReplicaNode::Restart() {
  metrics_.Add("replica.restarts");
  applier_->OnRestart();
  AnnounceToPrimary();
}

void ReplicaNode::AnnounceToPrimary() {
  if (primary_ != kInvalidNodeId) sim_->Spawn(SendHello());
}

sim::Task<void> ReplicaNode::SendHello() {
  ReplHelloRequest request;
  request.shard = shard_;
  request.durable_lsn = applier_->applied_lsn();
  request.epoch = promotion_epoch_;
  // Best effort: if the hello is lost the shipper still recovers via its
  // normal retry path, just slower.
  (void)co_await client_.Call(primary_, kReplHello, request);
}

void ReplicaNode::BindService() {
  server_.Handle(kRorReadBatch, [this](NodeId from, ReadBatchRequest request) {
    return HandleReadBatch(from, std::move(request));
  });
  server_.Handle(kRorScanBatch, [this](NodeId from, ScanBatchRequest request) {
    return HandleScanBatch(from, std::move(request));
  });
  server_.Handle(kRorStatus, [this](NodeId from, rpc::EmptyMessage request) {
    return HandleStatus(from, request);
  });
}

sim::Task<StatusOr<rpc::Encoded<ReadBatchReply>>>
ReplicaNode::HandleReadBatch(NodeId from, ReadBatchRequest request) {
  metrics_.Add("ror.read_batches");
  metrics_.Hist("ror.read_batch_entries")
      .Record(static_cast<int64_t>(request.entries.size()));
  // One snapshot for the whole batch; pending-commit tuple locks are waited
  // out per entry, so one blocked key only delays itself. Each entry is
  // written into the reply as soon as it is read, before the next
  // suspension point, so no view outlives its read.
  std::string wire = rpc::BeginOkEnvelope();
  ReadBatchReply::PutCount(&wire, request.entries.size());
  for (const ReadBatchRequest::Entry& entry : request.entries) {
    co_await cpu_.Consume(options_.read_cost);
    metrics_.Add("ror.batched_reads");
    ReadBatchReply::EntryResult result;
    if (entry.for_update) {
      // The CN routes lock-read groups to the primary; a for_update entry
      // here means a routing bug, not a user error.
      result.code = StatusCode::kInternal;
      result.message = "for_update read routed to a replica";
      ReadBatchReply::PutEntry(&wire, result);
      continue;
    }
    while (true) {
      // Re-fetched per attempt: a snapshot install during WaitResolved frees
      // the previous MvccTable.
      const MvccTable* table = store_.GetTable(entry.table);
      if (table == nullptr) {
        break;  // no rows replayed into this shard yet: a miss
      }
      ReadResult read = table->Read(entry.key, request.snapshot);
      if (read.provisional_txn != kInvalidTxnId &&
          applier_->MustWait(read.provisional_txn, request.snapshot)) {
        metrics_.Add("ror.pending_waits");
        co_await applier_->WaitResolved(read.provisional_txn);
        continue;
      }
      result.found = read.found;
      result.value = read.value;
      break;
    }
    ReadBatchReply::PutEntry(&wire, result);
  }
  co_return rpc::Encoded<ReadBatchReply>{std::move(wire)};
}

sim::Task<StatusOr<rpc::Encoded<ScanBatchReply>>>
ReplicaNode::HandleScanBatch(NodeId from, ScanBatchRequest request) {
  metrics_.Add("ror.scan_batches");
  metrics_.Hist("ror.scan_batch_ranges")
      .Record(static_cast<int64_t>(request.ranges.size()));
  // Pending-commit tuple locks abort the whole pass: ExecuteScanBatch keeps
  // no server-side cursor, so after WaitResolved the chunk is rebuilt from
  // the request alone, with every MvccTable* re-fetched — a snapshot install
  // while parked frees the previous store. A completed pass has already
  // encoded its reply, so the CPU charge below holds no view into the store.
  const std::function<bool(TxnId)> must_wait = [this,
                                                &request](TxnId txn) {
    return applier_->MustWait(txn, request.snapshot);
  };
  while (true) {
    ScanBatchExecResult exec = ExecuteScanBatch(
        store_, request, kInvalidTxnId, options_.scan_chunk_bytes,
        options_.read_cost, options_.scan_row_cost, &must_wait);
    if (exec.blocker != kInvalidTxnId) {
      metrics_.Add("ror.pending_waits");
      co_await applier_->WaitResolved(exec.blocker);
      continue;
    }
    co_await cpu_.Consume(exec.cpu_cost);
    metrics_.Add("ror.scan_ranges", exec.ranges_served);
    metrics_.Add("ror.scan_rows_returned", exec.rows_returned);
    metrics_.Add("ror.scan_rows_filtered", exec.rows_filtered);
    metrics_.Add("ror.scan_limit_hits", exec.limit_hits);
    metrics_.Add("ror.scan_join_lookups", exec.join_lookups);
    if (exec.truncated) metrics_.Add("ror.scan_chunks_truncated");
    co_return std::move(exec.reply);
  }
}

sim::Task<StatusOr<RorStatusReply>> ReplicaNode::HandleStatus(
    NodeId from, rpc::EmptyMessage request) {
  RorStatusReply reply;
  reply.max_commit_ts = applier_->max_commit_ts();
  reply.applied_lsn = applier_->applied_lsn();
  reply.queue_delay = cpu_.CurrentQueueDelay();
  co_return reply;
}

}  // namespace globaldb
