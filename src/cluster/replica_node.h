#ifndef GLOBALDB_SRC_CLUSTER_REPLICA_NODE_H_
#define GLOBALDB_SRC_CLUSTER_REPLICA_NODE_H_

#include <memory>

#include "src/cluster/messages.h"
#include "src/common/metrics.h"
#include "src/common/types.h"
#include "src/replication/replica_applier.h"
#include "src/rpc/rpc_client.h"
#include "src/rpc/rpc_server.h"
#include "src/sim/cpu.h"
#include "src/sim/network.h"
#include "src/storage/catalog.h"
#include "src/storage/shard_store.h"

namespace globaldb {

struct ReplicaNodeOptions {
  int cores = 8;
  SimDuration read_cost = 8 * kMicrosecond;
  SimDuration scan_row_cost = 1 * kMicrosecond;
  /// Default reply byte budget for one kRorScanBatch chunk (DESIGN.md §14);
  /// a request's max_bytes overrides it.
  size_t scan_chunk_bytes = 64 * 1024;
  ApplierOptions applier;
};

/// A read-only replica of one shard: replays the primary's redo stream and
/// serves ROR (read-on-replica) queries at RCP-based snapshots. Readers
/// that hit a tuple locked by a pending-commit transaction wait until the
/// commit or abort record is replayed (Section IV-A).
class ReplicaNode {
 public:
  ReplicaNode(sim::Simulator* sim, sim::Network* network, NodeId self,
              ShardId shard, ReplicaNodeOptions options = {});

  ReplicaNode(const ReplicaNode&) = delete;
  ReplicaNode& operator=(const ReplicaNode&) = delete;

  NodeId node_id() const { return self_; }
  ShardId shard() const { return shard_; }

  /// The primary data node this replica follows (for the restart
  /// announcement). Wired by the Cluster.
  void SetPrimary(NodeId primary) { primary_ = primary; }

  /// Shard promotion epoch this replica knows about, carried in kReplHello:
  /// a primary seeing a stale epoch forces a reset snapshot instead of
  /// resuming redo shipping (DESIGN.md §13). Updated by the Cluster on each
  /// promotion it tells this replica about; a revived ex-primary keeps its
  /// pre-crash epoch, which is exactly what makes its hello stale.
  void set_promotion_epoch(uint64_t epoch) { promotion_epoch_ = epoch; }
  uint64_t promotion_epoch() const { return promotion_epoch_; }

  /// Announces this replica to its primary now (kReplHello). Restart() does
  /// this automatically; the Cluster also calls it when re-integrating a
  /// revived ex-primary as a fresh replica.
  void AnnounceToPrimary();

  /// Simulated process restart after a crash. Durable state survives — the
  /// store, applied LSN, and pending-transaction map are all recovered from
  /// the replica's redo log — and the node re-announces its durable LSN to
  /// the primary (kReplHello) so the shipper rewinds its cursor and resumes
  /// catch-up immediately instead of waiting out its retry backoff.
  void Restart();

  ShardStore& store() { return store_; }
  Catalog& catalog() { return catalog_; }
  ReplicaApplier& applier() { return *applier_; }
  sim::CpuScheduler& cpu() { return cpu_; }
  Metrics& metrics() { return metrics_; }

 private:
  void BindService();
  sim::Task<void> SendHello();
  sim::Task<StatusOr<rpc::Encoded<ReadBatchReply>>> HandleReadBatch(
      NodeId from, ReadBatchRequest request);
  sim::Task<StatusOr<rpc::Encoded<ScanBatchReply>>> HandleScanBatch(
      NodeId from, ScanBatchRequest request);
  sim::Task<StatusOr<RorStatusReply>> HandleStatus(NodeId from,
                                                   rpc::EmptyMessage request);

  sim::Simulator* sim_;
  NodeId self_;
  rpc::RpcServer server_;
  rpc::RpcClient client_;
  ShardId shard_;
  NodeId primary_ = kInvalidNodeId;
  uint64_t promotion_epoch_ = 0;
  ReplicaNodeOptions options_;

  ShardStore store_;
  Catalog catalog_;
  sim::CpuScheduler cpu_;
  std::unique_ptr<ReplicaApplier> applier_;
  Metrics metrics_;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_CLUSTER_REPLICA_NODE_H_
