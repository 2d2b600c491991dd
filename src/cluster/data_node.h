#ifndef GLOBALDB_SRC_CLUSTER_DATA_NODE_H_
#define GLOBALDB_SRC_CLUSTER_DATA_NODE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/cluster/messages.h"
#include "src/common/metrics.h"
#include "src/common/types.h"
#include "src/log/log_stream.h"
#include "src/replication/checkpointer.h"
#include "src/replication/durability_manager.h"
#include "src/replication/log_shipper.h"
#include "src/rpc/rpc_client.h"
#include "src/rpc/rpc_server.h"
#include "src/sim/cpu.h"
#include "src/sim/network.h"
#include "src/storage/catalog.h"
#include "src/storage/shard_store.h"
#include "src/txn/lock_manager.h"
#include "src/txn/txn_decisions.h"

namespace globaldb {

struct DataNodeOptions {
  int cores = 8;
  SimDuration read_cost = 8 * kMicrosecond;
  SimDuration write_cost = 12 * kMicrosecond;
  SimDuration commit_cost = 6 * kMicrosecond;
  SimDuration scan_row_cost = 1 * kMicrosecond;
  /// Default reply byte budget for one kDnScanBatch chunk (DESIGN.md §14);
  /// a request's max_bytes overrides it. Tests shrink it to force
  /// truncation + continuation.
  size_t scan_chunk_bytes = 64 * 1024;
  SimDuration lock_timeout = 500 * kMillisecond;
  /// Durability lifecycle (DESIGN.md §12): periodic checkpoint + vacuum +
  /// log truncation. On by default — truncation is part of normal
  /// operation, not an optional mode.
  bool enable_checkpoints = true;
  SimDuration checkpoint_interval = 1 * kSecond;
  /// Capacity of the per-txn decision memo (DESIGN.md §13): how many
  /// commit/abort outcomes the primary remembers so a duplicated or
  /// re-driven phase-2 delivery is answered idempotently. Raise it in long
  /// soaks whose checkers read old decisions back.
  size_t decision_memo_capacity = DecisionMemo::kDefaultCapacity;
  /// Backoff between in-doubt resolution rounds after a transport failure
  /// (the owner CN or a peer primary is still unreachable, DESIGN.md §13).
  SimDuration outcome_retry_backoff = 100 * kMillisecond;
  /// Consecutive transport failures against the owning CN before the
  /// resolver treats it as permanently gone and lets the peer-shard verdict
  /// (or presumed abort) stand without a CN answer.
  int outcome_cn_give_up = 10;
};

/// Protocol points a chaos schedule can arm a one-shot crash at
/// (FaultKind::kPrimaryCrash stage targeting): the node drops off the
/// network exactly when the next two-phase transaction reaches the stage.
enum class CrashStage : uint8_t {
  kNone = 0,
  /// After the PREPARE record is appended and its durability wait returned:
  /// the prepare is replicated but the coordinator never sees the ack.
  kAfterPrepareAppend = 1,
  /// When the phase-2 commit arrives, before any of it applies: the
  /// coordinator decided, this shard never learned the outcome.
  kOnCommitArrival = 2,
  /// After the commit applied and its record was appended, before the ack:
  /// the outcome is (racily) in the redo stream but the coordinator must
  /// retry to learn it.
  kMidPhase2 = 3,
};

/// A prepared-but-undecided transaction handed to a promoted primary
/// (DESIGN.md §13): the commit-timestamp lower bound from the PREPARE
/// record and the participant shards to query (empty = unknown — query
/// every shard).
struct InDoubtTxn {
  Timestamp ts_lower = 0;
  std::vector<ShardId> participants;
};

/// A primary data node hosting one shard: MVCC storage, row locks, the
/// shard's redo stream, and the log shipper feeding its replicas.
///
/// Commit protocol (driven by the CN):
///   1. precommit: append PENDING_COMMIT (one-shard) or PREPARE (2PC) —
///      written *before* the commit timestamp is obtained, which is the
///      paper's replica-side tuple-lock safeguard.
///   2. commit(ts): append COMMIT / COMMIT_PREPARED, stamp MVCC versions,
///      wait for the replication mode's durability condition, release locks.
///   abort: append ABORT / ABORT_PREPARED, roll back, release locks.
class DataNode {
 public:
  DataNode(sim::Simulator* sim, sim::Network* network, NodeId self,
           ShardId shard, DataNodeOptions options = {});

  DataNode(const DataNode&) = delete;
  DataNode& operator=(const DataNode&) = delete;

  NodeId node_id() const { return self_; }
  ShardId shard() const { return shard_; }

  /// Attaches the replica set; must be called before Start().
  void ConfigureReplication(std::vector<NodeId> replicas,
                            ShipperOptions options);
  /// Starts the log shipper loops and (if enabled) the checkpointer.
  void Start();
  /// Stops the checkpointer and the shipper loops (failover: this node is
  /// being replaced, or the simulation is quiescing).
  void Stop();

  /// Failover install: seeds this node from a promoted replica's state.
  /// Must be called after construction and before ConfigureReplication /
  /// Start. Installs the catalog + store images, re-bases the (empty) redo
  /// stream so the next LSN continues from `applied_lsn + 1`, adopts the
  /// replica's replayed-decision memo, and sorts provisional transactions
  /// into two classes (DESIGN.md §13):
  ///   - not in `in_doubt`: their PREPARE never reached this (most-caught-up)
  ///     replica, so thanks to the prepare durability wait the coordinator
  ///     never decided commit — aborted immediately (presumed abort).
  ///   - in `in_doubt`: prepared but undecided. Their touched rows stay
  ///     locked and Start() spawns a resolver per transaction: own memo →
  ///     owning CN's decision cache → peer participant primaries → presumed
  ///     abort only once every source answers a definitive "unknown".
  /// Also seeds the durability manager's checkpoint so lagging peers can
  /// full-state install, and records `promotion_epoch` so stale kReplHello
  /// announcements (a revived ex-primary) are routed through a reset
  /// snapshot instead of redo resume.
  void InstallForPromotion(Lsn applied_lsn, Timestamp max_commit_ts,
                           const std::string& catalog_image,
                           const std::string& store_image,
                           const std::map<TxnId, InDoubtTxn>& in_doubt = {},
                           const DecisionMemo* replayed_decisions = nullptr,
                           uint64_t promotion_epoch = 0);

  /// Wires the cluster topology the in-doubt resolver needs: the current
  /// primary node of each shard (followed across later promotions) and the
  /// shard count (the query-every-shard fallback when a PREPARE carried no
  /// participant list). Must be called before Start() on a promoted node.
  void ConfigureOutcomeResolution(std::function<NodeId(ShardId)> shard_primary,
                                  uint32_t num_shards);

  /// Arms a one-shot staged crash: the next two-phase transaction reaching
  /// `stage` takes this node off the network (chaos stage targeting).
  void ArmCrash(CrashStage stage) { armed_crash_ = stage; }
  CrashStage armed_crash() const { return armed_crash_; }

  /// Per-txn decision memo (phase-2 idempotency, DESIGN.md §13).
  const DecisionMemo& decisions() const { return decided_; }
  /// Prepared transactions still awaiting outcome resolution.
  size_t in_doubt_count() const { return in_doubt_.size(); }
  uint64_t promotion_epoch() const { return promotion_epoch_; }

  ShardStore& store() { return store_; }
  LogStream& log() { return log_; }
  Catalog& catalog() { return catalog_; }
  LogShipper* shipper() { return shipper_.get(); }
  DurabilityManager& durability() { return durability_; }
  Checkpointer* checkpointer() { return checkpointer_.get(); }
  /// Highest commit timestamp stamped on this shard (advanced by commits,
  /// DDLs, and CN heartbeats).
  Timestamp max_commit_ts() const { return max_commit_ts_; }
  sim::CpuScheduler& cpu() { return cpu_; }
  LockManager& locks() { return locks_; }
  Metrics& metrics() { return metrics_; }

 private:
  void BindService();
  sim::Task<StatusOr<ReadReply>> HandleLockRead(NodeId from,
                                                ReadRequest request);
  sim::Task<StatusOr<rpc::Encoded<ReadBatchReply>>> HandleReadBatch(
      NodeId from, ReadBatchRequest request);
  sim::Task<StatusOr<rpc::Encoded<ScanBatchReply>>> HandleScanBatch(
      NodeId from, ScanBatchRequest request);
  sim::Task<StatusOr<WriteBatchReply>> HandleWriteBatch(
      NodeId from, WriteBatchRequest request);
  /// One write-batch entry: row lock, MVCC apply, redo append. Parameters
  /// are by value — coroutine frame safety.
  sim::Task<Status> ApplyWrite(TxnId txn, Timestamp snapshot, WriteOp op,
                               TableId table_id, RowKey key,
                               std::string value);
  sim::Task<StatusOr<rpc::EmptyMessage>> HandlePrecommit(
      NodeId from, TxnControlRequest request);
  sim::Task<StatusOr<rpc::EmptyMessage>> HandleCommit(
      NodeId from, TxnControlRequest request);
  sim::Task<StatusOr<rpc::EmptyMessage>> HandleAbort(NodeId from,
                                                     TxnControlRequest request);
  sim::Task<StatusOr<rpc::EmptyMessage>> HandleDdl(NodeId from,
                                                   DdlRequest request);
  sim::Task<StatusOr<rpc::EmptyMessage>> HandleHeartbeat(
      NodeId from, TxnControlRequest request);
  sim::Task<StatusOr<rpc::EmptyMessage>> HandleReplHello(
      NodeId from, ReplHelloRequest request);
  sim::Task<StatusOr<DnStatusReply>> HandleStatus(NodeId from,
                                                  rpc::EmptyMessage request);
  sim::Task<StatusOr<rpc::EmptyMessage>> HandleReadHorizon(
      NodeId from, ReadHorizonRequest request);
  /// Peer-shard outcome query (kDnTxnState): answers from the decision memo;
  /// kUnknown when this shard holds no decision (including when the txn is
  /// still prepared here too).
  sim::Task<StatusOr<TxnOutcomeReply>> HandleTxnState(
      NodeId from, TxnOutcomeRequest request);

  /// Appends to the redo stream, wakes the shipper, and returns the
  /// assigned LSN.
  Lsn AppendAndNotify(RedoRecord record);
  /// Records a transaction this shard rolled back on its own (failing batch
  /// entry). Bounded FIFO: the CN normally resolves with an abort broadcast
  /// shortly after, but a crashed CN must not grow the set forever.
  void RememberSelfAborted(TxnId txn);
  /// Fires the armed staged crash if it matches `stage` (one-shot): takes
  /// this node off the network and returns true.
  bool MaybeCrash(CrashStage stage);
  /// Applies a resolved outcome to an in-doubt transaction: commit/abort the
  /// provisional state, append COMMIT_PREPARED / ABORT_PREPARED, memoize the
  /// decision, release its pinned row locks. No-op if something else (a
  /// coordinator re-drive) resolved it first.
  void ResolveInDoubtTxn(TxnId txn, bool committed, Timestamp ts,
                         const char* source_counter);
  /// Outcome resolver coroutine, one per in-doubt transaction (spawned by
  /// Start()).
  sim::Task<void> ResolveOutcome(TxnId txn, InDoubtTxn info);

  sim::Simulator* sim_;
  sim::Network* network_;
  NodeId self_;
  rpc::RpcServer server_;
  ShardId shard_;
  DataNodeOptions options_;

  ShardStore store_;
  Catalog catalog_;
  LogStream log_;
  LockManager locks_;
  sim::CpuScheduler cpu_;
  std::unique_ptr<LogShipper> shipper_;
  DurabilityManager durability_;
  std::unique_ptr<Checkpointer> checkpointer_;
  Timestamp max_commit_ts_ = 0;
  /// Transactions this shard aborted itself after a failing batch entry.
  /// Even though the CN serializes batches per shard, a write batch that
  /// arrives for one of these (e.g. from a buggy or restarted coordinator)
  /// must not re-acquire locks behind the rollback: its entries are
  /// rejected until the coordinator's commit/abort resolution arrives.
  std::set<TxnId> self_aborted_txns_;
  std::deque<TxnId> self_aborted_order_;
  /// Commit/abort outcomes this shard has applied (first decision wins):
  /// duplicated or re-driven phase-2 deliveries are answered from here, and
  /// kDnTxnState serves peer in-doubt resolvers from it.
  DecisionMemo decided_;
  /// Prepared transactions inherited at promotion, still awaiting outcome
  /// resolution; their touched rows stay locked until resolved.
  std::map<TxnId, InDoubtTxn> in_doubt_;
  /// RPC client for outbound outcome-resolution queries (owner CN + peers).
  rpc::RpcClient client_;
  std::function<NodeId(ShardId)> shard_primary_;
  uint32_t num_shards_ = 0;
  uint64_t promotion_epoch_ = 0;
  CrashStage armed_crash_ = CrashStage::kNone;
  bool stopped_ = false;
  Metrics metrics_;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_CLUSTER_DATA_NODE_H_
