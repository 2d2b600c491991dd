#ifndef GLOBALDB_SRC_CLUSTER_COORDINATOR_NODE_H_
#define GLOBALDB_SRC_CLUSTER_COORDINATOR_NODE_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/messages.h"
#include "src/cluster/node_selector.h"
#include "src/cluster/rcp_service.h"
#include "src/common/metrics.h"
#include "src/common/statusor.h"
#include "src/common/types.h"
#include "src/rpc/rpc_client.h"
#include "src/rpc/rpc_server.h"
#include "src/sim/cpu.h"
#include "src/sim/future.h"
#include "src/sim/hardware_clock.h"
#include "src/sim/network.h"
#include "src/storage/catalog.h"
#include "src/storage/schema.h"
#include "src/txn/timestamp_source.h"
#include "src/txn/txn_decisions.h"

namespace globaldb {

struct CoordinatorOptions {
  int cores = 8;
  /// CPU charged per statement for parse/plan/route.
  SimDuration statement_cost = 3 * kMicrosecond;
  /// Heartbeat transaction period (keeps replica max commit timestamps
  /// advancing on idle shards).
  SimDuration heartbeat_interval = 10 * kMillisecond;
  /// RCP collection period.
  SimDuration rcp_interval = 5 * kMillisecond;
  /// Read-horizon collection period (collector CN only): how often the
  /// cluster low-watermark read timestamp — min over CNs of their oldest
  /// in-flight snapshot — is folded and pushed to the DN primaries, where
  /// it gates checkpoint-time MVCC vacuum (DESIGN.md §12).
  SimDuration horizon_interval = 50 * kMillisecond;
  /// When true, read-only transactions are served from replicas at the RCP
  /// snapshot (the paper's ROR feature). When false (baseline), all reads
  /// go to primaries with regular timestamps.
  bool enable_ror = true;
  /// Per-shard buffered-entry count that forces an early background flush
  /// of a transaction's write buffer. Otherwise writes flush as
  /// kDnWriteBatch RPCs at a read-your-writes barrier or at commit, just
  /// ahead of precommit (DESIGN.md §10).
  size_t write_batch_max_entries = 16;
  /// Per-chunk reply byte budget requested from scan servers (0 = accept
  /// the server default). Tests shrink it to force truncation +
  /// continuation.
  uint64_t scan_chunk_bytes = 0;
  /// Phase-2 re-drive (DESIGN.md §13): when a commit/abort broadcast dies
  /// with a primary (transport error), the CN re-sends the recorded decision
  /// against the shard's *current* primary — re-routed after failover —
  /// every `commit_retry_backoff`, up to the limit. DN-side decision
  /// memoization makes redelivery idempotent.
  int commit_retry_limit = 20;
  SimDuration commit_retry_backoff = 100 * kMillisecond;
  /// Capacity of the CN's decision cache (first resolution source for a
  /// promoted primary's in-doubt transactions).
  size_t decision_cache_capacity = 2 * DecisionMemo::kDefaultCapacity;
};

/// Options for a single read-only request.
struct ReadOptions {
  /// Require data no staler than this (0 = accept any RCP). Under GClock
  /// the staleness of the RCP is (now - rcp); if the bound cannot be met
  /// from replicas, the read falls back to the primary.
  SimDuration max_staleness = 0;
};

/// Buffered-write state of one transaction on its CN: entries not yet sent,
/// flushes on the wire, and the first error any flush reported. Held by
/// shared_ptr so in-flight flush coroutines stay safe if the handle dies
/// first; `error` is surfaced at the next flush barrier (read overlap or
/// commit) and aborts the transaction there.
struct TxnWriteBuffer {
  TxnWriteBuffer(sim::Simulator* sim, TxnId txn, Timestamp snapshot)
      : txn(txn), snapshot(snapshot), inflight(sim) {}
  /// One shard's slice of the buffer. At most one batch per shard is ever on
  /// the wire: the network gives no per-pair FIFO guarantee and the DN's
  /// batch handler suspends between entries, so a second in-flight batch
  /// could apply ahead of the first and commit writes out of statement
  /// order. A flush requested while one is in flight is recorded in
  /// `flush_deferred` and chained when the current batch completes.
  struct ShardQueue {
    /// Entries not yet sent, in statement order.
    std::vector<WriteBatchRequest::Entry> queued;
    bool inflight = false;
    bool flush_deferred = false;
  };
  const TxnId txn;
  const Timestamp snapshot;
  std::map<ShardId, ShardQueue> shards;
  sim::WaitGroup inflight;
  int inflight_count = 0;
  Status error;
};

/// One key of a MultiGet request: a point lookup of `key_values` (in
/// schema.key_columns order) in `table`. A for_update key takes the row
/// lock on the primary and reads the latest committed version, exactly
/// like GetForUpdate.
struct MultiGetKey {
  std::string table;
  Row key_values;
  bool for_update = false;
};

/// One range of a batched scan (DESIGN.md §14): encoded-key bounds
/// [start, end) over `table` (empty end = unbounded), with optional
/// pushed-down int64 equality filtering, a post-filter limit, reverse
/// order (last-N-by-key, e.g. an index-backed "latest order" lookup), and
/// a co-located server-side lookup join.
struct ScanSpec {
  std::string table;
  RowKey start, end;
  uint32_t limit = 0xffffffff;
  bool reverse = false;
  int32_t filter_col = -1;  // -1 = no filter
  int64_t filter_eq = 0;
  /// Distribution-column value: when set, the range touches only that
  /// shard (prefix scans); otherwise every shard is scanned and merged.
  std::optional<Value> route;
  /// Lookup join: for each emitted row, the server reads `join_table` at
  /// join_key_prefix + encoded values of join_key_cols — a point read, or
  /// a prefix scan of up to join_limit rows when join_prefix is set. Only
  /// valid for co-located joins (the joined rows live on the base range's
  /// shard).
  std::string join_table;
  RowKey join_key_prefix;
  std::vector<uint32_t> join_key_cols;
  bool join_prefix = false;
  uint32_t join_limit = 0xffffffff;
};

/// One spec's outcome, globally key-ordered across shards (descending for
/// reverse specs). `joined` is deduped by key and ascending-key-ordered.
struct ScanResult {
  std::vector<Row> rows;
  std::vector<Row> joined;
};

/// An open transaction as tracked by its coordinating CN.
struct TxnHandle {
  TxnId id = kInvalidTxnId;
  Timestamp snapshot = 0;
  TimestampMode mode = TimestampMode::kGtm;
  bool read_only = false;
  bool use_ror = false;  // read-only + routed to replicas at the RCP
  std::set<ShardId> write_shards;
  /// Lazily created on the first buffered write.
  std::shared_ptr<TxnWriteBuffer> writes;
};

/// A coordinator (computing) node: parses/plans client operations, routes
/// them to primary or replica data nodes, coordinates one-shard commits and
/// two-phase commits, runs the RCP service and heartbeats, executes DDL,
/// and performs skyline-based replica selection for ROR reads.
class CoordinatorNode {
 public:
  CoordinatorNode(sim::Simulator* sim, sim::Network* network, NodeId self,
                  RegionId region, NodeId gtm_node,
                  sim::HardwareClockOptions clock_options,
                  CoordinatorOptions options = {});

  CoordinatorNode(const CoordinatorNode&) = delete;
  CoordinatorNode& operator=(const CoordinatorNode&) = delete;

  NodeId node_id() const { return self_; }
  RegionId region() const { return region_; }

  // --- Topology wiring (before StartServices) -----------------------------

  /// primaries[s] = node id of shard s's primary DN.
  void SetShardMap(std::vector<NodeId> primaries);
  void AddReplica(ShardId shard, NodeId node, RegionId region);
  void SetPeerCns(std::vector<NodeId> peers);

  /// Failover re-route: `node` (a just-promoted replica) is shard's new
  /// primary. Updates the shard map (which is also the DDL broadcast list)
  /// and the local-region shard rotation, and removes the node from the
  /// replica selector and the RCP poll set — a primary is not a replica-read
  /// target.
  void UpdateShardPrimary(ShardId shard, NodeId node);

  /// Starts heartbeats and (if `rcp_collector`) the RCP collector loop.
  void StartServices(bool rcp_collector);
  void StopServices() { services_running_ = false; }

  // --- DDL -----------------------------------------------------------------

  /// Creates a table cluster-wide: assigns the schema in the local catalog,
  /// obtains a DDL timestamp, logs the DDL on every primary (replicated to
  /// replicas through redo), and broadcasts to peer CNs.
  sim::Task<Status> CreateTable(TableSchema schema);

  // --- Transactions --------------------------------------------------------

  /// Opens a transaction. A read-only transaction is served via ROR (RCP
  /// snapshot on replicas) when enabled and the freshness/DDL conditions
  /// pass; otherwise it gets a regular begin timestamp.
  sim::Task<StatusOr<TxnHandle>> Begin(bool read_only = false,
                                       bool single_shard = false,
                                       ReadOptions read_options = {});

  sim::Task<Status> Insert(TxnHandle* txn, const std::string& table,
                           const Row& row);
  /// Full-row update addressed by the row's primary key.
  sim::Task<Status> Update(TxnHandle* txn, const std::string& table,
                           const Row& row);
  /// Delete addressed by key column values (schema.key_columns order).
  sim::Task<Status> Delete(TxnHandle* txn, const std::string& table,
                           const Row& key_values);
  /// Point lookup by key column values: a one-key MultiGet. Returns nullopt
  /// when not found.
  sim::Task<StatusOr<std::optional<Row>>> Get(TxnHandle* txn,
                                              const std::string& table,
                                              const Row& key_values);
  /// Batched point lookups: dedups the key set, runs the read-your-writes
  /// check across all keys with at most one flush barrier, groups keys by
  /// shard, routes each group to a ROR replica or the primary, and fans
  /// every group out in parallel — one WAN round trip for the whole set.
  /// Results align with `keys` (nullopt = not found). A group whose replica
  /// fails mid-batch fails over to its shard primary; only the first
  /// per-entry or transport error is returned.
  sim::Task<StatusOr<std::vector<std::optional<Row>>>> MultiGet(
      TxnHandle* txn, std::vector<MultiGetKey> keys);
  /// Single-table convenience wrapper (plain reads, no locks).
  sim::Task<StatusOr<std::vector<std::optional<Row>>>> MultiGet(
      TxnHandle* txn, const std::string& table, const std::vector<Row>& keys);
  /// SELECT ... FOR UPDATE: takes the row lock on the primary and returns
  /// the latest committed version. Subsequent Update/Delete of the same row
  /// in this transaction cannot hit a write-write conflict. The lock is
  /// released at commit/abort.
  sim::Task<StatusOr<std::optional<Row>>> GetForUpdate(
      TxnHandle* txn, const std::string& table, const Row& key_values);
  /// Batched ranged reads (DESIGN.md §14): resolves every spec's shard set,
  /// runs the read-your-writes check across all ranges (and join tables)
  /// with at most one flush barrier, groups ranges by shard, routes each
  /// group to a ROR replica or the primary, streams byte-capped chunks with
  /// client-driven continuation, and k-way-merges each spec's per-shard
  /// cursors into one globally key-ordered result — one WAN round trip (per
  /// chunk) for the whole batch. Results align with `specs`. A group whose
  /// replica fails mid-stream restarts on its shard primary. A single
  /// ordered range scan is a one-spec batch.
  sim::Task<StatusOr<std::vector<ScanResult>>> ScanBatch(
      TxnHandle* txn, std::vector<ScanSpec> specs);

  /// Commits (one-shard fast path or 2PC). On success the handle is done.
  sim::Task<Status> Commit(TxnHandle* txn);
  sim::Task<Status> Abort(TxnHandle* txn);

  // --- Introspection -------------------------------------------------------

  Catalog& catalog() { return catalog_; }
  TimestampSource& timestamp_source() { return *ts_source_; }
  sim::HardwareClock& clock() { return *clock_; }
  NodeSelector& selector() { return selector_; }
  RcpService& rcp_service() { return *rcp_; }
  Timestamp rcp() const { return rcp_ == nullptr ? 0 : rcp_->rcp(); }
  /// This CN's contribution to the cluster low-watermark read timestamp:
  /// min(oldest in-flight snapshot, last committed, local RCP when ROR can
  /// hand that snapshot to a future read-only transaction). Monotone: every
  /// input only advances and future begins never run below it, so the
  /// collector may safely reuse a peer's last reported value when a poll
  /// fails.
  Timestamp TxnHorizon() const;
  Metrics& metrics() { return metrics_; }
  /// RPC client carrying all DN/peer traffic issued by this CN (per-method
  /// latency histograms and the call trace live here).
  rpc::RpcClient& rpc_client() { return client_; }
  CoordinatorOptions* mutable_options() { return &options_; }
  const CoordinatorOptions& options() const { return options_; }

 private:
  /// One request fanned out to every node; first error wins. The CN client
  /// never retries (see BuildPolicy in the .cc), so a broadcast failure is
  /// surfaced to the commit protocol rather than silently re-sent.
  template <typename M>
  sim::Task<Status> Broadcast(const std::vector<NodeId>& nodes, M method,
                              const typename M::Request& request) {
    if (nodes.empty()) co_return Status::OK();
    auto results = co_await client_.CallAll(nodes, method, request);
    co_return rpc::FirstError(results);
  }

  sim::Task<Status> EndTxn(TxnHandle* txn, bool commit);
  /// Drives a recorded decision to every write shard, re-routing through
  /// `shard_primaries_` per attempt (it tracks promotions) and retrying
  /// transport failures with backoff. Non-transport errors and retry
  /// exhaustion return the last status.
  sim::Task<Status> DriveDecision(TxnHandle* txn, bool commit,
                                  TxnControlRequest control);

  /// Resolves the shard to *read* for a row/key (replicated tables prefer
  /// the local region's shard).
  StatusOr<ShardId> ShardOf(const TableSchema& schema, const Row& row) const;
  /// All shards a write must touch (every shard for replicated tables).
  std::vector<ShardId> WriteTargets(const TableSchema& schema,
                                    const Row& row) const;
  sim::Task<Status> DoWrite(TxnHandle* txn, const TableSchema& schema,
                            WriteOp op, RowKey key, std::string value,
                            const Row& route_row);
  /// Moves `shard`'s queued entries into a kDnWriteBatch request and spawns
  /// its flush coroutine. No-op on an empty buffer; defers (chains) when a
  /// batch for the shard is already in flight; drops the entries when a
  /// previous flush already failed — the transaction is doomed and a batch
  /// sent now would re-acquire locks on a shard that may have rolled itself
  /// back.
  void StartFlush(const std::shared_ptr<TxnWriteBuffer>& wb, ShardId shard);
  /// Background flush of one batch; records the first failure in wb->error
  /// and chains the shard's deferred flush, if any, on completion.
  sim::Task<void> FlushShardBatch(std::shared_ptr<TxnWriteBuffer> wb,
                                  ShardId shard, WriteBatchRequest request);
  /// Flush barrier: sends every non-empty shard buffer, awaits all in-flight
  /// flushes, and returns the first error any of them hit.
  sim::Task<Status> FlushWrites(TxnHandle* txn);
  /// True when a point read of (table, key) — or any read while flushes are
  /// in flight or failed — must run the flush barrier first to preserve
  /// read-your-writes.
  bool NeedsFlushForKey(const TxnHandle& txn, TableId table,
                        const RowKey& key) const;
  /// Same for a range scan over [start, end) of `table` (empty end =
  /// unbounded).
  bool NeedsFlushForScan(const TxnHandle& txn, TableId table,
                         const RowKey& start, const RowKey& end) const;
  /// Chooses the node (replica or primary) for a ROR read of `shard`, with
  /// the DDL-visibility verdict precomputed (a read group may span tables;
  /// ROR needs every table visible).
  NodeId PickReadTarget(const TxnHandle& txn, bool ddl_visible, ShardId shard);

  /// One shard's slice of a MultiGet fan-out: the batch request, its
  /// routing decision, and the reply slot filled by CallReadGroup.
  struct ReadGroup {
    ShardId shard = kInvalidShardId;
    NodeId target = kInvalidNodeId;
    bool is_replica = false;
    ReadBatchRequest request;
    /// Unique-key slot fed by each request entry, aligned with entries.
    std::vector<size_t> slots;
    StatusOr<ReadBatchReply> reply{Status::Unavailable("not attempted")};
  };
  /// Issues one group's batch RPC; on a transport error from a replica,
  /// fails over only this group to its shard primary (cn.replica_failovers).
  sim::Task<void> CallReadGroup(ReadGroup* group, sim::WaitGroup* wg);
  /// One shard's slice of a ScanBatch fan-out: the base request (kept
  /// pristine for failover restarts), the spec index each range feeds, and
  /// per-range row accumulators filled across chunks by CallScanGroup. The
  /// accumulated rows are views into the chunk replies kept in `replies`.
  struct ScanGroup {
    ShardId shard = kInvalidShardId;
    NodeId target = kInvalidNodeId;
    bool is_replica = false;
    bool ddl_visible = true;
    ScanBatchRequest base;
    std::vector<size_t> spec_of;
    std::vector<ScanBatchReply> replies;
    std::vector<std::vector<KeyValueView>> rows;
    std::vector<std::vector<KeyValueView>> joined;
    Status error = Status::OK();
  };
  /// Streams one group's chunks: each continuation rewrites the resumed
  /// range's start key and remaining limit and re-sends (the server keeps
  /// no cursor). A transport error from a replica restarts the WHOLE group
  /// from the base request on the shard primary — partial accumulation is
  /// discarded, so a mid-stream failover can't splice rows from two nodes'
  /// snapshots of the store.
  sim::Task<void> CallScanGroup(ScanGroup* group, sim::WaitGroup* wg);
  /// DDL visibility conditions for ROR (Section IV-A).
  bool RorDdlVisible(const TableSchema& schema) const;

  sim::Task<void> HeartbeatLoop();
  /// Collector-CN loop: folds min(TxnHorizon) across all CNs (reusing a
  /// peer's last value when its poll fails — safe, horizons are monotone
  /// per CN) and pushes the result to every shard primary via
  /// kDnReadHorizon.
  sim::Task<void> HorizonLoop();
  void BindService();
  sim::Task<StatusOr<rpc::EmptyMessage>> HandleRcpUpdate(
      NodeId from, RcpUpdateMessage update);
  sim::Task<StatusOr<rpc::EmptyMessage>> HandleDdlApply(NodeId from,
                                                        DdlRequest request);
  sim::Task<StatusOr<TxnHorizonReply>> HandleTxnHorizon(
      NodeId from, rpc::EmptyMessage request);
  /// In-doubt resolution lookup from a promoted primary (kCnTxnOutcome):
  /// answers from the decision cache; kPending while the transaction is
  /// still active here (the decision is in flight — the asker must retry);
  /// kUnknown otherwise.
  sim::Task<StatusOr<TxnOutcomeReply>> HandleTxnOutcome(
      NodeId from, TxnOutcomeRequest request);
  TxnId NextTxnId() { return (static_cast<TxnId>(self_) << 40) | ++txn_seq_; }

  sim::Simulator* sim_;
  sim::Network* network_;
  NodeId self_;
  RegionId region_;
  NodeId gtm_node_;
  CoordinatorOptions options_;
  rpc::RpcClient client_;
  rpc::RpcServer server_;

  sim::CpuScheduler cpu_;
  std::unique_ptr<sim::HardwareClock> clock_;
  std::unique_ptr<TimestampSource> ts_source_;
  Catalog catalog_;
  NodeSelector selector_;
  std::unique_ptr<RcpService> rcp_;

  std::vector<NodeId> shard_primaries_;
  /// Shards whose primaries live in this CN's region, precomputed in
  /// SetShardMap (replicated-table reads rotate across them).
  std::vector<ShardId> local_replicated_shards_;
  std::vector<NodeId> peer_cns_;
  uint64_t txn_seq_ = 0;
  mutable uint64_t replicated_rotation_ = 0;
  bool services_running_ = false;
  /// Snapshots of transactions opened on this CN and not yet ended — the
  /// oldest is the floor of TxnHorizon().
  std::map<TxnId, Timestamp> active_snapshots_;
  /// Collector-CN state: last reported horizon per peer (0 = never heard;
  /// reused when a poll fails).
  std::map<NodeId, Timestamp> peer_horizons_;
  /// Commit/abort decisions this CN has made, recorded *before* the phase-2
  /// broadcast: the first resolution source for a promoted primary's
  /// in-doubt transactions, and the source of truth for phase-2 re-drives.
  DecisionMemo decided_;
  Metrics metrics_;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_CLUSTER_COORDINATOR_NODE_H_
