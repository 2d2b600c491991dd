#ifndef GLOBALDB_SRC_REPLICATION_LOG_SHIPPER_H_
#define GLOBALDB_SRC_REPLICATION_LOG_SHIPPER_H_

#include <coroutine>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/statusor.h"
#include "src/common/types.h"
#include "src/compression/lz.h"
#include "src/log/log_stream.h"
#include "src/replication/messages.h"
#include "src/rpc/rpc_client.h"
#include "src/sim/future.h"
#include "src/sim/network.h"

namespace globaldb {

class DurabilityManager;

struct ShipperOptions {
  ReplicationMode mode = ReplicationMode::kAsync;
  /// The paper's GlobalDB deployment compresses shipped redo with LZ4.
  CompressionType compression = CompressionType::kLz;
  size_t max_batch_records = 2000;
  size_t max_batch_bytes = 256 * 1024;
  /// Sliding-window depth: kReplAppend batches allowed in flight per
  /// replica. 1 degenerates to stop-and-wait (one batch per RTT, the old
  /// behavior); 8 keeps a 50 ms WAN link busy at the default batch size.
  size_t max_inflight_batches = 8;
  /// Idle poll interval when no new records arrive (heartbeats keep this
  /// path rarely taken).
  SimDuration idle_wait = 2 * kMillisecond;
  /// Initial backoff before retrying a failed replica; doubles per
  /// consecutive failure up to `max_retry_backoff`.
  SimDuration retry_backoff = 50 * kMillisecond;
  SimDuration max_retry_backoff = 2 * kSecond;
  /// Consecutive ship failures before a replica is considered down (feeds
  /// the per-replica health state and the ship.replica_down metric).
  int unhealthy_after_failures = 3;
  /// For kSyncQuorum: how many replicas (not counting the primary) must
  /// have persisted a commit before it is acknowledged.
  int quorum_replicas = 1;
  /// Per-attempt timeout for kReplSnapshot (full-state images are much
  /// larger than a redo batch, so the regular RPC timeout is too tight).
  /// Kept moderate: while a replica is black-holed (partition) the shipper
  /// blocks a full attempt on this, and an over-long wait delays resumption
  /// well past the heal.
  SimDuration snapshot_timeout = 2 * kSecond;
};

/// Primary-side redo log shipper: one streaming loop per replica, each a
/// sliding-window pipelined transport with batching, optional LZ
/// compression, and retry.
///
/// Window protocol: the loop's *send cursor* runs ahead of the replica's
/// *cumulative ack*, spawning up to `max_inflight_batches` concurrent
/// kReplAppend calls. A loop with a full window parks until one of its own
/// batches completes (the RPC layer always replies or times out); appends
/// and other replicas' acks leave it parked and only restart its idle_wait
/// fallback timer. Acks are cumulative (the replica's applied LSN), so a
/// failure or a refused batch rewinds the send cursor to `ack + 1` and bumps
/// the peer's epoch — replies from sends issued before the rewind are stale:
/// their cumulative acks are still consumed, but they no longer touch the
/// failure / backoff / window state. At most one backoff is charged per
/// failure burst, preserving the capped-exponential health behavior.
///
/// Async mode (GlobalDB): transactions never wait for shipping.
/// Sync modes (baseline): DataNode::WaitDurable blocks commit until the
/// quorum (or all replicas) have acknowledged the commit record's LSN —
/// which is what makes remote replicas so expensive in Fig. 6a.
class LogShipper {
 public:
  LogShipper(sim::Simulator* sim, sim::Network* network, NodeId self,
             ShardId shard, LogStream* stream, std::vector<NodeId> replicas,
             ShipperOptions options = {});

  LogShipper(const LogShipper&) = delete;
  LogShipper& operator=(const LogShipper&) = delete;

  /// Spawns the per-replica ship loops.
  void Start();
  /// Stops the ship loops, failing any blocked WaitDurable waiters with
  /// Unavailable and waking loops sleeping on idle/backoff timers (they
  /// observe `stopped_` and exit instead of staying suspended forever).
  void Stop();

  /// Wakes the ship loops that can ship after the primary appends new
  /// records (every parked loop but those waiting on a full window).
  void NotifyAppend();

  /// Handles a replica's restart announcement (kReplHello): rewinds that
  /// replica's cursor to `durable_lsn + 1`, clears its failure/backoff
  /// state, and wakes its loop so catch-up starts immediately.
  void AnnounceReplica(NodeId replica, Lsn durable_lsn);

  /// Wires the durability manager whose checkpoint snapshot backs the
  /// truncated-cursor fallback (kReplSnapshot full-state transfer).
  void SetDurability(DurabilityManager* durability) {
    durability_ = durability;
  }

  /// Marks every replica as needing a full-state install (with history
  /// reset) before any further shipping — a promoted primary calls this:
  /// its fresh log starts at its applied LSN, so every peer must re-base.
  void RequireSnapshotAll();

  /// Single-peer variant: forces a reset snapshot for one replica (a hello
  /// with a stale promotion epoch — typically a revived ex-primary whose
  /// history diverged, DESIGN.md §13).
  void RequireSnapshot(NodeId replica);

  /// Adds `replica` to the replication set after construction (a revived
  /// ex-primary re-integrating as a replica). The peer starts with a forced
  /// reset snapshot — its history may have diverged — and, if the shipper is
  /// already running, gets its ship loop spawned immediately. No-op if the
  /// peer is already tracked.
  void AddReplica(NodeId replica);

  /// Per-replica health as tracked by the ship loop (false after
  /// `unhealthy_after_failures` consecutive failures, true again on the
  /// first successful ship).
  bool IsReplicaHealthy(NodeId replica) const;

  /// Blocks until the replication mode's durability condition holds for
  /// `lsn`: no-op for async, quorum acks for kSyncQuorum, all replicas for
  /// kSyncAll. Fails with Unavailable if the shipper stops first.
  sim::Task<Status> WaitDurable(Lsn lsn);

  /// Highest LSN acknowledged by `replica` (0 if none).
  Lsn AckedLsn(NodeId replica) const;
  /// Highest LSN acknowledged by at least `quorum_replicas` replicas.
  /// Maintained incrementally per ack (this sits on the sync-commit hot
  /// path, called per-ack per-waiter).
  Lsn QuorumAckedLsn() const;
  /// Highest LSN acknowledged by every replica.
  Lsn AllAckedLsn() const;

  /// Batches currently in flight to `replica` (window occupancy).
  size_t InflightBatches(NodeId replica) const;
  /// Ship loops parked on a full window (for tests).
  size_t LoopsParkedOnWindow() const;

  const ShipperOptions& options() const { return options_; }
  ShipperOptions* mutable_options() { return &options_; }
  Metrics& metrics() { return metrics_; }
  /// RPC client shipping the batches (per-replica latency stats live here).
  rpc::RpcClient& rpc_client() { return client_; }

 private:
  struct DurabilityWaiter {
    Lsn lsn;
    sim::Promise<bool> done;
    DurabilityWaiter(Lsn l, sim::Simulator* sim) : lsn(l), done(sim) {}
  };

  /// Per-replica ship-loop state: the send cursor, the in-flight window, a
  /// pending rewind from a restart announcement, and failure/backoff
  /// tracking.
  struct PeerState {
    /// Next LSN to send (runs ahead of the cumulative ack while batches are
    /// in flight).
    Lsn cursor = 0;
    /// When valid, the loop rewinds its cursor to this before reading.
    Lsn resume_hint = kInvalidLsn;
    /// Bumped by every rewind; replies tagged with an older epoch only
    /// contribute their cumulative ack.
    uint64_t epoch = 0;
    /// Current-epoch batches in flight (the window occupancy).
    size_t inflight = 0;
    /// Earliest time the loop may send again (the backoff gate after a
    /// failure burst).
    SimTime next_send_at = 0;
    int consecutive_failures = 0;
    SimDuration backoff = 0;
    bool healthy = true;
    /// The replica's resume position fell below the log's first retained
    /// LSN (truncation outran it): redo replay cannot catch it up, the loop
    /// must install the latest checkpoint snapshot first.
    bool needs_snapshot = false;
    /// Send the snapshot with the reset flag (post-promotion: the peer's
    /// history diverged, so "already ahead" must not skip the install).
    bool snapshot_reset = false;
    /// The `ship.lag.<replica>` histogram, looked up at the first ack.
    Histogram* lag = nullptr;
    /// The loop while it is parked; null while it runs or its wakeup is
    /// queued.
    std::coroutine_handle<> parked;
    /// Parked on a full window: only this peer's own batch completions, a
    /// rewind or Stop wake it.
    bool parked_on_window = false;
    /// The park's fallback timer.
    sim::EventHandle park_timer;
    /// The loop's place in the wake order: when it parked and a rank that
    /// orders parks within one instant.
    SimTime parked_at = 0;
    uint64_t park_rank = 0;
    /// The rank the last wake reserved for the loop, taken if it parks
    /// again in the event that resumed it (resumed_in_event).
    uint64_t reserved_rank = 0;
    uint64_t resumed_in_event = 0;
    /// Parked on its window and slept through a wake: the place in the
    /// event order where re-checking the window would have run. A wake
    /// that resumes the loop before that place resumes it there.
    sim::EventPlace recheck;
  };

  /// Awaitable: parks the peer's loop until a wake or until `timeout`
  /// elapses (no park at all if it is not positive).
  struct Park {
    LogShipper* shipper;
    PeerState* peer;
    SimDuration timeout;
    bool on_window;
    bool await_ready() const { return timeout <= 0; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const;
  };

  sim::Task<void> ShipLoop(NodeId replica);
  /// Stop-and-wait full-state transfer: ships the durability manager's
  /// latest checkpoint snapshot and, on acceptance, resumes redo shipping
  /// from the replica's post-install applied LSN.
  sim::Task<void> SendSnapshot(NodeId replica);
  /// One in-flight window slot: ships a pre-encoded batch and feeds the
  /// reply back into the peer's window / health / ack state.
  sim::Task<void> SendBatch(NodeId replica, uint64_t epoch,
                            std::string payload);
  /// Returns the fully-encoded kReplAppend payload for the batch starting
  /// at `start` whose records `payload` (a slice of the log) holds: the
  /// request header, then the framed batch, in one string.
  std::string EncodedRequest(Lsn start, Slice payload);
  /// Invalidates the in-flight window and moves the send cursor to `to`
  /// (clamped to the stream's first retained LSN).
  void Rewind(PeerState* peer, Lsn to);
  /// Sleeps up to `d` (returns at once if `d` <= 0), waking early on
  /// NotifyAppend / AnnounceReplica / Stop / ack completion (the loops
  /// re-check state on every wakeup).
  Park InterruptibleSleep(PeerState* peer, SimDuration d) {
    return Park{this, peer, d, false};
  }
  /// Parks until one of the peer's own batches completes (or a rewind or
  /// Stop). Its idle_wait timer only re-checks the window after idle_wait
  /// passes with no wake at all: each wake it sleeps through restarts it.
  Park ParkOnWindow(PeerState* peer) {
    return Park{this, peer, options_.idle_wait, true};
  }
  /// Unparks the peer's loop when its park timer fires.
  void OnParkTimeout(PeerState* peer);
  /// Queues the resumption of a loop taken out of parked_ at `place`,
  /// cancelling its timer.
  void Resume(PeerState* peer, sim::EventPlace place);
  /// Wakes every parked loop.
  void WakeLoops();
  /// Wakes every parked loop that can ship, plus `acked`'s loop if it is
  /// parked on its window.
  void WakeShippers(PeerState* acked);
  /// Wakes parked loops (all of them, or those WakeShippers names) in the
  /// order they last parked. A loop parked on its window that sleeps
  /// through the wake counts as having re-checked its window and parked
  /// again. Loops so wake, and issue their RPCs (the network drawing their
  /// jitter), in the order loops that re-checked a full window at every
  /// wake did, so simulated results do not depend on the skipped wakeups.
  void WakeParked(bool all, PeerState* acked);
  /// Schedules the park's fallback timer.
  void ArmParkTimer(PeerState* peer, SimDuration timeout);
  void OnAck(NodeId replica, Lsn acked);
  void OnShipFailure(PeerState* peer, NodeId replica);
  bool DurabilityReached(Lsn lsn) const;

  sim::Simulator* sim_;
  NodeId self_;
  ShardId shard_;
  LogStream* stream_;
  std::vector<NodeId> replicas_;
  ShipperOptions options_;
  rpc::RpcClient client_;
  DurabilityManager* durability_ = nullptr;

  std::map<NodeId, Lsn> acked_;
  /// acked_ values in descending order, updated in place per ack, so the
  /// quorum / all-replica LSNs are O(replicas) bubble steps instead of a
  /// sort per query.
  std::vector<Lsn> sorted_acks_;
  Lsn quorum_acked_ = 0;
  Lsn all_acked_ = 0;
  std::map<NodeId, PeerState> peers_;
  /// Parked loops, in no particular order (WakeParked sorts them).
  std::vector<PeerState*> parked_;
  /// Source of PeerState::park_rank.
  uint64_t park_ranks_ = 0;
  std::vector<DurabilityWaiter> waiters_;
  bool started_ = false;
  bool stopped_ = false;
  Metrics metrics_;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_REPLICATION_LOG_SHIPPER_H_
