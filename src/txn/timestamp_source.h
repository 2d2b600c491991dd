#ifndef GLOBALDB_SRC_TXN_TIMESTAMP_SOURCE_H_
#define GLOBALDB_SRC_TXN_TIMESTAMP_SOURCE_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/statusor.h"
#include "src/common/types.h"
#include "src/rpc/rpc_client.h"
#include "src/rpc/rpc_server.h"
#include "src/sim/future.h"
#include "src/sim/hardware_clock.h"
#include "src/sim/network.h"
#include "src/txn/messages.h"

namespace globaldb {

/// Per-CN timestamp facility implementing all three modes of Section III.
///
/// - GTM: every begin/commit is an RPC to the GTM server (the centralized
///   baseline whose cost Figs. 6b-6d measure).
/// - GClock: timestamps come from the local synchronized clock,
///   TS = T_clock + T_err, with the Spanner-style wait until
///   T_clock > TS at both invocation and commit. Single-shard reads bypass
///   the invocation wait using the node's last committed timestamp.
/// - DUAL: obtain the local GClock upper bound, then ask the GTM server for
///   TS_DUAL = max(TS_GTM, TS_GClock) + 1; commit additionally waits out the
///   local clock so later GClock transactions order after it.
///
/// A transaction's mode is captured at begin; commit routes by that mode so
/// the transition protocol's abort/wait rules apply (Figs. 2-3, Listing 1).
class TimestampSource {
 public:
  TimestampSource(sim::Simulator* sim, sim::Network* network, NodeId self,
                  NodeId gtm_node, sim::HardwareClock* clock);

  TimestampSource(const TimestampSource&) = delete;
  TimestampSource& operator=(const TimestampSource&) = delete;

  TimestampMode mode() const { return mode_; }
  /// Local mode switch (normally driven via the kCnSetMode RPC).
  void SetMode(TimestampMode mode) { mode_ = mode; }

  /// Snapshot timestamp for a new transaction. Single-shard read-only work
  /// can bypass the GClock invocation wait via the node's last committed
  /// timestamp. Also returns the mode the transaction runs under.
  struct Grant {
    Timestamp ts = 0;
    TimestampMode mode = TimestampMode::kGtm;
  };
  sim::Task<StatusOr<Grant>> BeginTs(bool single_shard_read);

  /// Commit timestamp for a transaction begun under `txn_mode`. All
  /// required waits (GClock commit wait; the 2x-error-bound DUAL wait for
  /// GTM-mode transactions) are performed before returning. Fails with
  /// Aborted for GTM transactions after the cluster moved to GClock.
  sim::Task<StatusOr<Timestamp>> CommitTs(TimestampMode txn_mode);

  /// Notes a locally committed transaction timestamp (single-shard snapshot
  /// bypass and transition floor collection).
  void RecordCommitted(Timestamp ts) {
    last_committed_ = std::max(last_committed_, ts);
    max_issued_ = std::max(max_issued_, ts);
  }

  Timestamp last_committed() const { return last_committed_; }
  /// Largest timestamp this node has issued or observed (GClock floor for
  /// the GClock -> GTM transition).
  Timestamp max_issued() const { return max_issued_; }

  sim::HardwareClock* clock() { return clock_; }
  Metrics& metrics() { return metrics_; }
  /// RPC client used for GTM traffic (retry/latency stats live here).
  rpc::RpcClient& rpc_client() { return client_; }

 private:
  /// Waits until the local clock reading exceeds `ts` (commit wait).
  sim::Task<void> WaitClockPast(Timestamp ts);
  /// GClock timestamp + wait (both invocation and commit use this).
  sim::Task<Timestamp> GclockTimestamp();
  /// GTM-path RPC (GTM and DUAL modes): enqueues a waiter and lets the pump
  /// batch it with its contemporaries. Concurrent requests on this node
  /// share a single in-flight kGtmTimestamp RPC: the server grants a
  /// contiguous range of `count` timestamps and the pump fans it out to the
  /// waiters in arrival order (DESIGN.md §10).
  sim::Task<StatusOr<GtmTimestampReply>> CallGtm(TimestampMode client_mode,
                                                 bool is_commit);
  /// One queued GTM/DUAL request awaiting a coalesced grant. DUAL inputs
  /// (clock upper bound, error bound) are captured at enqueue time: the
  /// granted range exceeds the batch max, so each waiter's timestamp still
  /// dominates everything it observed before requesting.
  struct GtmWaiter {
    explicit GtmWaiter(sim::Simulator* sim) : reply(sim) {}
    Timestamp gclock_upper = 0;
    SimDuration error_bound = 0;
    sim::Promise<StatusOr<GtmTimestampReply>> reply;
  };
  /// Drains queue_[mode][is_commit]: one RPC per accumulated batch, fanning
  /// the granted range to waiters in arrival order. At most one pump (and
  /// so one in-flight RPC) per queue.
  sim::Task<void> PumpGtm(TimestampMode mode, bool is_commit);
  static constexpr int ModeIndex(TimestampMode mode) {
    return static_cast<int>(mode);
  }
  static constexpr int CommitIndex(bool is_commit) { return is_commit ? 1 : 0; }
  void BindService();
  /// Current issued-timestamp watermark + clock error bound.
  AckReply MakeAck() const;
  sim::Task<StatusOr<AckReply>> HandleSetMode(NodeId from,
                                              SetModeRequest request);
  sim::Task<StatusOr<AckReply>> HandleMaxIssued(NodeId from,
                                                rpc::EmptyMessage request);

  sim::Simulator* sim_;
  NodeId self_;
  NodeId gtm_node_;
  sim::HardwareClock* clock_;
  rpc::RpcClient client_;
  rpc::RpcServer server_;

  TimestampMode mode_ = TimestampMode::kGtm;
  Timestamp last_committed_ = 0;
  Timestamp max_issued_ = 0;
  // Waiter queues and pump liveness, indexed by (TimestampMode, is_commit).
  // A batch is homogeneous on both axes: GTM and DUAL are never mixed (the
  // server applies different grant rules — Eq. 2 vs Eq. 3), and begins never
  // share an RPC with commits, so the server's per-request verdict (abort,
  // DUAL wait) applies to every waiter of the batch identically — no
  // per-waiter patching of the shared reply.
  std::vector<std::shared_ptr<GtmWaiter>> queue_[3][2];
  bool pump_active_[3][2] = {};
  Metrics metrics_;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_TXN_TIMESTAMP_SOURCE_H_
