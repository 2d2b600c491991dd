#ifndef GLOBALDB_SRC_TXN_MESSAGES_H_
#define GLOBALDB_SRC_TXN_MESSAGES_H_

#include "src/common/types.h"
#include "src/rpc/fields.h"
#include "src/rpc/rpc_method.h"

namespace globaldb {

/// Request for `count` timestamps from the GTM server. DUAL-mode clients
/// attach their GClock upper bound so the server can issue
/// TS_DUAL = max(TS_GTM, TS_GClock) + 1 (Eq. 3). A coalescing timestamp
/// source (DESIGN.md §10) sets count > 1 to draw one contiguous range for
/// several concurrent waiters with a single round trip; `is_commit` is the
/// OR and `gclock_upper`/`error_bound` the max over the coalesced waiters.
struct GtmTimestampRequest {
  TimestampMode client_mode = TimestampMode::kGtm;
  bool is_commit = false;
  Timestamp gclock_upper = 0;   // client's TS_GClock upper bound (DUAL only)
  SimDuration error_bound = 0;  // client's T_err (DUAL only)
  uint32_t count = 1;           // timestamps requested (coalesced batch size)

  static void Fields(auto& self, auto&& visit) {
    visit(self.client_mode, self.is_commit, self.gclock_upper,
          self.error_bound, self.count);
  }
};

/// Reply: the issued timestamp (for count > 1 the *last* of the contiguous
/// range (ts - count, ts]), a commit wait the client must perform
/// before making its commit visible (non-zero only for GTM-mode commits
/// while the server is in DUAL mode: 2x the max observed error bound), and
/// the server's current mode. `aborted` is set when a GTM-mode transaction
/// tries to commit after the cluster has moved to GClock mode.
///
/// Range-consumption contract (DESIGN.md §10): the granted range
/// (ts - count, ts] is fanned out by the coalescing client in waiter arrival
/// order, binding each timestamp in the range to exactly one waiter at
/// fan-out time. A timestamp stays bound to its waiter even if that waiter's
/// transaction later aborts: the value is simply abandoned, leaving a
/// harmless gap in the committed-timestamp sequence. Grants are never
/// re-entered into any pool and never reissued — correctness relies on
/// uniqueness and monotonicity of issued timestamps, not on density.
struct GtmTimestampReply {
  bool aborted = false;
  Timestamp ts = 0;
  SimDuration wait = 0;
  TimestampMode server_mode = TimestampMode::kGtm;

  static void Fields(auto& self, auto&& visit) {
    visit(self.aborted, self.ts, self.wait, self.server_mode);
  }
};

/// Mode-switch command (GTM server or CN). `floor` carries a timestamp the
/// target must not issue below (used when entering GTM mode after GClock).
struct SetModeRequest {
  TimestampMode mode = TimestampMode::kGtm;
  Timestamp floor = 0;

  static void Fields(auto& self, auto&& visit) { visit(self.mode, self.floor); }
};

/// Generic ack carrying a timestamp (max issued / observed error bound).
///
/// The encoding ends in two reserved zero bytes. They are where two
/// since-removed varint fields (always zero) used to sit, and they stay so
/// the health monitor's periodic kCnMaxIssued polls keep their wire size:
/// the simulated network charges transfer delay per byte, so dropping them
/// would shift simulated latencies.
struct AckReply {
  static constexpr size_t kReservedBytes = 2;

  Timestamp max_issued = 0;
  SimDuration max_error_bound = 0;

  static void Fields(auto& self, auto&& visit) {
    visit(self.max_issued, self.max_error_bound,
          rpc::Reserved<kReservedBytes>{});
  }
};

// --- Method descriptors ------------------------------------------------------

// Served by the GTM server.
inline constexpr rpc::RpcMethod<GtmTimestampRequest, GtmTimestampReply>
    kGtmTimestamp{"gtm.timestamp"};
inline constexpr rpc::RpcMethod<SetModeRequest, AckReply> kGtmSetMode{
    "gtm.set_mode"};

// Served by each CN's timestamp source.
inline constexpr rpc::RpcMethod<SetModeRequest, AckReply> kCnSetMode{
    "cn.set_mode"};
inline constexpr rpc::RpcMethod<rpc::EmptyMessage, AckReply> kCnMaxIssued{
    "cn.max_issued"};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_TXN_MESSAGES_H_
