#ifndef GLOBALDB_SRC_TXN_MESSAGES_H_
#define GLOBALDB_SRC_TXN_MESSAGES_H_

#include <string>

#include "src/common/codec.h"
#include "src/common/statusor.h"
#include "src/common/types.h"
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

  std::string Encode() const {
    std::string s;
    s.push_back(static_cast<char>(client_mode));
    s.push_back(is_commit ? 1 : 0);
    PutVarint64(&s, gclock_upper);
    PutVarint64(&s, static_cast<uint64_t>(error_bound));
    PutVarint32(&s, count);
    return s;
  }

  static StatusOr<GtmTimestampRequest> Decode(Slice in) {
    GtmTimestampRequest r;
    if (in.size() < 2) return Status::Corruption("gtm req: short");
    r.client_mode = static_cast<TimestampMode>(in[0]);
    r.is_commit = in[1] != 0;
    in.RemovePrefix(2);
    uint64_t err = 0;
    if (!GetVarint64(&in, &r.gclock_upper) || !GetVarint64(&in, &err) ||
        !GetVarint32(&in, &r.count)) {
      return Status::Corruption("gtm req: truncated");
    }
    r.error_bound = static_cast<SimDuration>(err);
    return r;
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

  std::string Encode() const {
    std::string s;
    s.push_back(aborted ? 1 : 0);
    PutVarint64(&s, ts);
    PutVarint64(&s, static_cast<uint64_t>(wait));
    s.push_back(static_cast<char>(server_mode));
    return s;
  }

  static StatusOr<GtmTimestampReply> Decode(Slice in) {
    GtmTimestampReply r;
    if (in.empty()) return Status::Corruption("gtm reply: empty");
    r.aborted = in[0] != 0;
    in.RemovePrefix(1);
    uint64_t wait = 0;
    if (!GetVarint64(&in, &r.ts) || !GetVarint64(&in, &wait) || in.empty()) {
      return Status::Corruption("gtm reply: truncated");
    }
    r.wait = static_cast<SimDuration>(wait);
    r.server_mode = static_cast<TimestampMode>(in[0]);
    return r;
  }
};

/// Mode-switch command (GTM server or CN). `floor` carries a timestamp the
/// target must not issue below (used when entering GTM mode after GClock).
struct SetModeRequest {
  TimestampMode mode = TimestampMode::kGtm;
  Timestamp floor = 0;

  std::string Encode() const {
    std::string s;
    s.push_back(static_cast<char>(mode));
    PutVarint64(&s, floor);
    return s;
  }

  static StatusOr<SetModeRequest> Decode(Slice in) {
    SetModeRequest r;
    if (in.empty()) return Status::Corruption("set_mode: empty");
    r.mode = static_cast<TimestampMode>(in[0]);
    in.RemovePrefix(1);
    if (!GetVarint64(&in, &r.floor)) {
      return Status::Corruption("set_mode: truncated");
    }
    return r;
  }
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

  std::string Encode() const {
    std::string s;
    PutVarint64(&s, max_issued);
    PutVarint64(&s, static_cast<uint64_t>(max_error_bound));
    s.append(kReservedBytes, '\0');
    return s;
  }

  static StatusOr<AckReply> Decode(Slice in) {
    AckReply r;
    uint64_t err = 0;
    if (!GetVarint64(&in, &r.max_issued) || !GetVarint64(&in, &err) ||
        in.size() < kReservedBytes) {
      return Status::Corruption("ack: truncated");
    }
    r.max_error_bound = static_cast<SimDuration>(err);
    return r;
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
