#ifndef GLOBALDB_SRC_COMMON_TYPES_H_
#define GLOBALDB_SRC_COMMON_TYPES_H_

#include <cstdint>
#include <limits>
#include <string>

namespace globaldb {

/// Simulated time in nanoseconds since simulation start.
using SimTime = int64_t;
/// Duration in simulated nanoseconds.
using SimDuration = int64_t;

constexpr SimDuration kNanosecond = 1;
constexpr SimDuration kMicrosecond = 1000 * kNanosecond;
constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
constexpr SimDuration kSecond = 1000 * kMillisecond;

constexpr SimTime kSimTimeMax = std::numeric_limits<SimTime>::max();

/// Commit / snapshot timestamp. GTM mode issues small consecutive integers;
/// GClock mode issues simulated-epoch nanoseconds; DUAL mode issues
/// max(GTM, GClock upper bound) + 1. All three share one total order.
using Timestamp = uint64_t;
constexpr Timestamp kInvalidTimestamp = 0;
constexpr Timestamp kTimestampMax = std::numeric_limits<Timestamp>::max();

/// Transaction identifier, unique per cluster run.
using TxnId = uint64_t;
constexpr TxnId kInvalidTxnId = 0;

/// Log sequence number within one shard's redo stream.
using Lsn = uint64_t;
constexpr Lsn kInvalidLsn = 0;

/// Identifies a node (CN, DN primary, DN replica, or GTM server).
using NodeId = uint32_t;
constexpr NodeId kInvalidNodeId = std::numeric_limits<NodeId>::max();

/// Identifies a geographic region (city / data center).
using RegionId = uint32_t;

/// Identifies a logical data shard. Each shard has one primary DN and
/// zero or more replica DNs.
using ShardId = uint32_t;
constexpr ShardId kInvalidShardId = std::numeric_limits<ShardId>::max();

/// Identifies a table in the catalog.
using TableId = uint32_t;
constexpr TableId kInvalidTableId = 0;

/// Row key within a table (already reduced to a canonical binary form).
using RowKey = std::string;

/// Timestamp generation mode of a node or of the whole cluster
/// (Section III-A of the paper).
enum class TimestampMode {
  kGtm = 0,    // centralized Global Transaction Manager counter
  kDual = 1,   // bridge mode: max(TS_GTM, TS_GClock) + 1
  kGclock = 2  // decentralized synchronized-clock timestamps
};

/// Returns "GTM" / "DUAL" / "GCLOCK".
inline const char* TimestampModeName(TimestampMode mode) {
  switch (mode) {
    case TimestampMode::kGtm:
      return "GTM";
    case TimestampMode::kDual:
      return "DUAL";
    case TimestampMode::kGclock:
      return "GCLOCK";
  }
  return "?";
}

/// Replication mode for a shard's redo stream (Section II-B).
enum class ReplicationMode {
  kAsync = 0,       // GlobalDB: ship logs without waiting
  kSyncQuorum = 1,  // baseline: wait for a quorum (may include remote)
  kSyncAll = 2      // wait for every replica
};

inline const char* ReplicationModeName(ReplicationMode mode) {
  switch (mode) {
    case ReplicationMode::kAsync:
      return "ASYNC";
    case ReplicationMode::kSyncQuorum:
      return "SYNC_QUORUM";
    case ReplicationMode::kSyncAll:
      return "SYNC_ALL";
  }
  return "?";
}

}  // namespace globaldb

#endif  // GLOBALDB_SRC_COMMON_TYPES_H_
