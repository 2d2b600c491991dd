#ifndef GLOBALDB_SRC_REPLICATION_DURABILITY_MANAGER_H_
#define GLOBALDB_SRC_REPLICATION_DURABILITY_MANAGER_H_

#include <algorithm>

#include "src/common/metrics.h"
#include "src/common/types.h"
#include "src/log/log_stream.h"
#include "src/storage/snapshot.h"

namespace globaldb {

class LogShipper;

/// Owns one shard's durability watermarks (DESIGN.md §12):
///
///  - the *truncation watermark* — the highest LSN safe to drop from the
///    redo stream: min(checkpoint_lsn, quorum_acked_lsn). Records above the
///    quorum ack must stay shippable; records above the checkpoint are not
///    yet captured by any snapshot, so a lagging replica still needs them.
///  - the *vacuum horizon* — the highest timestamp safe to GC versions
///    below: the cluster-wide oldest in-flight read timestamp, pushed by
///    the RCP collector via kDnReadHorizon. Monotone by construction
///    (clamped here), which keeps it safe across GClock<->GTM fallback:
///    DUAL-mode issuance preserves the cluster's single timestamp order.
///
/// It also retains the latest checkpoint, whose frozen store the log
/// shipper images for replicas whose resume LSN fell below the truncation
/// point.
class DurabilityManager {
 public:
  DurabilityManager(LogStream* stream, Metrics* metrics)
      : stream_(stream), metrics_(metrics) {}

  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  /// The shipper whose quorum ack bounds truncation (null until replication
  /// is configured: then the primary itself is the whole quorum).
  void set_shipper(LogShipper* shipper) { shipper_ = shipper; }

  /// Monotone clamp of the cluster low-watermark read timestamp.
  void AdvanceReadHorizon(Timestamp horizon) {
    read_horizon_ = std::max(read_horizon_, horizon);
  }
  Timestamp read_horizon() const { return read_horizon_; }

  /// Highest LSN whose records may be dropped (records with lsn <= this are
  /// truncatable). Never exceeds the quorum ack or the checkpoint LSN.
  Lsn TruncationWatermark() const;

  /// Timestamp the next Vacuum/checkpoint may prune below: no in-flight or
  /// future read anywhere in the cluster runs at a snapshot below it.
  Timestamp VacuumHorizon() const { return read_horizon_; }

  /// Installs a fresh checkpoint, then truncates the log up to the new
  /// watermark (keeping everything past the quorum ack shippable).
  void PublishCheckpoint(ShardSnapshot snapshot);

  /// Seeds checkpoint state without truncating — used when a promoted
  /// replica becomes primary: its installed state, frozen, *is* the
  /// checkpoint at its applied LSN, and stragglers below it must install
  /// via snapshot.
  void SeedCheckpoint(ShardSnapshot snapshot) {
    snapshot_ = std::move(snapshot);
  }

  bool HasSnapshot() const { return snapshot_.valid(); }
  /// True when the retained checkpoint already sits at the log tail —
  /// nothing was appended since, so a new checkpoint would change neither
  /// the snapshot's coverage nor the truncation watermark. Lets the
  /// checkpointer idle on a quiet shard instead of appending kCheckpoint
  /// records forever.
  bool CheckpointCurrent() const {
    return snapshot_.valid() &&
           snapshot_.checkpoint_lsn == stream_->next_lsn() - 1;
  }
  const ShardSnapshot& snapshot() const { return snapshot_; }
  Lsn checkpoint_lsn() const {
    return snapshot_.valid() ? snapshot_.checkpoint_lsn : 0;
  }

 private:
  LogStream* stream_;
  Metrics* metrics_;
  LogShipper* shipper_ = nullptr;
  ShardSnapshot snapshot_;
  Timestamp read_horizon_ = 0;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_REPLICATION_DURABILITY_MANAGER_H_
