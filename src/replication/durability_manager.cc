#include "src/replication/durability_manager.h"

#include <utility>

#include "src/replication/log_shipper.h"

namespace globaldb {

Lsn DurabilityManager::TruncationWatermark() const {
  if (!snapshot_.valid()) return 0;
  // With no shipper the primary is the entire replica set: everything up to
  // the checkpoint is truncatable. QuorumAckedLsn() returns the log tail in
  // the zero-replica case, giving the same result.
  const Lsn quorum =
      shipper_ == nullptr ? stream_->next_lsn() - 1 : shipper_->QuorumAckedLsn();
  return std::min(snapshot_.checkpoint_lsn, quorum);
}

void DurabilityManager::PublishCheckpoint(ShardSnapshot snapshot) {
  snapshot_ = std::move(snapshot);
  metrics_->Add("durability.checkpoints");
  const Lsn watermark = TruncationWatermark();
  if (watermark + 1 <= stream_->begin_lsn()) return;
  const size_t before = stream_->size();
  stream_->TruncateUntil(watermark + 1);
  const size_t dropped = before - stream_->size();
  if (dropped > 0) {
    metrics_->Add("durability.log_truncated_records",
                  static_cast<int64_t>(dropped));
  }
}

}  // namespace globaldb
