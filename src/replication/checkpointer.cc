#include "src/replication/checkpointer.h"

#include <utility>

#include "src/storage/snapshot.h"

namespace globaldb {

void Checkpointer::Start() {
  stopped_ = false;
  RunOnce();
  sim_->Spawn(Loop());
}

sim::Task<void> Checkpointer::Loop() {
  while (!stopped_) {
    co_await sim_->Sleep(options_.interval);
    if (stopped_) break;
    RunOnce();
  }
}

void Checkpointer::RunOnce() {
  const Timestamp horizon = durability_->VacuumHorizon();
  const MvccTable::VacuumStats vacuum = store_->Vacuum(horizon);
  metrics_->Add("storage.versions_gced",
                static_cast<int64_t>(vacuum.reclaimed));
  // versions_live is a gauge: adjust the counter to the current value.
  metrics_->Add("storage.versions_live",
                static_cast<int64_t>(vacuum.versions) -
                    metrics_->Get("storage.versions_live"));

  // Quiet shard: the retained checkpoint already covers the whole log.
  // Appending another kCheckpoint would keep the tail moving forever (and
  // with it every replica's convergence target).
  if (durability_->CheckpointCurrent()) {
    metrics_->Add("durability.checkpoint_skips");
    return;
  }

  ShardSnapshot snapshot;
  snapshot.checkpoint_lsn = append_(RedoRecord::Checkpoint(horizon));
  snapshot.checkpoint_ts = horizon;
  snapshot.max_commit_ts = max_commit_ts_();
  snapshot.catalog_image = EncodeCatalog(*catalog_);
  // Nothing changed the store since the vacuum walk sized it, so that size
  // is the frozen image's.
  store_->Freeze();
  snapshot.store = store_;
  metrics_->Hist("durability.snapshot_bytes")
      .Record(static_cast<int64_t>(vacuum.image_bytes));
  durability_->PublishCheckpoint(std::move(snapshot));
}

}  // namespace globaldb
