#ifndef GLOBALDB_SRC_REPLICATION_CHECKPOINTER_H_
#define GLOBALDB_SRC_REPLICATION_CHECKPOINTER_H_

#include <functional>

#include "src/common/metrics.h"
#include "src/common/types.h"
#include "src/replication/durability_manager.h"
#include "src/sim/simulator.h"
#include "src/storage/catalog.h"
#include "src/storage/shard_store.h"

namespace globaldb {

/// Periodic durability-lifecycle driver on a DN primary (DESIGN.md §12).
/// Each cycle, synchronously (no suspension between the steps, so the
/// checkpoint is exact as of its record's LSN):
///
///   1. vacuums the shard's version chains at the cluster read horizon, in
///      the same walk counting versions and sizing the store image,
///   2. appends a kCheckpoint redo record carrying that horizon (replicas
///      vacuum at the same horizon when they replay it),
///   3. images the catalog and freezes the store (its image is built only
///      if a replica needs it), and
///   4. publishes the checkpoint to the DurabilityManager, which truncates
///      the redo stream up to min(checkpoint, quorum ack).
class Checkpointer {
 public:
  struct Options {
    SimDuration interval = 1 * kSecond;
  };

  /// `append` must append a redo record to the shard's log and notify the
  /// shipper, returning the assigned LSN (DataNode::AppendAndNotify).
  Checkpointer(sim::Simulator* sim, ShardStore* store, Catalog* catalog,
               DurabilityManager* durability,
               std::function<Lsn(RedoRecord)> append,
               std::function<Timestamp()> max_commit_ts, Metrics* metrics,
               Options options)
      : sim_(sim),
        store_(store),
        catalog_(catalog),
        durability_(durability),
        append_(std::move(append)),
        max_commit_ts_(std::move(max_commit_ts)),
        metrics_(metrics),
        options_(options) {}

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// Runs one checkpoint immediately, then spawns the periodic loop.
  void Start();
  void Stop() { stopped_ = true; }

  /// One vacuum + checkpoint + publish cycle. Synchronous so the frozen
  /// store is consistent with the kCheckpoint record's LSN.
  void RunOnce();

 private:
  sim::Task<void> Loop();

  sim::Simulator* sim_;
  ShardStore* store_;
  Catalog* catalog_;
  DurabilityManager* durability_;
  std::function<Lsn(RedoRecord)> append_;
  std::function<Timestamp()> max_commit_ts_;
  Metrics* metrics_;
  Options options_;
  bool stopped_ = false;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_REPLICATION_CHECKPOINTER_H_
