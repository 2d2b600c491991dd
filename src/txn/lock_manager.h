#ifndef GLOBALDB_SRC_TXN_LOCK_MANAGER_H_
#define GLOBALDB_SRC_TXN_LOCK_MANAGER_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/sim/future.h"
#include "src/sim/simulator.h"

namespace globaldb {

/// Row-level exclusive locks with FIFO wait queues on a primary data node.
/// Writers acquire the lock before touching the MVCC chain, so provisional
/// write-write conflicts cannot occur; conflicts against newer committed
/// versions still abort (first-committer-wins under snapshot isolation).
///
/// Deadlocks are resolved by timeout: a waiter that does not get the lock
/// within `lock_timeout` aborts its transaction (classic distributed-lock
/// practice; precise cycle detection is cluster-wide and not needed here).
class LockManager {
 public:
  explicit LockManager(sim::Simulator* sim,
                       SimDuration lock_timeout = 500 * kMillisecond)
      : sim_(sim), lock_timeout_(lock_timeout) {}

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquires the (table, key) lock for `txn`. Re-acquiring a held lock is
  /// a no-op. Fails with TimedOut when the wait exceeds the timeout.
  /// (`key` is by value: coroutine reference parameters dangle when bound
  /// to caller temporaries.)
  sim::Task<Status> Acquire(TxnId txn, TableId table, RowKey key);

  /// Releases every lock held by `txn` and grants queued waiters.
  void ReleaseAll(TxnId txn);

  /// Synchronous, non-blocking acquire: grants the (table, key) lock to
  /// `txn` iff it is free (or already held by `txn`); never queues. Used at
  /// promotion install time to pin the keys of in-doubt prepared
  /// transactions before the shard re-opens for writes (DESIGN.md §13) —
  /// install runs in an atomic no-co_await section, so waiting is not an
  /// option and the lock table is empty anyway on a fresh primary.
  bool TryAcquire(TxnId txn, TableId table, const RowKey& key);

  /// True if `txn` currently holds the (table, key) lock.
  bool IsHeldBy(TxnId txn, TableId table, const RowKey& key) const {
    auto it = locks_.find(LockKey(table, key));
    return it != locks_.end() && it->second.holder == txn;
  }

  /// Number of locks currently held by `txn`.
  size_t HeldCount(TxnId txn) const;
  /// Total locks currently held across all transactions.
  size_t TotalHeld() const { return locks_.size(); }

  Metrics& metrics() { return metrics_; }

 private:
  struct Waiter {
    TxnId txn;
    sim::Promise<bool> granted;  // true = lock acquired, false = timed out
    Waiter(TxnId t, sim::Simulator* sim) : txn(t), granted(sim) {}
  };

  struct LockState {
    TxnId holder = kInvalidTxnId;
    /// FIFO, oldest first. A vector, not a deque: waits are rare, and an
    /// empty libstdc++ deque still allocates a map and a 512 B node for
    /// every newly locked key.
    std::vector<Waiter> waiters;
  };

  static std::string LockKey(TableId table, const RowKey& key) {
    std::string k;
    k.reserve(key.size() + 4);
    k.push_back(static_cast<char>(table & 0xff));
    k.push_back(static_cast<char>((table >> 8) & 0xff));
    k.push_back(static_cast<char>((table >> 16) & 0xff));
    k.push_back(static_cast<char>((table >> 24) & 0xff));
    k += key;
    return k;
  }

  sim::Simulator* sim_;
  SimDuration lock_timeout_;
  std::map<std::string, LockState> locks_;
  std::unordered_map<TxnId, std::vector<std::string>> held_;
  Metrics metrics_;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_TXN_LOCK_MANAGER_H_
