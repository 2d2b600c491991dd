#include "src/txn/lock_manager.h"

#include <algorithm>

#include "src/common/logging.h"

namespace globaldb {

sim::Task<Status> LockManager::Acquire(TxnId txn, TableId table,
                                       RowKey key) {
  const std::string lock_key = LockKey(table, key);
  LockState& state = locks_[lock_key];

  if (state.holder == txn) co_return Status::OK();  // re-entrant

  if (state.holder == kInvalidTxnId && state.waiters.empty()) {
    state.holder = txn;
    held_[txn].push_back(lock_key);
    metrics_.Add("lock.immediate_grants");
    co_return Status::OK();
  }

  // Queue up and wait with a timeout.
  metrics_.Add("lock.waits");
  state.waiters.emplace_back(txn, sim_);
  sim::Promise<bool> granted = state.waiters.back().granted;
  sim::Future<bool> future = granted.GetFuture();
  sim_->Schedule(lock_timeout_, [granted]() mutable {
    sim::Promise<bool> p = granted;
    p.TrySet(false);
  });

  const bool ok = co_await future;
  if (!ok) {
    metrics_.Add("lock.timeouts");
    co_return Status::TimedOut("lock wait timeout (possible deadlock)");
  }
  // The releaser recorded us as holder and registered the key under us.
  co_return Status::OK();
}

bool LockManager::TryAcquire(TxnId txn, TableId table, const RowKey& key) {
  const std::string lock_key = LockKey(table, key);
  LockState& state = locks_[lock_key];
  if (state.holder == txn) return true;  // re-entrant
  if (state.holder != kInvalidTxnId || !state.waiters.empty()) return false;
  state.holder = txn;
  held_[txn].push_back(lock_key);
  metrics_.Add("lock.immediate_grants");
  return true;
}

void LockManager::ReleaseAll(TxnId txn) {
  auto it = held_.find(txn);
  if (it == held_.end()) return;
  // Detach first: granting waiters inserts into held_, which may rehash.
  std::vector<std::string> keys = std::move(it->second);
  held_.erase(it);
  for (const std::string& lock_key : keys) {
    auto lock_it = locks_.find(lock_key);
    if (lock_it == locks_.end()) continue;
    LockState& state = lock_it->second;
    if (state.holder != txn) continue;  // already handed over
    state.holder = kInvalidTxnId;
    // Grant to the first waiter that has not timed out.
    while (!state.waiters.empty()) {
      Waiter waiter = std::move(state.waiters.front());
      state.waiters.erase(state.waiters.begin());
      if (waiter.granted.TrySet(true)) {
        state.holder = waiter.txn;
        held_[waiter.txn].push_back(lock_key);
        break;
      }
      // Waiter timed out; skip it.
    }
    if (state.holder == kInvalidTxnId && state.waiters.empty()) {
      locks_.erase(lock_it);
    }
  }
}

size_t LockManager::HeldCount(TxnId txn) const {
  auto it = held_.find(txn);
  return it == held_.end() ? 0 : it->second.size();
}

}  // namespace globaldb
