#include "src/txn/lock_manager.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/simulator.h"

namespace globaldb {
namespace {

class LockManagerTest : public ::testing::Test {
 protected:
  LockManagerTest() : sim_(3), locks_(&sim_, /*timeout=*/100 * kMillisecond) {}

  // Note: coroutine parameters must be taken by value — a reference
  // parameter would dangle once the caller's temporary dies at the first
  // suspension point.
  sim::Task<void> AcquireAt(SimDuration delay, TxnId txn, RowKey key,
                            std::vector<std::pair<TxnId, Status>>* log) {
    co_await sim_.Sleep(delay);
    Status s = co_await locks_.Acquire(txn, 1, key);
    log->push_back({txn, s});
  }

  sim::Simulator sim_;
  LockManager locks_;
};

TEST_F(LockManagerTest, ImmediateGrantWhenFree) {
  std::vector<std::pair<TxnId, Status>> log;
  sim_.Spawn(AcquireAt(0, 1, "k", &log));
  sim_.Run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_TRUE(log[0].second.ok());
  EXPECT_EQ(locks_.HeldCount(1), 1u);
}

TEST_F(LockManagerTest, ReentrantAcquire) {
  std::vector<std::pair<TxnId, Status>> log;
  sim_.Spawn(AcquireAt(0, 1, "k", &log));
  sim_.Spawn(AcquireAt(1, 1, "k", &log));
  sim_.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[1].second.ok());
  EXPECT_EQ(locks_.HeldCount(1), 1u);  // still just one lock
}

TEST_F(LockManagerTest, WaiterGrantedOnRelease) {
  std::vector<std::pair<TxnId, Status>> log;
  sim_.Spawn(AcquireAt(0, 1, "k", &log));
  sim_.Spawn(AcquireAt(1000, 2, "k", &log));
  sim_.Schedule(50 * kMillisecond, [&] { locks_.ReleaseAll(1); });
  sim_.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[1].second.ok());
  EXPECT_EQ(log[1].first, 2u);
  EXPECT_EQ(locks_.HeldCount(1), 0u);
  EXPECT_EQ(locks_.HeldCount(2), 1u);
}

TEST_F(LockManagerTest, GrantAfterAWaitLeavesNoPendingEvent) {
  // The grant cancels the waiter's lock timeout, so nothing stays queued
  // once the waiter holds the lock.
  std::vector<std::pair<TxnId, Status>> log;
  sim_.Spawn(AcquireAt(0, 1, "k", &log));
  sim_.Spawn(AcquireAt(1000, 2, "k", &log));
  sim_.RunFor(10 * kMillisecond);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(sim_.pending_events(), 1u);  // the waiter's timeout
  locks_.ReleaseAll(1);
  sim_.RunFor(1);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[1].second.ok());
  EXPECT_EQ(sim_.pending_events(), 0u);
  sim_.Run();
  EXPECT_EQ(sim_.now(), 10 * kMillisecond + 1);
  EXPECT_EQ(locks_.metrics().Get("lock.timeouts"), 0);
}

TEST_F(LockManagerTest, FifoOrderAmongWaiters) {
  std::vector<std::pair<TxnId, Status>> log;
  sim_.Spawn(AcquireAt(0, 1, "k", &log));
  sim_.Spawn(AcquireAt(10, 2, "k", &log));
  sim_.Spawn(AcquireAt(20, 3, "k", &log));
  sim_.Schedule(30 * kMillisecond, [&] { locks_.ReleaseAll(1); });
  sim_.Schedule(60 * kMillisecond, [&] { locks_.ReleaseAll(2); });
  sim_.Run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[1].first, 2u);  // txn 2 queued first, granted first
  EXPECT_EQ(log[2].first, 3u);
  EXPECT_TRUE(log[2].second.ok());
}

TEST_F(LockManagerTest, TimeoutAborts) {
  std::vector<std::pair<TxnId, Status>> log;
  sim_.Spawn(AcquireAt(0, 1, "k", &log));
  sim_.Spawn(AcquireAt(10, 2, "k", &log));  // holder never releases
  sim_.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[1].second.IsTimedOut());
  EXPECT_EQ(locks_.metrics().Get("lock.timeouts"), 1);
}

TEST_F(LockManagerTest, TimedOutWaiterSkippedOnRelease) {
  std::vector<std::pair<TxnId, Status>> log;
  sim_.Spawn(AcquireAt(0, 1, "k", &log));
  sim_.Spawn(AcquireAt(10, 2, "k", &log));   // will time out at ~100ms
  sim_.Spawn(AcquireAt(150 * kMillisecond, 3, "k", &log));
  sim_.Schedule(200 * kMillisecond, [&] { locks_.ReleaseAll(1); });
  sim_.Run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_TRUE(log[1].second.IsTimedOut());
  EXPECT_TRUE(log[2].second.ok());  // txn 3 gets it, skipping dead waiter 2
  EXPECT_EQ(locks_.HeldCount(3), 1u);
}

TEST_F(LockManagerTest, DistinctKeysIndependent) {
  std::vector<std::pair<TxnId, Status>> log;
  sim_.Spawn(AcquireAt(0, 1, "a", &log));
  sim_.Spawn(AcquireAt(1, 2, "b", &log));
  sim_.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[0].second.ok());
  EXPECT_TRUE(log[1].second.ok());
}

TEST_F(LockManagerTest, SameKeyDifferentTablesIndependent) {
  std::vector<std::pair<TxnId, Status>> log;
  auto acquire = [this, &log](TxnId txn, TableId table) -> sim::Task<void> {
    Status s = co_await locks_.Acquire(txn, table, "k");
    log.push_back({txn, s});
  };
  sim_.Spawn(acquire(1, 1));
  sim_.Spawn(acquire(2, 2));
  sim_.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[0].second.ok());
  EXPECT_TRUE(log[1].second.ok());
}

TEST_F(LockManagerTest, DeadlockResolvedByTimeout) {
  // txn1 holds a, wants b; txn2 holds b, wants a.
  std::vector<std::pair<TxnId, Status>> log;
  auto txn1 = [&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await locks_.Acquire(1, 1, "a")).ok());
    co_await sim_.Sleep(10);
    Status s = co_await locks_.Acquire(1, 1, "b");
    log.push_back({1, s});
    if (!s.ok()) locks_.ReleaseAll(1);
  };
  auto txn2 = [&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await locks_.Acquire(2, 1, "b")).ok());
    co_await sim_.Sleep(10);
    Status s = co_await locks_.Acquire(2, 1, "a");
    log.push_back({2, s});
    if (!s.ok()) locks_.ReleaseAll(2);
  };
  sim_.Spawn(txn1());
  sim_.Spawn(txn2());
  sim_.Run();
  ASSERT_EQ(log.size(), 2u);
  // Both time out (simple policy); importantly, the system does not hang.
  int timeouts = 0;
  for (auto& [txn, s] : log) {
    if (s.IsTimedOut()) ++timeouts;
  }
  EXPECT_GE(timeouts, 1);
}

TEST_F(LockManagerTest, ReleaseAllWithoutLocksIsNoop) {
  locks_.ReleaseAll(42);
  EXPECT_EQ(locks_.TotalHeld(), 0u);
}

}  // namespace
}  // namespace globaldb
