// GTM timestamp coalescing (DESIGN.md §10): concurrent begin/commit
// requests on one CN share a single in-flight kGtmTimestamp RPC, the
// server grants a contiguous range, and the source fans it out in arrival
// order. These tests pin down the RPC amortization, strict monotonicity
// of the fanned-out grants, and the per-waiter DUAL wait semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/sim/hardware_clock.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/txn/gtm_server.h"
#include "src/txn/timestamp_source.h"

namespace globaldb {
namespace {

constexpr NodeId kGtmNode = 0;
constexpr NodeId kCn1 = 1;
constexpr NodeId kCn2 = 2;

/// Two CNs + the GTM server on a 2-region network (20 ms inter-region).
class GtmCoalesceTest : public ::testing::Test {
 protected:
  GtmCoalesceTest()
      : sim_(11), net_(&sim_, sim::Topology::Uniform(2, 20 * kMillisecond),
                       NetOptions()) {
    net_.RegisterNode(kGtmNode, 0);
    net_.RegisterNode(kCn1, 0);
    net_.RegisterNode(kCn2, 1);
    gtm_ = std::make_unique<GtmServer>(&sim_, &net_, kGtmNode);
    for (NodeId cn : {kCn1, kCn2}) {
      clocks_.push_back(
          std::make_unique<sim::HardwareClock>(&sim_, sim_.rng().Fork()));
      sources_.push_back(std::make_unique<TimestampSource>(
          &sim_, &net_, cn, kGtmNode, clocks_.back().get()));
    }
  }

  static sim::NetworkOptions NetOptions() {
    sim::NetworkOptions o;
    o.nagle_enabled = false;
    return o;
  }

  TimestampSource& src(int i) { return *sources_[i]; }

  sim::Simulator sim_;
  sim::Network net_;
  std::unique_ptr<GtmServer> gtm_;
  std::vector<std::unique_ptr<sim::HardwareClock>> clocks_;
  std::vector<std::unique_ptr<TimestampSource>> sources_;
};

// 16 concurrent begins on one CN collapse into at most 2 GTM RPCs (the
// first client's pump departs alone before the rest enqueue — Spawn runs
// eagerly), and the fanned-out grants are strictly monotonic in arrival
// order with no duplicates.
TEST_F(GtmCoalesceTest, ConcurrentBeginsShareOneRpc) {
  std::vector<Timestamp> got;
  auto client = [&](TimestampSource* s) -> sim::Task<void> {
    auto grant = co_await s->BeginTs(false);
    EXPECT_TRUE(grant.ok());
    if (grant.ok()) got.push_back(grant->ts);
  };
  for (int i = 0; i < 16; ++i) sim_.Spawn(client(&src(0)));
  sim_.Run();

  ASSERT_EQ(got.size(), 16u);
  for (size_t i = 1; i < got.size(); ++i) EXPECT_GT(got[i], got[i - 1]);
  EXPECT_LE(src(0).metrics().Get("ts.gtm_rpcs"), 2);
  EXPECT_LE(gtm_->metrics().Get("gtm.timestamp_requests"), 2);
  EXPECT_GE(src(0).metrics().Hist("ts.coalesce_batch").max(), 8);
  EXPECT_EQ(gtm_->metrics().Get("gtm.timestamps_granted"), 16);
}

// Grants stay globally unique and per-node monotonic when two CNs coalesce
// independently against the same server, across several waves.
TEST_F(GtmCoalesceTest, GrantsUniqueAcrossNodesAndWaves) {
  std::vector<Timestamp> node0, node1;
  auto client = [&](TimestampSource* s,
                    std::vector<Timestamp>* out) -> sim::Task<void> {
    auto grant = co_await s->BeginTs(false);
    EXPECT_TRUE(grant.ok());
    if (grant.ok()) out->push_back(grant->ts);
  };
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 8; ++i) {
      sim_.Spawn(client(&src(0), &node0));
      sim_.Spawn(client(&src(1), &node1));
    }
    sim_.RunFor(200 * kMillisecond);
  }
  ASSERT_EQ(node0.size(), 24u);
  ASSERT_EQ(node1.size(), 24u);
  for (size_t i = 1; i < node0.size(); ++i) EXPECT_GT(node0[i], node0[i - 1]);
  for (size_t i = 1; i < node1.size(); ++i) EXPECT_GT(node1[i], node1[i - 1]);
  std::vector<Timestamp> all = node0;
  all.insert(all.end(), node1.begin(), node1.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::unique(all.begin(), all.end()), all.end());
  // Each wave on each node needs at most 2 RPCs.
  EXPECT_LE(src(0).metrics().Get("ts.gtm_rpcs"), 6);
  EXPECT_LE(src(1).metrics().Get("ts.gtm_rpcs"), 6);
}

// DUAL-mode commits coalesced into one RPC: every grant must exceed the
// GClock upper bound its waiter captured at enqueue (we check against the
// pre-spawn upper, which lower-bounds all of them), the commit wait must
// still run per waiter (clock lower bound past the grant on return), and
// the batch still costs at most 2 RPCs.
TEST_F(GtmCoalesceTest, DualCoalescedCommitsKeepPerWaiterWait) {
  gtm_->SetMode(TimestampMode::kDual, 0);
  const Timestamp pre_upper =
      static_cast<Timestamp>(clocks_[0]->ReadUpper());
  std::vector<Timestamp> got;
  int waits_done = 0;
  auto client = [&](TimestampSource* s) -> sim::Task<void> {
    auto ts = co_await s->CommitTs(TimestampMode::kDual);
    EXPECT_TRUE(ts.ok());
    if (!ts.ok()) co_return;
    got.push_back(*ts);
    const SimTime lower = clocks_[0]->Read() - clocks_[0]->ErrorBound();
    EXPECT_GT(lower, static_cast<SimTime>(*ts));
    ++waits_done;
  };
  for (int i = 0; i < 8; ++i) sim_.Spawn(client(&src(0)));
  sim_.Run();

  ASSERT_EQ(got.size(), 8u);
  EXPECT_EQ(waits_done, 8);
  for (size_t i = 0; i < got.size(); ++i) EXPECT_GT(got[i], pre_upper);
  for (size_t i = 1; i < got.size(); ++i) EXPECT_GT(got[i], got[i - 1]);
  EXPECT_LE(src(0).metrics().Get("ts.gtm_rpcs"), 2);
}

// Listing 1: a GTM-mode commit during the DUAL window waits out 2x the max
// error bound. Begins can never inherit that wait (or a commit batch's
// abort verdict): batches are homogeneous in (mode, is_commit), so begins
// and commits ride separate RPCs and each class amortizes independently.
TEST_F(GtmCoalesceTest, GtmCommitDualWaitAppliesOnlyToCommitBatches) {
  gtm_->SetMode(TimestampMode::kDual, 0);
  // Seed the server's max error bound with one DUAL commit from the other
  // CN (GTM-mode requests carry no error bound of their own).
  bool seeded = false;
  auto seed = [&]() -> sim::Task<void> {
    auto ts = co_await src(1).CommitTs(TimestampMode::kDual);
    EXPECT_TRUE(ts.ok());
    seeded = true;
  };
  sim_.Spawn(seed());
  while (!seeded) sim_.RunFor(10 * kMillisecond);

  std::vector<SimTime> begin_done, commit_done;
  auto begin_client = [&]() -> sim::Task<void> {
    auto grant = co_await src(0).BeginTs(false);
    EXPECT_TRUE(grant.ok());
    begin_done.push_back(sim_.now());
  };
  auto commit_client = [&]() -> sim::Task<void> {
    auto ts = co_await src(0).CommitTs(TimestampMode::kGtm);
    EXPECT_TRUE(ts.ok());
    commit_done.push_back(sim_.now());
  };
  // Per class, the first client's pump departs alone (eager spawn) and the
  // rest share the follow-up RPC: 4 begins + 4 commits cost at most 2 RPCs
  // each, never mixed.
  for (int i = 0; i < 4; ++i) sim_.Spawn(begin_client());
  for (int i = 0; i < 4; ++i) sim_.Spawn(commit_client());
  sim_.Run();

  ASSERT_EQ(begin_done.size(), 4u);
  ASSERT_EQ(commit_done.size(), 4u);
  // Exactly the 4 commits slept the 2x-bound wait; the begins returned as
  // soon as their own (commit-free) RPCs landed.
  EXPECT_EQ(src(0).metrics().Get("ts.dual_commit_waits"), 4);
  EXPECT_LE(src(0).metrics().Get("ts.gtm_rpcs"), 4);
}

// Range-consumption contract (messages.h, DESIGN.md §10): a granted range
// (ts - count, ts] binds each value to exactly one waiter at fan-out time. A
// waiter whose transaction aborts simply abandons its value — nothing
// re-enters a pool, so later grants are strictly above every earlier one and
// abandoned values stay permanent gaps. The waves mix begin and GTM-commit
// grants.
TEST_F(GtmCoalesceTest, AbandonedGrantsAreNeverReissued) {
  std::vector<std::vector<Timestamp>> waves;
  auto client = [&](TimestampSource* s, TimestampMode mode, bool commit,
                    std::vector<Timestamp>* out) -> sim::Task<void> {
    if (commit) {
      auto ts = co_await s->CommitTs(mode);
      EXPECT_TRUE(ts.ok());
      if (ts.ok()) out->push_back(*ts);
      co_return;
    }
    auto grant = co_await s->BeginTs(false);
    EXPECT_TRUE(grant.ok());
    if (grant.ok()) out->push_back(grant->ts);
  };
  for (int wave = 0; wave < 4; ++wave) {
    waves.emplace_back();
    std::vector<Timestamp>* out = &waves.back();
    // Each wave coalesces 12 waiters; every odd-indexed waiter's value is
    // "abandoned" (its transaction aborts after the grant) — from the
    // server's perspective the two are indistinguishable, which is the
    // point: abandonment needs no protocol action.
    for (int i = 0; i < 6; ++i) {
      sim_.Spawn(client(&src(0), TimestampMode::kGtm, true, out));
      sim_.Spawn(client(&src(0), TimestampMode::kGtm, i % 2 == 0, out));
    }
    sim_.RunFor(200 * kMillisecond);
    ASSERT_EQ(out->size(), 12u);
  }

  // Globally unique, and every later wave sits strictly above the maximum
  // of all earlier waves — the gaps left by abandoned values are permanent.
  std::vector<Timestamp> all;
  Timestamp prior_max = 0;
  for (const auto& wave : waves) {
    const Timestamp wave_min = *std::min_element(wave.begin(), wave.end());
    EXPECT_GT(wave_min, prior_max);
    prior_max = std::max(
        prior_max, *std::max_element(wave.begin(), wave.end()));
    all.insert(all.end(), wave.begin(), wave.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::unique(all.begin(), all.end()), all.end());
}

}  // namespace
}  // namespace globaldb
