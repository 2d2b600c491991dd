#include "src/sim/network.h"

#include <gtest/gtest.h>

#include "src/sim/simulator.h"

namespace globaldb::sim {
namespace {

constexpr NodeId kA = 1;
constexpr NodeId kB = 2;
constexpr NodeId kC = 3;

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : sim_(1), net_(&sim_, Topology::ThreeCity(), MakeOptions()) {
    net_.RegisterNode(kA, 0);  // xian
    net_.RegisterNode(kB, 1);  // langzhong
    net_.RegisterNode(kC, 2);  // dongguan
    net_.RegisterHandler(kB, "echo",
                         [](NodeId from, std::string payload) -> Task<std::string> {
                           co_return "echo:" + payload;
                         });
  }

  static NetworkOptions MakeOptions() {
    NetworkOptions o;
    o.jitter_fraction = 0;  // determinism for latency assertions
    o.nagle_enabled = false;
    return o;
  }

  Task<void> DoCall(NodeId from, NodeId to, std::string payload,
                    StatusOr<std::string>* out, SimTime* completed_at) {
    *out = co_await net_.Call(from, to, "echo", std::move(payload));
    *completed_at = sim_.now();
  }

  Simulator sim_;
  Network net_;
};

TEST_F(NetworkTest, RpcRoundTripLatency) {
  StatusOr<std::string> result = Status::Internal("unset");
  SimTime completed = 0;
  sim_.Spawn(DoCall(kA, kB, "hi", &result, &completed));
  sim_.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, "echo:hi");
  // Xi'an <-> Langzhong RTT is 25 ms; one-way 12.5 ms each direction plus
  // sub-ms serialization.
  EXPECT_GE(completed, 25 * kMillisecond);
  EXPECT_LT(completed, 27 * kMillisecond);
}

TEST_F(NetworkTest, AnsweredCallLeavesNoPendingEvent) {
  // The reply cancels the 5 s timeout: once the call returns, the queue is
  // empty instead of holding the timeout (and its promise) until it fires.
  StatusOr<std::string> result = Status::Internal("unset");
  SimTime completed = 0;
  sim_.Spawn(DoCall(kA, kB, "hi", &result, &completed));
  while (completed == 0 && sim_.pending_events() > 0) {
    sim_.RunUntil(sim_.now() + kMillisecond);
  }
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(completed, kSecond);
  EXPECT_EQ(sim_.pending_events(), 0u);
  const uint64_t executed = sim_.events_executed();
  sim_.Run();
  EXPECT_EQ(sim_.events_executed(), executed);
  EXPECT_LT(sim_.now(), kSecond);
}

TEST_F(NetworkTest, IntraRegionIsFast) {
  net_.RegisterNode(99, 1);
  net_.RegisterHandler(99, "echo",
                       [](NodeId, std::string p) -> Task<std::string> {
                         co_return p;
                       });
  StatusOr<std::string> result = Status::Internal("unset");
  SimTime completed = 0;
  sim_.Spawn(DoCall(kB, 99, "x", &result, &completed));
  sim_.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_LT(completed, 1 * kMillisecond);
}

TEST_F(NetworkTest, CallToDownNodeFailsUnavailable) {
  net_.SetNodeUp(kB, false);
  StatusOr<std::string> result = Status::Internal("unset");
  SimTime completed = 0;
  sim_.Spawn(DoCall(kA, kB, "hi", &result, &completed));
  sim_.Run();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable());
}

TEST_F(NetworkTest, NodeDiesMidFlightReportsError) {
  StatusOr<std::string> result = Status::Internal("unset");
  SimTime completed = 0;
  sim_.Spawn(DoCall(kA, kB, "hi", &result, &completed));
  // Kill the target while the request is in flight.
  sim_.Schedule(5 * kMillisecond, [&] { net_.SetNodeUp(kB, false); });
  sim_.Run();
  EXPECT_FALSE(result.ok());
}

TEST_F(NetworkTest, PartitionBlocksBothDirections) {
  net_.SetPartitioned(kA, kB, true);
  EXPECT_FALSE(net_.CanReach(kA, kB));
  EXPECT_FALSE(net_.CanReach(kB, kA));
  EXPECT_TRUE(net_.CanReach(kA, kC));
  net_.SetPartitioned(kA, kB, false);
  EXPECT_TRUE(net_.CanReach(kA, kB));
}

TEST_F(NetworkTest, RegionPartition) {
  net_.SetRegionPartitioned(0, 1, true);
  EXPECT_FALSE(net_.CanReach(kA, kB));
  EXPECT_TRUE(net_.CanReach(kB, kC));
  net_.SetRegionPartitioned(0, 1, false);
  EXPECT_TRUE(net_.CanReach(kA, kB));
}

TEST_F(NetworkTest, MissingHandlerIsUnimplemented) {
  StatusOr<std::string> result = Status::Internal("unset");
  SimTime completed = 0;
  auto call = [&]() -> Task<void> {
    result = co_await net_.Call(kA, kB, "nope", "x");
    completed = sim_.now();
  };
  sim_.Spawn(call());
  sim_.Run();
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
}

TEST_F(NetworkTest, NagleAddsDelayToSmallCrossRegionMessages) {
  net_.mutable_options()->nagle_enabled = true;
  net_.mutable_options()->nagle_delay = 2 * kMillisecond;
  const SimDuration small = net_.TransferDelay(kA, kB, 100);
  net_.mutable_options()->nagle_enabled = false;
  const SimDuration no_nagle = net_.TransferDelay(kA, kB, 100);
  EXPECT_EQ(small - no_nagle, 2 * kMillisecond);
  // Large messages are unaffected.
  net_.mutable_options()->nagle_enabled = true;
  const SimDuration large_nagle = net_.TransferDelay(kA, kB, 64 * 1024);
  net_.mutable_options()->nagle_enabled = false;
  const SimDuration large = net_.TransferDelay(kA, kB, 64 * 1024);
  EXPECT_EQ(large_nagle, large);
}

TEST_F(NetworkTest, BbrImprovesLongHaulThroughput) {
  // 10 MB transfer Xi'an -> Dongguan (55 ms RTT).
  net_.mutable_options()->bbr_enabled = false;
  const SimDuration cubic = net_.TransferDelay(kA, kC, 10 * 1000 * 1000);
  net_.mutable_options()->bbr_enabled = true;
  const SimDuration bbr = net_.TransferDelay(kA, kC, 10 * 1000 * 1000);
  EXPECT_LT(bbr, cubic);
}

TEST_F(NetworkTest, OneWaySendDelivered) {
  int received = 0;
  net_.RegisterHandler(kC, "notify",
                       [&](NodeId, std::string) -> Task<std::string> {
                         ++received;
                         co_return "";
                       });
  net_.Send(kA, kC, "notify", "data");
  sim_.Run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetworkTest, OneWaySendToDeadNodeDropped) {
  net_.SetNodeUp(kC, false);
  net_.Send(kA, kC, "notify", "data");
  sim_.Run();  // must not crash or hang
  SUCCEED();
}

TEST_F(NetworkTest, MetricsTrackCrossRegionBytes) {
  StatusOr<std::string> result = Status::Internal("unset");
  SimTime completed = 0;
  sim_.Spawn(DoCall(kA, kB, std::string(1000, 'x'), &result, &completed));
  sim_.Run();
  EXPECT_EQ(net_.metrics().Get("rpc.cross_region_bytes"), 1000);
  EXPECT_EQ(net_.metrics().Get("rpc.calls"), 1);
}

}  // namespace
}  // namespace globaldb::sim
