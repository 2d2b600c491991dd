// Policy-level tests of the typed RPC client: retries heal transient
// partitions, deadlines cap total time, the retry budget bounds retry
// storms, and application errors pass through without retries.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/rpc/fields.h"
#include "src/rpc/rpc_client.h"
#include "src/rpc/rpc_server.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace globaldb {
namespace {

constexpr NodeId kClient = 1;
constexpr NodeId kServer = 2;

struct EchoMessage {
  std::string text;

  static void Fields(auto& self, auto&& visit) { visit(self.text); }
};

inline constexpr rpc::RpcMethod<EchoMessage, EchoMessage> kEcho{"test.echo"};

sim::Task<StatusOr<EchoMessage>> Echo(NodeId from, EchoMessage request) {
  co_return request;
}

sim::Task<StatusOr<EchoMessage>> RejectNotFound(NodeId from,
                                                EchoMessage request) {
  co_return Status::NotFound("no such row");
}

class RpcTest : public ::testing::Test {
 protected:
  RpcTest() : sim_(17), net_(&sim_, sim::Topology::SingleRegion(), Options()) {
    net_.RegisterNode(kClient, 0);
    net_.RegisterNode(kServer, 0);
    server_ = std::make_unique<rpc::RpcServer>(&net_, kServer);
    server_->Handle(kEcho, [](NodeId from, EchoMessage request) {
      return Echo(from, std::move(request));
    });
  }

  static sim::NetworkOptions Options() {
    sim::NetworkOptions o;
    o.nagle_enabled = false;
    return o;
  }

  /// Runs `client.Call(kServer, kEcho, request, options)` to completion.
  StatusOr<EchoMessage> RunCall(rpc::RpcClient* client,
                                const std::string& text,
                                rpc::CallOptions options = {}) {
    StatusOr<EchoMessage> result = Status::Internal("not finished");
    bool done = false;
    auto call = [](rpc::RpcClient* client, EchoMessage request,
                   rpc::CallOptions options, StatusOr<EchoMessage>* out,
                   bool* done) -> sim::Task<void> {
      *out = co_await client->Call(kServer, kEcho, request, options);
      *done = true;
    };
    sim_.Spawn(call(client, EchoMessage{text}, options, &result, &done));
    while (!done) sim_.RunFor(10 * kMillisecond);
    return result;
  }

  sim::Simulator sim_;
  sim::Network net_;
  std::unique_ptr<rpc::RpcServer> server_;
};

TEST_F(RpcTest, RoundTripEchoes) {
  rpc::RpcClient client(&net_, kClient);
  auto result = RunCall(&client, "hello");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->text, "hello");
  auto events = client.trace().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].attempts, 1);
  EXPECT_EQ(events[0].outcome, StatusCode::kOk);
  EXPECT_STREQ(events[0].method, "test.echo");
}

TEST_F(RpcTest, RetriesUntilTransientPartitionHeals) {
  rpc::RpcPolicy policy;
  policy.attempt_timeout = 50 * kMillisecond;
  policy.max_attempts = 5;
  policy.initial_backoff = 10 * kMillisecond;
  rpc::RpcClient client(&net_, kClient, policy);

  net_.SetPartitioned(kClient, kServer, true);
  sim_.Schedule(120 * kMillisecond,
                [this] { net_.SetPartitioned(kClient, kServer, false); });

  auto result = RunCall(&client, "persist");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->text, "persist");
  auto events = client.trace().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_GT(events[0].attempts, 1);
  EXPECT_GE(client.metrics().Get("rpc.retries"), 1);
}

TEST_F(RpcTest, DeadlineSurfacesTimedOutWithoutFurtherAttempts) {
  rpc::RpcPolicy policy;
  policy.attempt_timeout = 300 * kMillisecond;
  policy.max_attempts = 5;
  rpc::RpcClient client(&net_, kClient, policy);

  // A partition is a silent black hole (a down node would refuse the
  // connection within one RTT and trigger a retry before the deadline).
  net_.SetPartitioned(kClient, kServer, true);
  rpc::CallOptions options;
  options.deadline = 100 * kMillisecond;
  auto result = RunCall(&client, "late", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimedOut);
  // The first attempt consumed the whole deadline: no retry happened.
  auto events = client.trace().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].attempts, 1);
  EXPECT_EQ(client.metrics().Get("rpc.retries"), 0);
}

TEST_F(RpcTest, RetryBudgetBoundsAttemptsUnderOutage) {
  rpc::RpcPolicy policy;
  policy.attempt_timeout = 20 * kMillisecond;
  policy.max_attempts = 10;
  policy.initial_backoff = 1 * kMillisecond;
  policy.retry_budget = 2.0;
  policy.retry_refill = 0.0;
  rpc::RpcClient client(&net_, kClient, policy);

  net_.SetNodeUp(kServer, false);
  auto result = RunCall(&client, "doomed");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  // One initial attempt plus exactly retry_budget retries.
  auto events = client.trace().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].attempts, 3);
  EXPECT_EQ(client.metrics().Get("rpc.budget_exhausted"), 1);
}

TEST_F(RpcTest, ApplicationErrorsAreNotRetried) {
  server_->Handle(kEcho, [](NodeId from, EchoMessage request) {
    return RejectNotFound(from, std::move(request));
  });
  rpc::RpcPolicy policy;
  policy.max_attempts = 5;
  rpc::RpcClient client(&net_, kClient, policy);

  auto result = RunCall(&client, "missing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  auto events = client.trace().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].attempts, 1);
  EXPECT_EQ(events[0].outcome, StatusCode::kOk);  // transport succeeded
  EXPECT_EQ(client.metrics().Get("rpc.retries"), 0);
}

}  // namespace
}  // namespace globaldb
