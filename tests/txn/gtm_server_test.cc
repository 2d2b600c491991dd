// Direct unit tests of the GTM server's mode-dependent timestamp rules
// (Eqs. 2-3 and the Fig. 2 abort rule), exercised through its RPC handler.

#include "src/txn/gtm_server.h"

#include <gtest/gtest.h>

#include <string>

#include "src/rpc/rpc_client.h"
#include "src/rpc/wire.h"
#include "src/sim/simulator.h"
#include "src/txn/messages.h"

namespace globaldb {
namespace {

class GtmServerTest : public ::testing::Test {
 protected:
  GtmServerTest()
      : sim_(3), net_(&sim_, sim::Topology::SingleRegion(), Options()) {
    net_.RegisterNode(0, 0);
    net_.RegisterNode(1, 0);
    gtm_ = std::make_unique<GtmServer>(&sim_, &net_, 0);
    client_ = std::make_unique<rpc::RpcClient>(&net_, 1);
  }

  static sim::NetworkOptions Options() {
    sim::NetworkOptions o;
    o.nagle_enabled = false;
    return o;
  }

  GtmTimestampReply Ask(GtmTimestampRequest request) {
    GtmTimestampReply reply;
    bool done = false;
    auto call = [](rpc::RpcClient* client, GtmTimestampRequest req,
                   GtmTimestampReply* out, bool* done) -> sim::Task<void> {
      auto response = co_await client->Call(0, kGtmTimestamp, req);
      EXPECT_TRUE(response.ok());
      if (response.ok()) *out = *response;
      *done = true;
    };
    sim_.Spawn(call(client_.get(), request, &reply, &done));
    while (!done) sim_.RunFor(1 * kMillisecond);
    return reply;
  }

  sim::Simulator sim_;
  sim::Network net_;
  std::unique_ptr<GtmServer> gtm_;
  std::unique_ptr<rpc::RpcClient> client_;
};

TEST_F(GtmServerTest, GtmModeIncrementsCounter) {
  GtmTimestampRequest request;
  request.client_mode = TimestampMode::kGtm;
  EXPECT_EQ(Ask(request).ts, 1u);
  EXPECT_EQ(Ask(request).ts, 2u);
  EXPECT_EQ(Ask(request).ts, 3u);
  EXPECT_EQ(gtm_->counter(), 3u);
}

TEST_F(GtmServerTest, DualModeBridgesAboveClockUpperBound) {
  gtm_->SetMode(TimestampMode::kDual, 0);
  GtmTimestampRequest request;
  request.client_mode = TimestampMode::kDual;
  request.gclock_upper = 1'000'000'000;
  request.error_bound = 70 * kMicrosecond;
  GtmTimestampReply reply = Ask(request);
  EXPECT_EQ(reply.ts, 1'000'000'001u);  // max(counter, upper) + 1
  EXPECT_EQ(reply.server_mode, TimestampMode::kDual);
  // A subsequent plain-GTM request continues above the bridged value.
  GtmTimestampRequest gtm_request;
  gtm_request.client_mode = TimestampMode::kGtm;
  EXPECT_GT(Ask(gtm_request).ts, 1'000'000'001u);
}

TEST_F(GtmServerTest, DualModeMakesGtmCommitsWaitTwiceTheErrorBound) {
  gtm_->SetMode(TimestampMode::kDual, 0);
  // Register the largest error bound seen in the transition window.
  GtmTimestampRequest dual;
  dual.client_mode = TimestampMode::kDual;
  dual.gclock_upper = 500;
  dual.error_bound = 80 * kMicrosecond;
  (void)Ask(dual);
  EXPECT_EQ(gtm_->max_error_bound(), 80 * kMicrosecond);

  GtmTimestampRequest commit;
  commit.client_mode = TimestampMode::kGtm;
  commit.is_commit = true;
  GtmTimestampReply reply = Ask(commit);
  EXPECT_FALSE(reply.aborted);
  EXPECT_EQ(reply.wait, 2 * 80 * kMicrosecond);  // Listing 1 safeguard
  // Begins do not wait.
  GtmTimestampRequest begin;
  begin.client_mode = TimestampMode::kGtm;
  EXPECT_EQ(Ask(begin).wait, 0);
}

TEST_F(GtmServerTest, GclockModeAbortsStaleGtmClients) {
  gtm_->SetMode(TimestampMode::kGclock, 0);
  GtmTimestampRequest request;
  request.client_mode = TimestampMode::kGtm;
  request.is_commit = true;
  GtmTimestampReply reply = Ask(request);
  EXPECT_TRUE(reply.aborted);
  EXPECT_EQ(gtm_->metrics().Get("gtm.stale_aborts"), 1);
  // DUAL stragglers are still served (they bridge safely).
  GtmTimestampRequest dual;
  dual.client_mode = TimestampMode::kDual;
  dual.gclock_upper = 42;
  reply = Ask(dual);
  EXPECT_FALSE(reply.aborted);
  EXPECT_GT(reply.ts, 42u);
}

TEST_F(GtmServerTest, FloorRaisesCounterMonotonically) {
  gtm_->SetMode(TimestampMode::kGtm, 1'000);
  GtmTimestampRequest request;
  request.client_mode = TimestampMode::kGtm;
  EXPECT_EQ(Ask(request).ts, 1'001u);
  // A lower floor never regresses the counter.
  gtm_->SetMode(TimestampMode::kGtm, 5);
  EXPECT_EQ(Ask(request).ts, 1'002u);
}

TEST_F(GtmServerTest, EnteringDualResetsErrorBoundTracking) {
  gtm_->SetMode(TimestampMode::kDual, 0);
  GtmTimestampRequest dual;
  dual.client_mode = TimestampMode::kDual;
  dual.error_bound = 90 * kMicrosecond;
  (void)Ask(dual);
  EXPECT_EQ(gtm_->max_error_bound(), 90 * kMicrosecond);
  // Leave and re-enter DUAL: a new transition window starts clean.
  gtm_->SetMode(TimestampMode::kGclock, 0);
  gtm_->SetMode(TimestampMode::kDual, 0);
  EXPECT_EQ(gtm_->max_error_bound(), 0);
}

TEST_F(GtmServerTest, MalformedRequestRejectedSafely) {
  // A garbage payload is rejected at the dispatcher with a Corruption error
  // envelope; the server never reaches the handler, so no timestamp is
  // issued or lost.
  Status status = Status::OK();
  bool done = false;
  auto call = [](rpc::RpcClient* client, Status* out,
                 bool* done) -> sim::Task<void> {
    auto response = co_await client->RawCall(0, kGtmTimestamp.name, "\x01");
    EXPECT_TRUE(response.ok());
    if (response.ok()) {
      auto decoded = rpc::DecodeEnvelope<GtmTimestampReply>(std::move(*response));
      *out = decoded.status();
    }
    *done = true;
  };
  sim_.Spawn(call(client_.get(), &status, &done));
  while (!done) sim_.RunFor(1 * kMillisecond);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(gtm_->counter(), 0u);  // nothing issued
}

// The ack (reply to kGtmSetMode, kCnSetMode and kCnMaxIssued) keeps two
// reserved zero bytes after its fields so its wire size, and with it every
// simulated transfer delay, stays as it was.
TEST(AckReplyTest, RoundTripsWithTwoReservedBytes) {
  EXPECT_EQ(rpc::Encode(AckReply{}).size(), 4u);

  AckReply ack;
  ack.max_issued = 1'700'000'123'456'789ull;
  ack.max_error_bound = 250 * kMicrosecond;
  const std::string wire = rpc::Encode(ack);
  auto decoded = rpc::Decode<AckReply>(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->max_issued, ack.max_issued);
  EXPECT_EQ(decoded->max_error_bound, ack.max_error_bound);
  EXPECT_EQ(wire.substr(wire.size() - AckReply::kReservedBytes),
            std::string(AckReply::kReservedBytes, '\0'));

  for (size_t len = 0; len < wire.size(); ++len) {
    auto truncated = rpc::Decode<AckReply>(Slice(wire.data(), len));
    ASSERT_FALSE(truncated.ok()) << "prefix of " << len << " bytes";
    EXPECT_EQ(truncated.status().code(), StatusCode::kCorruption);
  }
}

}  // namespace
}  // namespace globaldb
