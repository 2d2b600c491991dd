#include "src/txn/gtm_server.h"

#include <utility>

#include "src/common/logging.h"

namespace globaldb {

GtmServer::GtmServer(sim::Simulator* sim, sim::Network* network, NodeId self,
                     int cores, SimDuration service_time)
    : sim_(sim),
      self_(self),
      server_(network, self),
      cpu_(sim, cores),
      service_time_(service_time) {
  BindService();
}

void GtmServer::BindService() {
  server_.Handle(kGtmTimestamp, [this](NodeId from,
                                       GtmTimestampRequest request) {
    return HandleTimestamp(from, std::move(request));
  });
  server_.Handle(kGtmSetMode, [this](NodeId from, SetModeRequest request) {
    return HandleSetMode(from, std::move(request));
  });
}

void GtmServer::SetMode(TimestampMode mode, Timestamp floor) {
  GDB_LOG(Info) << "GTM server: mode " << TimestampModeName(mode_) << " -> "
                << TimestampModeName(mode) << " floor=" << floor;
  if (mode == TimestampMode::kDual && mode_ != TimestampMode::kDual) {
    max_error_bound_ = 0;  // start tracking for this transition window
  }
  mode_ = mode;
  RaiseCounter(floor);
}

sim::Task<StatusOr<GtmTimestampReply>> GtmServer::HandleTimestamp(
    NodeId from, GtmTimestampRequest request) {
  co_await cpu_.Consume(service_time_);
  metrics_.Add("gtm.timestamp_requests");
  // Coalesced requests draw `count` timestamps in one round trip; the reply
  // carries the last of the contiguous range (ts - count, ts].
  const uint64_t count = std::max<uint32_t>(1, request.count);
  metrics_.Add("gtm.timestamps_granted", static_cast<int64_t>(count));

  GtmTimestampReply reply;
  reply.server_mode = mode_;
  switch (mode_) {
    case TimestampMode::kGtm:
      // Plain centralized counter (Eq. 2), advanced by the batch size.
      counter_ += count;
      reply.ts = counter_;
      break;
    case TimestampMode::kDual: {
      // Bridge timestamps (Eq. 3); the whole range lands above the batch's
      // largest GClock upper bound. Also track the largest error bound seen
      // during the transition window; GTM-mode committers must wait 2x this
      // so their commits cannot be missed by new GClock snapshots
      // (Listing 1 scenario).
      max_error_bound_ = std::max(max_error_bound_, request.error_bound);
      counter_ = std::max(counter_, request.gclock_upper) + count;
      reply.ts = counter_;
      if (request.client_mode == TimestampMode::kGtm && request.is_commit) {
        reply.wait = 2 * max_error_bound_;
      }
      break;
    }
    case TimestampMode::kGclock:
      // The cluster has moved on; stale GTM transactions must abort.
      if (request.client_mode == TimestampMode::kGtm) {
        metrics_.Add("gtm.stale_aborts");
        reply.aborted = true;
      } else {
        // DUAL stragglers can still finish: keep bridging.
        counter_ = std::max(counter_, request.gclock_upper) + count;
        reply.ts = counter_;
      }
      break;
  }
  co_return reply;
}

sim::Task<StatusOr<AckReply>> GtmServer::HandleSetMode(NodeId from,
                                                       SetModeRequest request) {
  co_await cpu_.Consume(service_time_);
  SetMode(request.mode, request.floor);
  AckReply ack;
  ack.max_issued = counter_;
  ack.max_error_bound = max_error_bound_;
  co_return ack;
}

}  // namespace globaldb
