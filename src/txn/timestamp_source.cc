#include "src/txn/timestamp_source.h"

#include <utility>

#include "src/common/logging.h"

namespace globaldb {

TimestampSource::TimestampSource(sim::Simulator* sim, sim::Network* network,
                                 NodeId self, NodeId gtm_node,
                                 sim::HardwareClock* clock)
    : sim_(sim),
      self_(self),
      gtm_node_(gtm_node),
      clock_(clock),
      client_(network, self),
      server_(network, self) {
  BindService();
}

void TimestampSource::BindService() {
  server_.Handle(kCnSetMode, [this](NodeId from, SetModeRequest request) {
    return HandleSetMode(from, std::move(request));
  });
  server_.Handle(kCnMaxIssued, [this](NodeId from, rpc::EmptyMessage request) {
    return HandleMaxIssued(from, request);
  });
}

AckReply TimestampSource::MakeAck() const {
  AckReply ack;
  ack.max_issued =
      std::max(max_issued_, static_cast<Timestamp>(clock_->ReadUpper()));
  ack.max_error_bound = clock_->ErrorBound();
  return ack;
}

sim::Task<StatusOr<AckReply>> TimestampSource::HandleSetMode(
    NodeId from, SetModeRequest request) {
  SetMode(request.mode);
  co_return MakeAck();
}

sim::Task<StatusOr<AckReply>> TimestampSource::HandleMaxIssued(
    NodeId from, rpc::EmptyMessage request) {
  co_return MakeAck();
}

sim::Task<void> TimestampSource::WaitClockPast(Timestamp ts) {
  // Spanner-style commit wait: block until the clock's *lower* bound
  // (reading - error bound) passes ts, so the timestamp is guaranteed to be
  // in the past in real time. The paper abbreviates this as
  // "wait until T_clock > TS_GClock"; the error bound must be included or
  // R.1 can be violated by up to one bound.
  while (true) {
    const SimTime lower = clock_->Read() - clock_->ErrorBound();
    if (lower > static_cast<SimTime>(ts)) co_return;
    const SimDuration gap = static_cast<SimTime>(ts) - lower + 1;
    // Inflate slightly to compensate for a slow-running clock.
    co_await sim_->Sleep(gap + gap / 1024 + 1);
  }
}

sim::Task<Timestamp> TimestampSource::GclockTimestamp() {
  // Eq. 1: TS = T_clock + T_err, then wait until T_clock > TS.
  const Timestamp ts = static_cast<Timestamp>(clock_->ReadUpper());
  co_await WaitClockPast(ts);
  max_issued_ = std::max(max_issued_, ts);
  metrics_.Add("ts.gclock_issued");
  co_return ts;
}

sim::Task<StatusOr<GtmTimestampReply>> TimestampSource::CallGtm(
    TimestampMode client_mode, bool is_commit) {
  auto waiter = std::make_shared<GtmWaiter>(sim_);
  if (client_mode == TimestampMode::kDual) {
    waiter->gclock_upper = static_cast<Timestamp>(clock_->ReadUpper());
    waiter->error_bound = clock_->ErrorBound();
  }
  // Begins and commits queue (and pump) separately so every batch is
  // homogeneous: the server's verdict on the shared RPC — stale abort, DUAL
  // wait — is then genuinely the answer each waiter would have received
  // alone, and the fan-out below can apply it verbatim.
  const int idx = ModeIndex(client_mode);
  const int ci = CommitIndex(is_commit);
  queue_[idx][ci].push_back(waiter);
  if (!pump_active_[idx][ci]) {
    pump_active_[idx][ci] = true;
    sim_->Spawn(PumpGtm(client_mode, is_commit));
  }
  auto future = waiter->reply.GetFuture();
  co_return co_await future;
}

sim::Task<void> TimestampSource::PumpGtm(TimestampMode mode, bool is_commit) {
  const int idx = ModeIndex(mode);
  const int ci = CommitIndex(is_commit);
  while (!queue_[idx][ci].empty()) {
    std::vector<std::shared_ptr<GtmWaiter>> batch =
        std::move(queue_[idx][ci]);
    queue_[idx][ci].clear();

    GtmTimestampRequest request;
    request.client_mode = mode;
    request.is_commit = is_commit;
    request.count = static_cast<uint32_t>(batch.size());
    for (const auto& w : batch) {
      request.gclock_upper = std::max(request.gclock_upper, w->gclock_upper);
      request.error_bound = std::max(request.error_bound, w->error_bound);
    }
    metrics_.Add("ts.gtm_rpcs");
    metrics_.Hist("ts.coalesce_batch")
        .Record(static_cast<int64_t>(batch.size()));
    if (batch.size() > 1) {
      metrics_.Add("ts.coalesced_grants",
                   static_cast<int64_t>(batch.size()) - 1);
    }

    auto reply = co_await client_.Call(gtm_node_, kGtmTimestamp, request);
    if (!reply.ok() || reply->aborted) {
      // Transport failures and GClock-mode refusals apply to the batch as a
      // whole: the batch is homogeneous in (mode, is_commit), so every
      // waiter really would have received the same answer alone.
      for (const auto& w : batch) w->reply.Set(reply);
      continue;
    }
    // The server granted the contiguous range (ts - count, ts]. Fan it out
    // in arrival order so grants on this node stay strictly monotonic per
    // class; the DUAL wait/abort handling stays per waiter in CommitTs.
    const Timestamp first = reply->ts - batch.size() + 1;
    for (size_t i = 0; i < batch.size(); ++i) {
      GtmTimestampReply personal = *reply;
      personal.ts = first + static_cast<Timestamp>(i);
      batch[i]->reply.Set(personal);
    }
  }
  pump_active_[idx][ci] = false;
}

sim::Task<StatusOr<TimestampSource::Grant>> TimestampSource::BeginTs(
    bool single_shard_read) {
  Grant grant;
  grant.mode = mode_;
  switch (mode_) {
    case TimestampMode::kGclock: {
      if (single_shard_read) {
        // Paper: single-shard queries bypass the invocation wait by using
        // the node's last committed transaction timestamp.
        grant.ts = last_committed_;
        if (grant.ts == 0) grant.ts = co_await GclockTimestamp();
        metrics_.Add("ts.single_shard_bypass");
        co_return grant;
      }
      grant.ts = co_await GclockTimestamp();
      co_return grant;
    }
    case TimestampMode::kGtm:
    case TimestampMode::kDual: {
      auto reply = co_await CallGtm(mode_, /*is_commit=*/false);
      if (!reply.ok()) co_return reply.status();
      if (reply->aborted) co_return Status::Aborted("gtm begin refused");
      grant.ts = reply->ts;
      max_issued_ = std::max(max_issued_, grant.ts);
      co_return grant;
    }
  }
  co_return Status::Internal("unreachable");
}

sim::Task<StatusOr<Timestamp>> TimestampSource::CommitTs(
    TimestampMode txn_mode) {
  // Route by the transaction's begin mode, upgrading GClock transactions to
  // the DUAL bridge when the node has left GClock mode (Fig. 3: they commit
  // safely with a larger timestamp instead of aborting).
  // GTM-begun transactions always commit through the GTM server (which adds
  // the DUAL wait or the stale abort as its mode dictates).
  TimestampMode route = txn_mode;
  if (txn_mode == TimestampMode::kGclock &&
      mode_ != TimestampMode::kGclock) {
    route = TimestampMode::kDual;
  }

  switch (route) {
    case TimestampMode::kGclock: {
      const Timestamp ts = co_await GclockTimestamp();
      co_return ts;
    }
    case TimestampMode::kGtm:
    case TimestampMode::kDual: {
      auto reply = co_await CallGtm(route, /*is_commit=*/true);
      if (!reply.ok()) co_return reply.status();
      if (reply->aborted) {
        metrics_.Add("ts.stale_gtm_abort");
        co_return Status::Aborted(
            "GTM transaction after cluster moved to GClock");
      }
      if (reply->wait > 0) {
        // Listing 1: GTM-mode commits during DUAL wait out 2x the max
        // error bound so new GClock snapshots cannot miss them.
        metrics_.Add("ts.dual_commit_waits");
        co_await sim_->Sleep(reply->wait);
      }
      if (route == TimestampMode::kDual) {
        // Commit-wait so later real-time GClock begins order after us.
        co_await WaitClockPast(reply->ts);
      }
      max_issued_ = std::max(max_issued_, reply->ts);
      co_return reply->ts;
    }
  }
  co_return Status::Internal("unreachable");
}

}  // namespace globaldb
