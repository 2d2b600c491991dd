#include "src/replication/log_shipper.h"

#include <algorithm>
#include <utility>

#include "src/common/codec.h"
#include "src/common/logging.h"
#include "src/replication/durability_manager.h"
#include "src/rpc/wire.h"

namespace globaldb {

namespace {

/// The ship loop is its own retry mechanism (it must re-read the stream and
/// rewind the cursor on failure), so the RPC layer never retries for it.
rpc::RpcPolicy ShipperRpcPolicy() {
  rpc::RpcPolicy policy;
  policy.max_attempts = 1;
  return policy;
}

}  // namespace

LogShipper::LogShipper(sim::Simulator* sim, sim::Network* network, NodeId self,
                       ShardId shard, LogStream* stream,
                       std::vector<NodeId> replicas, ShipperOptions options)
    : sim_(sim),
      self_(self),
      shard_(shard),
      stream_(stream),
      replicas_(std::move(replicas)),
      options_(options),
      client_(network, self, ShipperRpcPolicy()) {
  for (NodeId r : replicas_) {
    acked_[r] = 0;
    peers_[r].cursor = stream_->begin_lsn();
  }
  sorted_acks_.assign(acked_.size(), 0);
}

void LogShipper::Start() {
  started_ = true;
  for (NodeId replica : replicas_) {
    sim_->Spawn(ShipLoop(replica));
  }
}

void LogShipper::Stop() {
  if (stopped_) return;
  stopped_ = true;
  // Fail blocked durability waiters: their commits cannot become durable
  // once shipping stops, and leaving the coroutines suspended forever would
  // leak them (and hang the commits they serve).
  for (auto& waiter : waiters_) {
    if (waiter.lsn == kInvalidLsn) continue;
    waiter.done.TrySet(false);
    waiter.lsn = kInvalidLsn;
  }
  waiters_.clear();
  // Wake every parked loop so it observes stopped_ and exits now rather
  // than when its timer would have fired.
  WakeLoops();
}

void LogShipper::NotifyAppend() { WakeShippers(nullptr); }

void LogShipper::WakeLoops() { WakeParked(/*all=*/true, nullptr); }

void LogShipper::WakeShippers(PeerState* acked) {
  WakeParked(/*all=*/false, acked);
}

void LogShipper::AnnounceReplica(NodeId replica, Lsn durable_lsn) {
  auto it = peers_.find(replica);
  if (it == peers_.end()) return;
  metrics_.Add("ship.hellos");
  PeerState& peer = it->second;
  peer.resume_hint = durable_lsn;
  peer.consecutive_failures = 0;
  peer.backoff = 0;
  peer.next_send_at = 0;
  WakeLoops();
}

bool LogShipper::IsReplicaHealthy(NodeId replica) const {
  auto it = peers_.find(replica);
  return it == peers_.end() || it->second.healthy;
}

size_t LogShipper::InflightBatches(NodeId replica) const {
  auto it = peers_.find(replica);
  return it == peers_.end() ? 0 : it->second.inflight;
}

size_t LogShipper::LoopsParkedOnWindow() const {
  return static_cast<size_t>(std::count_if(
      parked_.begin(), parked_.end(),
      [](const PeerState* peer) { return peer->parked_on_window; }));
}

void LogShipper::Park::await_suspend(std::coroutine_handle<> h) {
  peer->parked = h;
  peer->parked_on_window = on_window;
  peer->parked_at = shipper->sim_->now();
  // A loop parking again in the very event that resumed it keeps the rank
  // its wake reserved, which places it among that wake's loops.
  peer->park_rank =
      peer->reserved_rank != 0 &&
              shipper->sim_->events_executed() == peer->resumed_in_event
          ? peer->reserved_rank
          : ++shipper->park_ranks_;
  peer->reserved_rank = 0;
  shipper->parked_.push_back(peer);
  shipper->ArmParkTimer(peer, timeout);
}

void LogShipper::Park::await_resume() const {
  peer->resumed_in_event = shipper->sim_->events_executed();
}

void LogShipper::OnParkTimeout(PeerState* peer) {
  parked_.erase(std::find(parked_.begin(), parked_.end(), peer));
  // Timers due at one instant fire in the order their loops parked, so a
  // loop that parks again right away keeps its rank.
  peer->reserved_rank = peer->park_rank;
  Resume(peer, sim_->ReservePlace(sim_->now()));
}

void LogShipper::ArmParkTimer(PeerState* peer, SimDuration timeout) {
  // The timer queues the wakeup rather than resuming the loop itself, so a
  // timed-out loop runs after the events already due at that instant.
  peer->park_timer =
      sim_->Schedule(timeout, [this, peer]() { OnParkTimeout(peer); });
}

void LogShipper::Resume(PeerState* peer, sim::EventPlace place) {
  sim_->Cancel(peer->park_timer);
  sim_->ResumeAt(place, std::exchange(peer->parked, nullptr));
}

void LogShipper::WakeParked(bool all, PeerState* acked) {
  // Loops wake in the order they last parked (or re-armed).
  std::sort(parked_.begin(), parked_.end(),
            [](const PeerState* a, const PeerState* b) {
              return std::pair(a->parked_at, a->park_rank) <
                     std::pair(b->parked_at, b->park_rank);
            });
  size_t kept = 0;
  for (PeerState* peer : parked_) {
    const bool wake = all || !peer->parked_on_window || peer == acked;
    if (!sim_->IsPast(peer->recheck)) {
      // It slept through an earlier wake whose re-check of its window is
      // still ahead: this wake changes nothing for it, unless it resumes
      // the loop, which then runs at that re-check's place.
      if (wake) {
        peer->reserved_rank = peer->park_rank;
        Resume(peer, peer->recheck);
      } else {
        parked_[kept++] = peer;
      }
      continue;
    }
    const uint64_t rank = ++park_ranks_;
    if (wake) {
      peer->reserved_rank = rank;
      Resume(peer, sim_->ReservePlace(sim_->now()));
    } else {
      // Sleeps through this wake, as if it had re-checked its window and
      // parked again: it takes this place in the wake order, the place in
      // the event order its re-check would have run at, and a restarted
      // fallback timer.
      peer->parked_at = sim_->now();
      peer->park_rank = rank;
      peer->recheck = sim_->ReservePlace(sim_->now());
      sim_->Cancel(peer->park_timer);
      ArmParkTimer(peer, options_.idle_wait);
      parked_[kept++] = peer;
    }
  }
  parked_.resize(kept);
}

void LogShipper::Rewind(PeerState* peer, Lsn to) {
  // Invalidate the window: replies from batches sent before this rewind are
  // stale (their acks are still consumed — they are cumulative — but they
  // no longer touch failure / backoff / window state).
  ++peer->epoch;
  peer->inflight = 0;
  if (to < stream_->begin_lsn()) {
    // The resume position was truncated away: clamping the cursor forward
    // would silently skip records. Redo replay cannot catch this replica up
    // — it needs the latest checkpoint snapshot first.
    peer->needs_snapshot = true;
    peer->cursor = stream_->begin_lsn();
    return;
  }
  peer->cursor = to;
}

void LogShipper::RequireSnapshotAll() {
  for (auto& [replica, peer] : peers_) {
    ++peer.epoch;
    peer.inflight = 0;
    peer.needs_snapshot = true;
    peer.snapshot_reset = true;
    peer.resume_hint = kInvalidLsn;
    peer.consecutive_failures = 0;
    peer.backoff = 0;
    peer.next_send_at = 0;
  }
  WakeLoops();
}

void LogShipper::RequireSnapshot(NodeId replica) {
  auto it = peers_.find(replica);
  if (it == peers_.end()) return;
  PeerState& peer = it->second;
  ++peer.epoch;
  peer.inflight = 0;
  peer.needs_snapshot = true;
  peer.snapshot_reset = true;
  peer.resume_hint = kInvalidLsn;
  peer.consecutive_failures = 0;
  peer.backoff = 0;
  peer.next_send_at = 0;
  WakeLoops();
}

void LogShipper::AddReplica(NodeId replica) {
  if (peers_.count(replica) > 0) return;
  replicas_.push_back(replica);
  acked_[replica] = 0;
  // A zero ack is the vector's minimum, so appending keeps it descending.
  sorted_acks_.push_back(0);
  const size_t k = std::min<size_t>(std::max(options_.quorum_replicas, 1),
                                    sorted_acks_.size());
  quorum_acked_ = sorted_acks_[k - 1];
  all_acked_ = sorted_acks_.back();
  PeerState& peer = peers_[replica];
  peer.cursor = stream_->begin_lsn();
  // The newcomer's history may have diverged (a revived ex-primary): force
  // a reset install before any redo shipping.
  peer.needs_snapshot = true;
  peer.snapshot_reset = true;
  metrics_.Add("ship.replicas_added");
  if (started_ && !stopped_) sim_->Spawn(ShipLoop(replica));
}

std::string LogShipper::EncodedRequest(Lsn start, Slice payload) {
  ReplAppendRequest request;
  request.shard = shard_;
  request.start_lsn = start;
  std::string wire;
  request.EncodeHeader(&wire);
  LogStream::EncodeBatch(payload, options_.compression, &wire);
  return wire;
}

sim::Task<void> LogShipper::ShipLoop(NodeId replica) {
  PeerState& peer = peers_[replica];
  const size_t window = std::max<size_t>(1, options_.max_inflight_batches);
  while (!stopped_) {
    if (peer.resume_hint != kInvalidLsn) {
      // Restart announcement: resume from the replica's durable tail (this
      // may rewind past acks if the replica lost state, or skip ahead past
      // records it already holds). A pending history reset (promotion)
      // outranks the announcement; otherwise Rewind re-derives whether the
      // announced tail is still replayable from the retained log.
      if (!peer.snapshot_reset) peer.needs_snapshot = false;
      Rewind(&peer, peer.resume_hint + 1);
      peer.resume_hint = kInvalidLsn;
    }
    if (peer.next_send_at > sim_->now()) {
      // Backoff gate after a failure burst. An announcement clears the gate
      // and wakes us early.
      co_await InterruptibleSleep(&peer, peer.next_send_at - sim_->now());
      continue;
    }
    if (peer.needs_snapshot) {
      if (durability_ != nullptr && durability_->HasSnapshot()) {
        // Stop-and-wait full-state transfer, then resume redo shipping
        // from the installed checkpoint.
        co_await SendSnapshot(replica);
      } else if (durability_ != nullptr) {
        // Checkpoint not yet published (promotion startup window): the
        // checkpointer runs shortly; park until it does.
        co_await InterruptibleSleep(&peer, options_.idle_wait);
      } else {
        // No durability manager (standalone shipper, nothing ever
        // truncates): the legacy resync from the stream start is lossless.
        peer.needs_snapshot = false;
        peer.cursor = stream_->begin_lsn();
      }
      continue;
    }
    if (peer.inflight >= window) {
      // Window full: park until one of this replica's batches completes
      // and frees a slot. No timer is needed: every SendBatch ends, since
      // the RPC layer always replies or times out.
      metrics_.Add("ship.window_full");
      co_await ParkOnWindow(&peer);
      continue;
    }
    auto extent_or = stream_->Extent(peer.cursor, options_.max_batch_records,
                                     options_.max_batch_bytes);
    if (!extent_or.ok()) {
      // Our cursor was truncated away: a checkpoint outran this replica
      // (its acks lagged the quorum). Redo replay cannot catch it up any
      // more — route it through the snapshot fallback instead of silently
      // resyncing past the dropped records.
      metrics_.Add("ship.cursor_truncated");
      Rewind(&peer, AckedLsn(replica) + 1);
      continue;
    }
    if (extent_or->records == 0) {
      // Nothing to ship: wait for NotifyAppend, with a bounded sleep as a
      // fallback against notifications racing the read above.
      co_await InterruptibleSleep(&peer, options_.idle_wait);
      continue;
    }

    // Framed before anything can suspend the loop, while the extent's
    // payload still views the log.
    std::string payload = EncodedRequest(peer.cursor, extent_or->payload);
    metrics_.Add("ship.batches");
    metrics_.Add("ship.records", static_cast<int64_t>(extent_or->records));
    metrics_.Add("ship.bytes", static_cast<int64_t>(payload.size()));
    metrics_.Add("ship.inflight");  // gauge: -1 on completion
    ++peer.inflight;
    peer.cursor = extent_or->end_lsn + 1;
    sim_->Spawn(SendBatch(replica, peer.epoch, std::move(payload)));
    // No await: keep filling the window until it is full or the stream is
    // drained.
  }
}

sim::Task<void> LogShipper::SendSnapshot(NodeId replica) {
  PeerState& peer = peers_[replica];
  if (peer.next_send_at > sim_->now()) {
    co_await InterruptibleSleep(&peer, peer.next_send_at - sim_->now());
    co_return;
  }
  const ShardSnapshot& snap = durability_->snapshot();
  ReplSnapshotRequest request;
  request.shard = shard_;
  request.checkpoint_lsn = snap.checkpoint_lsn;
  request.checkpoint_ts = snap.checkpoint_ts;
  request.max_commit_ts = snap.max_commit_ts;
  request.reset = peer.snapshot_reset;
  // Views of the checkpoint's images, copied once into the request body
  // before the call suspends (the first send builds the store image).
  request.catalog_image = snap.catalog_image;
  request.store_image = snap.store->FrozenImage();
  const uint64_t epoch = peer.epoch;
  metrics_.Add("ship.snapshots");
  metrics_.Add("ship.snapshot_bytes",
               static_cast<int64_t>(request.store_image.size() +
                                    request.catalog_image.size()));
  rpc::CallOptions call;
  call.attempt_timeout = options_.snapshot_timeout;
  auto reply =
      co_await client_.Call(replica, kReplSnapshot, request, call);
  if (stopped_ || epoch != peer.epoch) co_return;
  if (!reply.ok()) {
    OnShipFailure(&peer, replica);
    peer.next_send_at = sim_->now() + peer.backoff;
    co_return;
  }
  if (!reply->accepted) {
    // The replica refused (e.g. it is stalled): retry after a backoff —
    // redo shipping cannot proceed until the install lands.
    metrics_.Add("ship.snapshot_refused");
    peer.next_send_at = sim_->now() + options_.retry_backoff;
    co_return;
  }
  if (!peer.healthy) {
    peer.healthy = true;
    metrics_.Add("ship.replica_recovered");
  }
  peer.consecutive_failures = 0;
  peer.backoff = 0;
  peer.next_send_at = 0;
  peer.needs_snapshot = false;
  peer.snapshot_reset = false;
  OnAck(replica, reply->applied_lsn);
  Rewind(&peer, reply->applied_lsn + 1);
  metrics_.Add("ship.snapshot_installs");
}

sim::Task<void> LogShipper::SendBatch(NodeId replica, uint64_t epoch,
                                      std::string payload) {
  auto wire =
      co_await client_.RawCall(replica, kReplAppend.name, std::move(payload));
  metrics_.Add("ship.inflight", -1);
  if (stopped_) co_return;
  auto it = peers_.find(replica);
  if (it == peers_.end()) co_return;
  PeerState& peer = it->second;
  // A rewind after this batch was sent bumped the epoch: the reply is
  // stale. Its cumulative ack is still consumed below, but it must not
  // clear (or charge) failure / backoff / window state the rewind set up.
  const bool current = epoch == peer.epoch;
  if (current && peer.inflight > 0) --peer.inflight;

  StatusOr<ReplAppendReply> reply =
      wire.ok() ? rpc::DecodeEnvelope<ReplAppendReply>(std::move(*wire))
                : StatusOr<ReplAppendReply>(wire.status());
  if (!reply.ok()) {
    if (current) {
      // One failure (and one backoff step) per burst: the rewind bumps the
      // epoch, so the other in-flight batches of this window failing right
      // after us are stale and charge nothing.
      OnShipFailure(&peer, replica);
      Rewind(&peer, AckedLsn(replica) + 1);
      peer.next_send_at = sim_->now() + peer.backoff;
    }
    WakeShippers(&peer);
    co_return;
  }

  OnAck(replica, reply->applied_lsn);
  // Per-replica visibility lag at ack time, in records (how far the
  // replica's applied tail trails the primary's).
  if (peer.lag == nullptr) {
    peer.lag = &metrics_.Hist("ship.lag." + std::to_string(replica));
  }
  peer.lag->Record(
      static_cast<int64_t>(stream_->next_lsn() - 1 - AckedLsn(replica)));
  if (current) {
    if (!peer.healthy) {
      peer.healthy = true;
      metrics_.Add("ship.replica_recovered");
    }
    peer.consecutive_failures = 0;
    peer.backoff = 0;
    peer.next_send_at = 0;
    if (!reply->accepted) {
      // The replica dropped the batch (stall, gap with reordering off, or
      // reorder buffer full): fall back to resending from its cumulative
      // ack. A healthy RPC round trip, so no backoff is charged.
      metrics_.Add("ship.rewinds");
      Rewind(&peer, AckedLsn(replica) + 1);
    }
  }
  // A completion frees a slot only in this replica's window: loops parked
  // on other full windows stay parked.
  WakeShippers(&peer);
}

void LogShipper::OnShipFailure(PeerState* peer, NodeId replica) {
  metrics_.Add("ship.failures");
  ++peer->consecutive_failures;
  peer->backoff = peer->backoff == 0
                      ? options_.retry_backoff
                      : std::min(2 * peer->backoff,
                                 options_.max_retry_backoff);
  if (peer->healthy &&
      peer->consecutive_failures >= options_.unhealthy_after_failures) {
    peer->healthy = false;
    metrics_.Add("ship.replica_down");
    GDB_LOG(Info) << "shipper " << self_ << ": replica " << replica
                  << " marked down after " << peer->consecutive_failures
                  << " failures";
  }
}

void LogShipper::OnAck(NodeId replica, Lsn acked) {
  Lsn& slot = acked_[replica];
  if (acked > slot) {
    // Maintain the descending ack vector in place: find this replica's old
    // value, raise it, bubble it left past smaller entries. Equal values
    // are interchangeable, so matching "a" slot with the old value is
    // enough.
    auto pos = std::find(sorted_acks_.begin(), sorted_acks_.end(), slot);
    GDB_CHECK(pos != sorted_acks_.end());
    *pos = acked;
    while (pos != sorted_acks_.begin() && *(pos - 1) < *pos) {
      std::iter_swap(pos - 1, pos);
      --pos;
    }
    slot = acked;
    const size_t k = std::min<size_t>(
        std::max(options_.quorum_replicas, 1), sorted_acks_.size());
    quorum_acked_ = sorted_acks_[k - 1];
    all_acked_ = sorted_acks_.back();
  }
  // Resolve durability waiters.
  for (auto& waiter : waiters_) {
    if (waiter.lsn != kInvalidLsn && DurabilityReached(waiter.lsn)) {
      waiter.done.TrySet(true);
      waiter.lsn = kInvalidLsn;  // mark resolved
    }
  }
  waiters_.erase(std::remove_if(waiters_.begin(), waiters_.end(),
                                [](const DurabilityWaiter& w) {
                                  return w.lsn == kInvalidLsn;
                                }),
                 waiters_.end());
}

Lsn LogShipper::AckedLsn(NodeId replica) const {
  auto it = acked_.find(replica);
  return it == acked_.end() ? 0 : it->second;
}

Lsn LogShipper::QuorumAckedLsn() const {
  if (acked_.empty()) return stream_->next_lsn() - 1;
  return quorum_acked_;
}

Lsn LogShipper::AllAckedLsn() const {
  if (acked_.empty()) return stream_->next_lsn() - 1;
  return std::min(stream_->next_lsn() - 1, all_acked_);
}

bool LogShipper::DurabilityReached(Lsn lsn) const {
  switch (options_.mode) {
    case ReplicationMode::kAsync:
      return true;
    case ReplicationMode::kSyncQuorum:
      return QuorumAckedLsn() >= lsn;
    case ReplicationMode::kSyncAll:
      return AllAckedLsn() >= lsn;
  }
  return true;
}

sim::Task<Status> LogShipper::WaitDurable(Lsn lsn) {
  if (DurabilityReached(lsn)) co_return Status::OK();
  if (stopped_) co_return Status::Unavailable("log shipper stopped");
  metrics_.Add("ship.durability_waits");
  waiters_.emplace_back(lsn, sim_);
  sim::Future<bool> future = waiters_.back().done.GetFuture();
  const bool reached = co_await future;
  if (!reached) co_return Status::Unavailable("log shipper stopped");
  co_return Status::OK();
}

}  // namespace globaldb
