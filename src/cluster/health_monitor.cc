#include "src/cluster/health_monitor.h"

#include <algorithm>
#include <utility>

#include "src/cluster/messages.h"
#include "src/common/logging.h"
#include "src/txn/messages.h"

namespace globaldb {

namespace {

/// Probes must not stall the monitor loop behind retries: a missed probe is
/// counted and the next interval tries again.
rpc::RpcPolicy ProbePolicy(const HealthMonitorOptions& options) {
  rpc::RpcPolicy policy;
  policy.max_attempts = 1;
  policy.attempt_timeout = options.probe_timeout;
  return policy;
}

}  // namespace

HealthMonitor::HealthMonitor(sim::Simulator* sim, sim::Network* network,
                             NodeId self, std::vector<NodeId> cn_nodes,
                             TransitionCoordinator* transition,
                             TimestampMode initial_mode,
                             HealthMonitorOptions options)
    : sim_(sim),
      self_(self),
      cn_nodes_(std::move(cn_nodes)),
      transition_(transition),
      options_(options),
      client_(network, self, ProbePolicy(options)),
      mode_(initial_mode) {
  for (NodeId cn : cn_nodes_) cns_[cn] = CnState{};
}

void HealthMonitor::Start() {
  if (started_) return;
  started_ = true;
  running_ = true;
  sim_->Spawn(MonitorLoop());
}

sim::Task<void> HealthMonitor::MonitorLoop() {
  while (running_) {
    if (options_.primary_failover && !primaries_.empty()) {
      co_await ProbePrimaries();
    }
    co_await ProbeOnce();
    co_await sim_->Sleep(options_.probe_interval);
  }
}

sim::Task<void> HealthMonitor::ProbePrimaries() {
  metrics_.Add("health.primary_probes");
  auto results =
      co_await client_.CallAll(primaries_, kDnStatus, rpc::EmptyMessage{});
  if (!running_) co_return;
  for (ShardId shard = 0; shard < static_cast<ShardId>(primaries_.size());
       ++shard) {
    if (results[shard].ok()) {
      if (primary_misses_[shard] >= options_.primary_miss_threshold) {
        metrics_.Add("health.primary_recovered");
      }
      primary_misses_[shard] = 0;
      continue;
    }
    metrics_.Add("health.primary_probe_misses");
    if (++primary_misses_[shard] < options_.primary_miss_threshold) continue;
    if (promote_ == nullptr || promotion_inflight_) continue;
    metrics_.Add("health.primary_down");
    GDB_LOG(Warn) << "health: primary " << primaries_[shard] << " (shard "
                  << shard << ") declared down, promoting a replica";
    // Promotion is synchronous in-process object surgery; the guard only
    // protects against a re-entrant probe loop (not expected, but cheap).
    promotion_inflight_ = true;
    const NodeId promoted = promote_(shard);
    promotion_inflight_ = false;
    if (promoted != kInvalidNodeId) {
      primaries_[shard] = promoted;
      primary_misses_[shard] = 0;
      metrics_.Add("health.promotions");
      GDB_LOG(Info) << "health: shard " << shard << " promoted replica "
                    << promoted << " to primary";
    } else {
      metrics_.Add("health.promotion_failures");
    }
  }
}

sim::Task<void> HealthMonitor::ProbeOnce() {
  metrics_.Add("health.probes");
  auto results =
      co_await client_.CallAll(cn_nodes_, kCnMaxIssued, rpc::EmptyMessage{});

  SimDuration max_bound = 0;
  bool all_alive = true;
  for (size_t i = 0; i < cn_nodes_.size(); ++i) {
    CnState& state = cns_[cn_nodes_[i]];
    if (!results[i].ok()) {
      metrics_.Add("health.probe_misses");
      if (++state.misses >= options_.miss_threshold && state.alive) {
        state.alive = false;
        metrics_.Add("health.cn_down");
        GDB_LOG(Warn) << "health: CN " << cn_nodes_[i] << " declared down";
      }
    } else {
      if (!state.alive) {
        metrics_.Add("health.cn_recovered");
        GDB_LOG(Info) << "health: CN " << cn_nodes_[i] << " recovered";
      }
      state.alive = true;
      state.misses = 0;
      state.error_bound = results[i]->max_error_bound;
      max_bound = std::max(max_bound, state.error_bound);
    }
    if (!state.alive) all_alive = false;
  }
  last_max_error_bound_ = max_bound;

  if (!running_ || in_transition_ || transition_ == nullptr) co_return;

  // Fallback: clock quality on some reachable CN no longer supports GClock
  // timestamp ordering guarantees — move the cluster to GTM.
  if (mode_ == TimestampMode::kGclock &&
      max_bound > options_.fallback_error_bound) {
    GDB_LOG(Warn) << "health: clock error bound " << max_bound
                  << "ns exceeds fallback threshold, switching to GTM";
    in_transition_ = true;
    auto result = co_await transition_->SwitchToGtm();
    in_transition_ = false;
    if (result.ok()) {
      mode_ = TimestampMode::kGtm;
      fell_back_ = true;
      dwell_armed_ = false;
      metrics_.Add("health.fallback_to_gtm");
    } else {
      metrics_.Add("health.transition_failures");
    }
    co_return;
  }

  // Return: only after a fallback this monitor performed, and only once the
  // whole CN fleet has been healthy and re-synchronized for the dwell.
  if (fell_back_ && mode_ == TimestampMode::kGtm) {
    const bool healthy = all_alive && max_bound > 0 &&
                         max_bound < options_.recover_error_bound;
    if (!healthy) {
      dwell_armed_ = false;
      co_return;
    }
    if (!dwell_armed_) {
      dwell_armed_ = true;
      healthy_since_ = sim_->now();
      co_return;
    }
    if (sim_->now() - healthy_since_ < options_.recover_dwell) co_return;
    GDB_LOG(Info) << "health: clocks re-synchronized, returning to GClock";
    in_transition_ = true;
    auto result = co_await transition_->SwitchToGclock();
    in_transition_ = false;
    dwell_armed_ = false;
    if (result.ok()) {
      mode_ = TimestampMode::kGclock;
      fell_back_ = false;
      metrics_.Add("health.return_to_gclock");
    } else {
      metrics_.Add("health.transition_failures");
    }
  }
}

}  // namespace globaldb
