#ifndef GLOBALDB_SRC_CLUSTER_HEALTH_MONITOR_H_
#define GLOBALDB_SRC_CLUSTER_HEALTH_MONITOR_H_

#include <functional>
#include <map>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/types.h"
#include "src/rpc/rpc_client.h"
#include "src/sim/network.h"
#include "src/txn/transition.h"

namespace globaldb {

struct HealthMonitorOptions {
  /// When false the Cluster never starts the monitor loop.
  bool enabled = true;
  /// Heartbeat / clock-probe period.
  SimDuration probe_interval = 100 * kMillisecond;
  /// Per-probe transport timeout (a probe is never retried; the next
  /// interval is the retry). Must clear the widest cross-region RTT — the
  /// paper topology's worst pair is 55 ms — or a healthy remote CN would be
  /// declared down. Probes are awaited before the interval sleep, so this
  /// may exceed probe_interval without overlapping probes.
  SimDuration probe_timeout = 150 * kMillisecond;
  /// Consecutive missed probes before a CN is declared down.
  int miss_threshold = 3;
  /// Clock error bound above which a GClock cluster falls back to GTM. The
  /// healthy steady-state bound is tens of microseconds; an unsynchronized
  /// clock crosses 1 ms within seconds (drift * outage duration).
  SimDuration fallback_error_bound = 1 * kMillisecond;
  /// Error bound every CN must stay under for the cluster to be considered
  /// re-synchronized.
  SimDuration recover_error_bound = 200 * kMicrosecond;
  /// How long every CN must be alive and under recover_error_bound before
  /// the monitor switches back to GClock (debounces flapping clocks).
  SimDuration recover_dwell = 500 * kMillisecond;
  /// When true the monitor also probes every DN primary (kDnStatus) and,
  /// after primary_miss_threshold consecutive misses, promotes that shard's
  /// most-caught-up replica (DESIGN.md §12). Off by default: a network
  /// partition is indistinguishable from a crash to a probe, and a cluster
  /// not deployed for failover (most tests) must not split-brain a
  /// partitioned-but-alive primary.
  bool primary_failover = false;
  /// Consecutive missed primary probes before promotion fires.
  int primary_miss_threshold = 3;
};

/// Control-plane failure detector and self-healing driver (runs on the
/// control CN, next to the TransitionCoordinator).
///
/// Every probe_interval the monitor calls kCnMaxIssued on every CN. The
/// reply doubles as a liveness heartbeat and a clock-quality report (its
/// AckReply carries the CN's current clock error bound):
///
///   - A CN missing miss_threshold consecutive probes is declared down
///     (health.cn_down) until a probe succeeds again (health.cn_recovered).
///   - While the cluster runs on GClock, any reachable CN whose error bound
///     exceeds fallback_error_bound (clock-sync outage, stepped clock)
///     triggers an automatic GClock -> GTM transition: centralized
///     timestamps do not depend on clock quality, so commits keep flowing
///     while the clock fleet is unhealthy.
///   - After such a fallback, once every CN is alive and under
///     recover_error_bound for recover_dwell, the monitor drives the
///     GTM -> GClock transition to restore decentralized timestamps.
///
/// The monitor only returns to GClock after a fallback it performed itself:
/// a cluster configured to run on GTM stays on GTM.
class HealthMonitor {
 public:
  HealthMonitor(sim::Simulator* sim, sim::Network* network, NodeId self,
                std::vector<NodeId> cn_nodes,
                TransitionCoordinator* transition, TimestampMode initial_mode,
                HealthMonitorOptions options = {});

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  void Start();
  void Stop() { running_ = false; }
  bool running() const { return running_; }

  /// Wires primary-failover probing: `primaries[s]` is shard s's current
  /// primary; `promote` runs the promotion (in-process, synchronous) and
  /// returns the new primary's node id — or kInvalidNodeId when no live
  /// replica could be promoted (the monitor keeps probing the old primary
  /// and retries on the next miss streak).
  void ConfigureFailover(std::vector<NodeId> primaries,
                         std::function<NodeId(ShardId)> promote) {
    primaries_ = std::move(primaries);
    promote_ = std::move(promote);
    primary_misses_.assign(primaries_.size(), 0);
  }
  /// Follows a promotion driven outside the monitor (tests, operators).
  void NotePrimaryPromoted(ShardId shard, NodeId node) {
    if (shard < static_cast<ShardId>(primaries_.size())) {
      primaries_[shard] = node;
      primary_misses_[shard] = 0;
    }
  }
  bool IsPrimaryAlive(ShardId shard) const {
    return shard < static_cast<ShardId>(primary_misses_.size()) &&
           primary_misses_[shard] < options_.primary_miss_threshold;
  }

  /// The cluster timestamp mode as this monitor believes it to be. Call
  /// NoteMode after driving a transition manually (tests, operators) so the
  /// monitor's state machine follows.
  TimestampMode mode() const { return mode_; }
  void NoteMode(TimestampMode mode) { mode_ = mode; }

  /// True between an automatic GClock -> GTM fallback and the matching
  /// return transition.
  bool fell_back() const { return fell_back_; }

  bool IsCnAlive(NodeId cn) const {
    auto it = cns_.find(cn);
    return it != cns_.end() && it->second.alive;
  }
  /// Max clock error bound over reachable CNs at the last probe.
  SimDuration last_max_error_bound() const { return last_max_error_bound_; }

  Metrics& metrics() { return metrics_; }
  /// RPC client carrying the probe traffic.
  rpc::RpcClient& rpc_client() { return client_; }

 private:
  struct CnState {
    int misses = 0;
    bool alive = true;
    SimDuration error_bound = 0;
  };

  sim::Task<void> MonitorLoop();
  sim::Task<void> ProbeOnce();
  sim::Task<void> ProbePrimaries();

  sim::Simulator* sim_;
  NodeId self_;
  std::vector<NodeId> cn_nodes_;
  TransitionCoordinator* transition_;
  HealthMonitorOptions options_;
  rpc::RpcClient client_;

  bool started_ = false;
  bool running_ = false;
  TimestampMode mode_;
  bool fell_back_ = false;
  /// A transition is in flight; probes keep running but no new transition
  /// starts until it finishes.
  bool in_transition_ = false;
  bool dwell_armed_ = false;
  SimTime healthy_since_ = 0;
  SimDuration last_max_error_bound_ = 0;
  std::map<NodeId, CnState> cns_;
  /// Primary-failover state (empty unless ConfigureFailover was called).
  std::vector<NodeId> primaries_;
  std::vector<int> primary_misses_;
  std::function<NodeId(ShardId)> promote_;
  bool promotion_inflight_ = false;
  Metrics metrics_;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_CLUSTER_HEALTH_MONITOR_H_
