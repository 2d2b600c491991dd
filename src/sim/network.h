#ifndef GLOBALDB_SRC_SIM_NETWORK_H_
#define GLOBALDB_SRC_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/statusor.h"
#include "src/common/types.h"
#include "src/sim/future.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/sim/topology.h"

namespace globaldb::sim {

/// Transport tuning knobs (Section V-A of the paper: the GlobalDB deployment
/// enables LZ4 redo compression, TCP BBR, and disables Nagle's algorithm).
/// Compression is applied by the log shipper; the network models the other
/// two plus bandwidth and jitter.
struct NetworkOptions {
  /// Nominal inter-region bandwidth in bytes per simulated second.
  double inter_region_bandwidth = 40e6;  // ~320 Mbit/s long-haul
  /// Intra-region bandwidth (10 GbE in the paper's racks).
  double intra_region_bandwidth = 1.25e9;
  /// When true, long-RTT links keep high utilization (BBR); when false a
  /// loss-based model degrades utilization as RTT grows (CUBIC-like).
  bool bbr_enabled = false;
  /// When true, messages below `nagle_threshold` bytes are delayed by
  /// `nagle_delay` waiting for coalescing / delayed ACKs.
  bool nagle_enabled = true;
  size_t nagle_threshold = 1400;
  SimDuration nagle_delay = 2 * kMillisecond;
  /// Uniform latency jitter as a fraction of the one-way latency.
  double jitter_fraction = 0.05;
  /// Default RPC timeout.
  SimDuration rpc_timeout = 5 * kSecond;
  /// Methods message chaos never duplicates: statement writes and snapshot
  /// installs ride an ordered, exactly-once byte stream in the modeled
  /// deployment (TCP dedups transport retransmissions), so duplicating them
  /// would inject failures no real network produces. Chaos duplication
  /// targets control messages, whose receivers must absorb application-level
  /// re-sends idempotently.
  std::set<std::string> chaos_exempt_methods = {"dn.write_batch",
                                                "repl.snapshot"};
};

/// Handler invoked when an RPC arrives at a node. The returned payload is
/// shipped back to the caller. Application-level errors are encoded inside
/// the payload; transport failures surface as StatusOr errors at the caller.
using RpcHandler =
    std::function<Task<std::string>(NodeId from, std::string payload)>;

/// Simulated wide-area network: computes per-message delivery delays from
/// the topology and options, dispatches RPCs to registered handlers, and
/// injects faults (node crashes, partitions).
class Network {
 public:
  Network(Simulator* sim, Topology topology, NetworkOptions options = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Simulator* simulator() { return sim_; }
  const Topology& topology() const { return topology_; }
  const NetworkOptions& options() const { return options_; }
  NetworkOptions* mutable_options() { return &options_; }

  /// Registers a node in a region. Nodes start healthy.
  void RegisterNode(NodeId node, RegionId region);

  RegionId RegionOf(NodeId node) const;

  /// Registers the handler for (node, method). Overwrites silently so tests
  /// can re-register instrumented handlers.
  void RegisterHandler(NodeId node, const std::string& method,
                       RpcHandler handler);

  /// Round-trip RPC with timeout. Fails with Unavailable if the target is
  /// down/unreachable, TimedOut on deadline.
  Task<StatusOr<std::string>> Call(NodeId from, NodeId to,
                                   std::string method, std::string payload,
                                   SimDuration timeout = 0);

  /// Fire-and-forget message; silently dropped if the target is down or
  /// partitioned (like a packet on a dead TCP connection).
  void Send(NodeId from, NodeId to, std::string method, std::string payload);

  /// One-way delivery delay for `bytes` from `from` to `to` right now
  /// (latency + serialization + Nagle + jitter).
  SimDuration TransferDelay(NodeId from, NodeId to, size_t bytes);

  // --- Fault injection ---------------------------------------------------

  /// Taking a node down resets every in-flight call addressed to it: each
  /// caller observes Unavailable after one RST flight time instead of riding
  /// out the full RPC timeout. Partitions, by contrast, are silent black
  /// holes — blocked calls there still time out.
  void SetNodeUp(NodeId node, bool up);
  bool IsNodeUp(NodeId node) const;
  /// Blocks traffic in both directions between two nodes.
  void SetPartitioned(NodeId a, NodeId b, bool blocked);
  /// Blocks all traffic between two regions.
  void SetRegionPartitioned(RegionId a, RegionId b, bool blocked);
  bool CanReach(NodeId from, NodeId to) const;
  /// Message chaos: while enabled, each RPC request or one-way send is
  /// delivered a *second* time with probability `duplicate_fraction`, the
  /// copy carrying an extra random delay — so duplicates also arrive out of
  /// order relative to later traffic. The duplicate of a call executes the
  /// server handler again but its reply is discarded (a retransmission whose
  /// answer the client ignores); receivers must be idempotent to survive it.
  /// Passing duplicate_fraction <= 0 while enabling keeps (or defaults) the
  /// current fraction.
  void SetMessageChaos(bool enabled, double duplicate_fraction);
  bool message_chaos_enabled() const { return chaos_enabled_; }

  /// Total payload bytes accepted for transmission between each region pair
  /// (for the log-shipping volume ablation).
  Metrics& metrics() { return metrics_; }

 private:
  struct NodeInfo {
    RegionId region = 0;
    bool up = true;
    std::map<std::string, RpcHandler> handlers;
    /// Reply promises of calls currently addressed to this node, so a crash
    /// can reset them promptly (connection reset). Resolved entries are
    /// pruned lazily on the next call.
    std::vector<std::pair<NodeId, Promise<StatusOr<std::string>>>> inflight;
  };

  double EffectiveBandwidth(RegionId from, RegionId to) const;
  Task<void> DeliverCall(NodeId from, NodeId to, std::string method,
                         std::string payload,
                         Promise<StatusOr<std::string>> reply);

  Simulator* sim_;
  Topology topology_;
  NetworkOptions options_;
  std::map<NodeId, NodeInfo> nodes_;
  std::set<std::pair<NodeId, NodeId>> node_partitions_;
  std::set<std::pair<RegionId, RegionId>> region_partitions_;
  bool chaos_enabled_ = false;
  double chaos_duplicate_fraction_ = 0.0;
  Rng rng_;
  Metrics metrics_;
};

}  // namespace globaldb::sim

#endif  // GLOBALDB_SRC_SIM_NETWORK_H_
