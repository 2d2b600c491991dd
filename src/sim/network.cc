#include "src/sim/network.h"

#include <algorithm>

#include "src/common/logging.h"

namespace globaldb::sim {

Network::Network(Simulator* sim, Topology topology, NetworkOptions options)
    : sim_(sim),
      topology_(std::move(topology)),
      options_(options),
      rng_(sim->rng().Fork()) {}

void Network::RegisterNode(NodeId node, RegionId region) {
  GDB_CHECK(region < topology_.num_regions())
      << "region " << region << " out of range";
  nodes_[node].region = region;
}

RegionId Network::RegionOf(NodeId node) const {
  auto it = nodes_.find(node);
  GDB_CHECK(it != nodes_.end()) << "unknown node " << node;
  return it->second.region;
}

void Network::RegisterHandler(NodeId node, const std::string& method,
                              RpcHandler handler) {
  GDB_CHECK(nodes_.count(node)) << "node " << node << " not registered";
  nodes_[node].handlers[method] = std::move(handler);
}

void Network::SetNodeUp(NodeId node, bool up) {
  GDB_CHECK(nodes_.count(node));
  NodeInfo& info = nodes_[node];
  info.up = up;
  if (up) return;
  // Crash semantics: every open connection to the node resets. Each pending
  // caller sees Unavailable after one RST flight time rather than waiting
  // out the RPC timeout.
  auto inflight = std::move(info.inflight);
  info.inflight.clear();
  for (auto& [caller, promise] : inflight) {
    if (promise.has_value()) continue;
    const SimDuration rst_delay =
        topology_.OneWayLatency(info.region, RegionOf(caller));
    metrics_.Add("rpc.connection_resets");
    Promise<StatusOr<std::string>> p = promise;
    sim_->Schedule(rst_delay, [p]() mutable {
      p.TrySet(Status::Unavailable("connection reset: peer down"));
    });
  }
}

bool Network::IsNodeUp(NodeId node) const {
  auto it = nodes_.find(node);
  return it != nodes_.end() && it->second.up;
}

void Network::SetPartitioned(NodeId a, NodeId b, bool blocked) {
  auto key = std::minmax(a, b);
  if (blocked) {
    node_partitions_.insert({key.first, key.second});
  } else {
    node_partitions_.erase({key.first, key.second});
  }
}

void Network::SetRegionPartitioned(RegionId a, RegionId b, bool blocked) {
  auto key = std::minmax(a, b);
  if (blocked) {
    region_partitions_.insert({key.first, key.second});
  } else {
    region_partitions_.erase({key.first, key.second});
  }
}

void Network::SetMessageChaos(bool enabled, double duplicate_fraction) {
  chaos_enabled_ = enabled;
  if (!enabled) return;
  if (duplicate_fraction > 0) {
    chaos_duplicate_fraction_ = duplicate_fraction;
  } else if (chaos_duplicate_fraction_ <= 0) {
    chaos_duplicate_fraction_ = 0.25;
  }
}

bool Network::CanReach(NodeId from, NodeId to) const {
  if (!IsNodeUp(from) || !IsNodeUp(to)) return false;
  if (node_partitions_.count({std::min(from, to), std::max(from, to)})) {
    return false;
  }
  const RegionId rf = RegionOf(from);
  const RegionId rt = RegionOf(to);
  if (region_partitions_.count({std::min(rf, rt), std::max(rf, rt)})) {
    return false;
  }
  return true;
}

double Network::EffectiveBandwidth(RegionId from, RegionId to) const {
  const double nominal = (from == to) ? options_.intra_region_bandwidth
                                      : options_.inter_region_bandwidth;
  if (from == to) return nominal;
  if (options_.bbr_enabled) {
    // BBR sustains near-full utilization on long fat pipes.
    return nominal * 0.95;
  }
  // Loss-based congestion control loses utilization as RTT grows: model
  // utilization ~ base_rtt / (base_rtt + rtt), floored at 20%.
  const double rtt_ms =
      static_cast<double>(topology_.rtt[from][to]) / kMillisecond;
  const double utilization = std::max(0.2, 0.9 * 25.0 / (25.0 + rtt_ms));
  return nominal * utilization;
}

SimDuration Network::TransferDelay(NodeId from, NodeId to, size_t bytes) {
  const RegionId rf = RegionOf(from);
  const RegionId rt = RegionOf(to);
  SimDuration delay = topology_.OneWayLatency(rf, rt);
  // Serialization / transmission time.
  const double bw = EffectiveBandwidth(rf, rt);
  delay += static_cast<SimDuration>(static_cast<double>(bytes) / bw * kSecond);
  // Nagle's algorithm coalesces small writes, costing extra latency.
  if (options_.nagle_enabled && bytes < options_.nagle_threshold &&
      rf != rt) {
    delay += options_.nagle_delay;
  }
  // Jitter.
  if (options_.jitter_fraction > 0) {
    const double j = options_.jitter_fraction *
                     static_cast<double>(topology_.OneWayLatency(rf, rt));
    delay += static_cast<SimDuration>(rng_.NextDouble() * j);
  }
  return delay;
}

Task<void> Network::DeliverCall(NodeId from, NodeId to, std::string method,
                                std::string payload,
                                Promise<StatusOr<std::string>> reply) {
  // Request flight time.
  co_await sim_->Sleep(TransferDelay(from, to, payload.size()));
  if (!CanReach(from, to)) {
    // Connection reset observed by the caller.
    reply.TrySet(Status::Unavailable("target unreachable"));
    co_return;
  }
  auto& info = nodes_[to];
  auto it = info.handlers.find(method);
  if (it == info.handlers.end()) {
    reply.TrySet(Status::Unimplemented("no handler for " + method));
    co_return;
  }
  std::string response = co_await it->second(from, std::move(payload));
  // Response flight time.
  co_await sim_->Sleep(TransferDelay(to, from, response.size()));
  if (!CanReach(to, from)) {
    reply.TrySet(Status::Unavailable("reply lost"));
    co_return;
  }
  reply.TrySet(std::move(response));
}

Task<StatusOr<std::string>> Network::Call(NodeId from, NodeId to,
                                          std::string method,
                                          std::string payload,
                                          SimDuration timeout) {
  if (timeout <= 0) timeout = options_.rpc_timeout;
  metrics_.Add("rpc.calls");
  metrics_.Add("rpc.bytes", static_cast<int64_t>(payload.size()));
  const RegionId rf = RegionOf(from);
  const RegionId rt = RegionOf(to);
  if (rf != rt) {
    metrics_.Add("rpc.cross_region_calls");
    metrics_.Add("rpc.cross_region_bytes",
                 static_cast<int64_t>(payload.size()));
  }

  Promise<StatusOr<std::string>> reply(sim_);
  Future<StatusOr<std::string>> future = reply.GetFuture();
  EventHandle timer;

  if (!CanReach(from, to)) {
    Promise<StatusOr<std::string>> p = reply;
    if (IsNodeUp(from) && nodes_.count(to) && !IsNodeUp(to)) {
      // Dead peer: the connection attempt is refused after one round trip
      // (SYN out, RST back) — much faster than the timeout.
      const SimDuration rtt =
          std::min(2 * topology_.OneWayLatency(rf, rt), timeout);
      sim_->Schedule(rtt, [p]() mutable {
        p.TrySet(Status::Unavailable("connection refused: peer down"));
      });
    } else {
      // Partition (or dead caller): packets vanish silently; only the
      // timeout resolves the call.
      sim_->Schedule(timeout, [p]() mutable {
        p.TrySet(Status::Unavailable("target unreachable"));
      });
    }
  } else {
    // Track the call so SetNodeUp(to, false) can reset it promptly.
    auto& inflight = nodes_[to].inflight;
    inflight.erase(std::remove_if(inflight.begin(), inflight.end(),
                                  [](const auto& entry) {
                                    return entry.second.has_value();
                                  }),
                   inflight.end());
    inflight.emplace_back(from, reply);
    const bool duplicate =
        chaos_enabled_ && options_.chaos_exempt_methods.count(method) == 0 &&
        rng_.NextDouble() < chaos_duplicate_fraction_;
    std::string dup_payload;
    if (duplicate) dup_payload = payload;
    sim_->Spawn(DeliverCall(from, to, method, std::move(payload), reply));
    if (duplicate) {
      // Retransmitted copy: leaves later by a random lag so it can land
      // after messages sent after the original (duplication + reordering in
      // one fault). It re-executes the server handler but its reply goes to
      // a discarded promise — the client only ever sees the first answer.
      metrics_.Add("rpc.chaos_duplicates");
      const SimDuration lag =
          1 + static_cast<SimDuration>(
                  rng_.NextDouble() * 4.0 *
                  static_cast<double>(topology_.OneWayLatency(rf, rt)));
      Promise<StatusOr<std::string>> discard(sim_);
      sim_->Schedule(lag, [this, from, to, method,
                           payload = std::move(dup_payload),
                           discard]() mutable {
        sim_->Spawn(DeliverCall(from, to, std::move(method),
                                std::move(payload), discard));
      });
    }
    Promise<StatusOr<std::string>> p = reply;
    timer = sim_->Schedule(
        timeout, [p]() mutable { p.TrySet(Status::TimedOut("rpc")); });
  }
  StatusOr<std::string> result = co_await future;
  // A reply beat the timeout: drop it from the queue, and the promise state
  // it holds with it.
  sim_->Cancel(timer);
  co_return result;
}

void Network::Send(NodeId from, NodeId to, std::string method,
                   std::string payload) {
  metrics_.Add("send.messages");
  metrics_.Add("send.bytes", static_cast<int64_t>(payload.size()));
  if (RegionOf(from) != RegionOf(to)) {
    metrics_.Add("send.cross_region_bytes",
                 static_cast<int64_t>(payload.size()));
  }
  if (!CanReach(from, to)) return;
  const SimDuration delay = TransferDelay(from, to, payload.size());
  auto deliver = [this, from, to](std::string m, std::string p) {
    if (!CanReach(from, to)) return;
    auto& info = nodes_[to];
    auto it = info.handlers.find(m);
    if (it == info.handlers.end()) return;
    sim_->Spawn([](RpcHandler h, NodeId f, std::string pl) -> Task<void> {
      (void)co_await h(f, std::move(pl));
    }(it->second, from, std::move(p)));
  };
  if (chaos_enabled_ && options_.chaos_exempt_methods.count(method) == 0 &&
      rng_.NextDouble() < chaos_duplicate_fraction_) {
    // Duplicated copy, lagged so it may arrive after later sends.
    metrics_.Add("send.chaos_duplicates");
    const SimDuration lag =
        1 + static_cast<SimDuration>(
                rng_.NextDouble() * 4.0 *
                static_cast<double>(topology_.OneWayLatency(
                    RegionOf(from), RegionOf(to))));
    sim_->Schedule(delay + lag, [deliver, method, payload]() mutable {
      deliver(std::move(method), std::move(payload));
    });
  }
  sim_->Schedule(delay, [deliver, method = std::move(method),
                         payload = std::move(payload)]() mutable {
    deliver(std::move(method), std::move(payload));
  });
}

}  // namespace globaldb::sim
