#ifndef GLOBALDB_SRC_RPC_RPC_CLIENT_H_
#define GLOBALDB_SRC_RPC_RPC_CLIENT_H_

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/statusor.h"
#include "src/common/types.h"
#include "src/rpc/rpc_method.h"
#include "src/rpc/trace.h"
#include "src/rpc/wire.h"
#include "src/sim/future.h"
#include "src/sim/network.h"

namespace globaldb::rpc {

/// Client-wide defaults for every call issued through one RpcClient.
struct RpcPolicy {
  /// Per-attempt transport timeout; 0 uses the network's default.
  SimDuration attempt_timeout = 0;
  /// Overall deadline across all attempts and backoffs; 0 = none. When the
  /// deadline expires the call fails with TimedOut and no further attempts
  /// are made.
  SimDuration deadline = 0;
  /// Total attempts (1 = never retry). Only transport errors (Unavailable /
  /// TimedOut) are retried; application errors return immediately.
  int max_attempts = 3;
  /// Exponential backoff between attempts: initial, doubling, clamped.
  SimDuration initial_backoff = 10 * kMillisecond;
  SimDuration max_backoff = 160 * kMillisecond;
  /// Client-wide retry budget (token bucket): each retry spends one token,
  /// each successful call refunds `retry_refill`. When the bucket is empty
  /// calls fail fast with their last transport error instead of retrying —
  /// the standard guard against retry storms amplifying an outage.
  double retry_budget = 32.0;
  double retry_refill = 0.1;
  /// Ring-buffer capacity of the per-client trace log (0 disables).
  size_t trace_capacity = 256;
};

/// Per-call overrides; negative / zero fields fall back to the policy.
struct CallOptions {
  SimDuration attempt_timeout = -1;
  SimDuration deadline = -1;
  int max_attempts = 0;
};

class RpcClient;

namespace internal {

/// Spawn-safe fan-out helper: a plain coroutine function taking everything
/// by value or pointer, so no lambda closure can dangle under the frame.
template <typename Reply>
sim::Task<void> OneTypedCall(RpcClient* client, NodeId to, const char* method,
                             std::string payload, CallOptions options,
                             StatusOr<Reply>* slot, sim::WaitGroup* wg);

}  // namespace internal

/// Typed RPC issuing side: encodes requests, applies the retry / deadline /
/// budget policy, decodes reply envelopes, and records per-call traces plus
/// `rpc.<method>.latency` / `rpc.<method>.retries` histograms.
///
/// Each component owns one client (so metrics and the trace attribute calls
/// to their issuer); the client borrows the simulated network.
class RpcClient {
 public:
  RpcClient(sim::Network* network, NodeId self, RpcPolicy policy = {})
      : network_(network),
        sim_(network->simulator()),
        self_(self),
        policy_(policy),
        retry_tokens_(policy.retry_budget),
        trace_(policy.trace_capacity) {}

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  NodeId self() const { return self_; }
  const RpcPolicy& policy() const { return policy_; }
  double retry_tokens() const { return retry_tokens_; }

  /// Typed unary call: encode, RawCall, decode the reply envelope.
  /// Application errors carried in the envelope and transport errors share
  /// the returned StatusOr channel; use IsTransportError to distinguish.
  template <typename M>
  sim::Task<StatusOr<typename M::Reply>> Call(
      NodeId to, M method, const typename M::Request& request,
      CallOptions options = {}) {
    auto wire =
        co_await RawCall(to, method.name, rpc::Encode(request), options);
    if (!wire.ok()) co_return wire.status();
    co_return DecodeEnvelope<typename M::Reply>(std::move(*wire));
  }

  /// One request fanned out to many peers concurrently; results align with
  /// `nodes`. Replaces the per-module OneCall / PollReplica helpers.
  template <typename M>
  sim::Task<std::vector<StatusOr<typename M::Reply>>> CallAll(
      const std::vector<NodeId>& nodes, M method,
      const typename M::Request& request, CallOptions options = {}) {
    using Reply = typename M::Reply;
    std::vector<StatusOr<Reply>> results(
        nodes.size(), StatusOr<Reply>(Status::Unavailable("not attempted")));
    if (nodes.empty()) co_return results;
    const std::string payload = rpc::Encode(request);
    sim::WaitGroup wg(sim_);
    wg.Add(static_cast<int>(nodes.size()));
    for (size_t i = 0; i < nodes.size(); ++i) {
      sim_->Spawn(internal::OneTypedCall<Reply>(this, nodes[i], method.name,
                                                payload, options, &results[i],
                                                &wg));
    }
    co_await wg.Wait();
    co_return results;
  }

  /// Fire-and-forget message (no reply, no retries); dropped silently when
  /// the peer is unreachable, like the raw network Send.
  template <typename M>
  void Send(NodeId to, M method, const typename M::Request& request) {
    std::string payload = rpc::Encode(request);
    TraceEvent event;
    event.start = sim_->now();
    event.peer = to;
    event.method = method.name;
    event.request_bytes = payload.size();
    event.one_way = true;
    trace_.Record(event);
    metrics_.Add("rpc.sends");
    network_->Send(self_, to, method.name, std::move(payload));
  }

  /// Untyped core: the retry loop. Returns the raw reply envelope. Exposed
  /// for tests that need to craft malformed requests.
  sim::Task<StatusOr<std::string>> RawCall(NodeId to, const char* method,
                                           std::string payload,
                                           CallOptions options = {});

  Metrics& metrics() { return metrics_; }
  TraceLog& trace() { return trace_; }

 private:
  /// A method's `rpc.<method>.latency` and `.retries` histograms, looked up
  /// once per client and method (the Metrics map keeps them in place).
  struct MethodHistograms {
    Histogram* latency;
    Histogram* retries;
  };
  const MethodHistograms& HistogramsFor(std::string_view method);

  sim::Network* network_;
  sim::Simulator* sim_;
  NodeId self_;
  RpcPolicy policy_;
  double retry_tokens_;
  Metrics metrics_;
  std::map<std::string, MethodHistograms, std::less<>> method_histograms_;
  TraceLog trace_;
};

/// Folds a fan-out result vector into one Status, first error wins.
template <typename T>
Status FirstError(const std::vector<StatusOr<T>>& results) {
  for (const auto& result : results) {
    if (!result.ok()) return result.status();
  }
  return Status::OK();
}

namespace internal {

template <typename Reply>
sim::Task<void> OneTypedCall(RpcClient* client, NodeId to, const char* method,
                             std::string payload, CallOptions options,
                             StatusOr<Reply>* slot, sim::WaitGroup* wg) {
  auto wire = co_await client->RawCall(to, method, std::move(payload),
                                       options);
  if (!wire.ok()) {
    *slot = wire.status();
  } else {
    *slot = DecodeEnvelope<Reply>(std::move(*wire));
  }
  wg->Done();
}

}  // namespace internal

}  // namespace globaldb::rpc

#endif  // GLOBALDB_SRC_RPC_RPC_CLIENT_H_
