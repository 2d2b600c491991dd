#ifndef GLOBALDB_SRC_RPC_RPC_SERVER_H_
#define GLOBALDB_SRC_RPC_RPC_SERVER_H_

#include <string>
#include <type_traits>
#include <utility>

#include "src/common/statusor.h"
#include "src/common/types.h"
#include "src/rpc/rpc_method.h"
#include "src/rpc/wire.h"
#include "src/sim/network.h"

namespace globaldb::rpc {

namespace internal {

/// Request decode + handler dispatch + reply envelope encode, as a plain
/// coroutine function whose frame owns copies of everything it touches
/// (spawn-safety idiom: the registered lambda below is *not* a coroutine).
/// A handler returning Encoded<Reply> has already built its envelope.
template <typename Request, typename Reply, typename Handler>
sim::Task<std::string> InvokeHandler(Handler handler, NodeId from,
                                     std::string payload) {
  auto request = rpc::Decode<Request>(Slice(payload));
  if (!request.ok()) co_return EncodeErrorEnvelope(request.status());
  auto result = co_await handler(from, std::move(*request));
  if (!result.ok()) co_return EncodeErrorEnvelope(result.status());
  if constexpr (std::is_same_v<std::decay_t<decltype(*result)>,
                               Encoded<Reply>>) {
    co_return std::move(result->envelope);
  } else {
    static_assert(std::is_same_v<std::decay_t<decltype(*result)>, Reply>,
                  "handler reply type does not match the method");
    co_return EncodeOk(*result, rpc::EncodedSize(*result)).envelope;
  }
}

}  // namespace internal

/// Typed dispatch side: decodes requests and encodes reply envelopes
/// centrally so handlers take and return message structs. Replaces the
/// duplicated bind-lambda registration blocks in each node class.
///
/// A handler is any callable `(NodeId from, M::Request) ->
/// sim::Task<StatusOr<M::Reply>>` (or `StatusOr<Encoded<M::Reply>>` when the
/// reply borrows from storage, see wire.h); the idiomatic registration
/// forwards to a member coroutine:
///
///   server_.Handle(kDnLockRead, [this](NodeId from, ReadRequest request) {
///     return HandleLockRead(from, std::move(request));
///   });
///
/// The lambda must not itself be a coroutine — it returns the member-call
/// Task directly, so no closure outlives its frame.
class RpcServer {
 public:
  RpcServer(sim::Network* network, NodeId self)
      : network_(network), self_(self) {}

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  NodeId self() const { return self_; }

  /// Registers `handler` for `method`. Re-registering overwrites, which
  /// tests use to interpose instrumented handlers.
  template <typename M, typename Handler>
  void Handle(M method, Handler handler) {
    network_->RegisterHandler(
        self_, method.name,
        [handler = std::move(handler)](
            NodeId from, std::string payload) -> sim::Task<std::string> {
          return internal::InvokeHandler<typename M::Request,
                                         typename M::Reply>(
              handler, from, std::move(payload));
        });
  }

 private:
  sim::Network* network_;
  NodeId self_;
};

}  // namespace globaldb::rpc

#endif  // GLOBALDB_SRC_RPC_RPC_SERVER_H_
