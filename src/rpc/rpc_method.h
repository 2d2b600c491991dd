#ifndef GLOBALDB_SRC_RPC_RPC_METHOD_H_
#define GLOBALDB_SRC_RPC_RPC_METHOD_H_

#include <string>

#include "src/common/slice.h"
#include "src/common/statusor.h"

namespace globaldb::rpc {

/// Compile-time descriptor pairing an RPC method name with its request and
/// reply message types. Declared as inline constexpr constants next to the
/// message structs, e.g.:
///
///   inline constexpr rpc::RpcMethod<ReadRequest, ReadReply> kDnLockRead{
///       "dn.lock_read"};
///
/// RpcClient::Call and RpcServer::Handle take the descriptor, so a call site
/// cannot pair the wrong codec with a method: the request is encoded and the
/// reply decoded from the types carried here.
template <typename RequestT, typename ReplyT>
struct RpcMethod {
  using Request = RequestT;
  using Reply = ReplyT;

  const char* name;
};

/// Message with no payload (acks, parameterless requests). Replaces the old
/// per-module `StatusReply`: success/error now travels in the reply envelope
/// (see wire.h), so a handler with nothing else to say returns EmptyMessage.
struct EmptyMessage {
  std::string Encode() const { return std::string(); }
  static StatusOr<EmptyMessage> Decode(Slice in) {
    (void)in;  // trailing bytes tolerated: older peers may append fields
    return EmptyMessage{};
  }
};

}  // namespace globaldb::rpc

#endif  // GLOBALDB_SRC_RPC_RPC_METHOD_H_
