#ifndef GLOBALDB_SRC_RPC_RPC_METHOD_H_
#define GLOBALDB_SRC_RPC_RPC_METHOD_H_

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
/// Its empty field list decodes any payload (trailing bytes are ignored).
struct EmptyMessage {
  static void Fields(auto&, auto&& visit) { visit(); }
};

}  // namespace globaldb::rpc

#endif  // GLOBALDB_SRC_RPC_RPC_METHOD_H_
