#ifndef GLOBALDB_SRC_RPC_WIRE_H_
#define GLOBALDB_SRC_RPC_WIRE_H_

#include <string>
#include <utility>

#include "src/common/codec.h"
#include "src/common/slice.h"
#include "src/common/statusor.h"
#include "src/rpc/fields.h"

namespace globaldb::rpc {

/// Reply envelope shared by every RPC method.
///
/// Requests travel as the bare message encoding (no envelope), so crafted
/// payloads and the shipper's pre-encoded batches stay byte-compatible.
/// Replies are prefixed with one flag byte:
///
///   [0x01][reply message bytes]            success
///   [0x00][u8 code][lenprefixed message]   application / decode error
///
/// Transport failures (node down, partition, timeout) never reach the
/// envelope: they surface as StatusOr errors from the network layer.

/// Serializes `status` as [u8 code][lenprefixed message].
inline void EncodeStatus(const Status& status, std::string* dst) {
  dst->push_back(static_cast<char>(status.code()));
  PutLengthPrefixed(dst, status.message());
}

inline bool DecodeStatus(Slice* in, Status* out) {
  if (in->empty()) return false;
  const auto code = static_cast<StatusCode>((*in)[0]);
  in->RemovePrefix(1);
  Slice message;
  if (!GetLengthPrefixed(in, &message)) return false;
  *out = Status(code, message.ToString());
  return true;
}

/// Starts an OK envelope; the reply message is appended after the flag.
inline std::string BeginOkEnvelope(size_t reserve = 0) {
  std::string s;
  s.reserve(reserve + 1);
  s.push_back(1);
  return s;
}

inline std::string EncodeErrorEnvelope(const Status& status) {
  std::string s;
  s.push_back(0);
  EncodeStatus(status.ok() ? Status::Internal("error envelope without error")
                           : status,
               &s);
  return s;
}

/// A complete OK reply envelope for `Reply`, serialized by its handler.
///
/// Replies whose rows are views into storage (ScanBatchReply,
/// ReadBatchReply on the server side) must be turned into bytes inside the
/// handler's synchronous pass, before any co_await: a version chain a view
/// points into may be rewritten, vacuumed or freed by a snapshot install
/// while the handler is suspended (DESIGN.md §5). Such handlers return
/// `Encoded<Reply>` instead of `Reply`; RpcServer sends the bytes as is.
template <typename Reply>
struct Encoded {
  std::string envelope;
};

/// Serializes `reply` (which may borrow views) into an OK envelope now.
template <typename Reply>
Encoded<Reply> EncodeOk(const Reply& reply, size_t reserve = 0) {
  std::string s = BeginOkEnvelope(reserve);
  rpc::EncodeTo(reply, &s);
  return Encoded<Reply>{std::move(s)};
}

/// Moves `buffer` out of std::string's inline small-string storage. A moved
/// std::string hands over its heap block but copies inline bytes, so views
/// into a short buffer would dangle once its owner moves; after this call
/// they follow the block instead.
inline void PinToHeap(std::string* buffer) {
  const size_t inline_capacity = std::string().capacity();
  if (buffer->capacity() <= inline_capacity) {
    buffer->reserve(inline_capacity + 1);
  }
}

/// A reply message that keeps its received bytes and views into them
/// (`static StatusOr<Reply> Decode(std::string wire, size_t offset)`)
/// instead of copying every field out of a Slice.
template <typename Reply>
concept BorrowsWire = requires(std::string wire) {
  { Reply::Decode(std::move(wire), size_t{0}) };
};

/// Splits a reply envelope into the typed reply or the carried error. A
/// BorrowsWire reply takes ownership of the envelope.
template <typename Reply>
StatusOr<Reply> DecodeEnvelope(std::string&& wire) {
  Slice in(wire);
  if (in.empty()) return Status::Corruption("rpc envelope: empty reply");
  const char flag = in[0];
  in.RemovePrefix(1);
  if (flag == 1) {
    if constexpr (BorrowsWire<Reply>) {
      return Reply::Decode(std::move(wire), 1);
    } else {
      return rpc::Decode<Reply>(in);
    }
  }
  if (flag != 0) return Status::Corruption("rpc envelope: bad flag");
  Status status;
  if (!DecodeStatus(&in, &status) || status.ok()) {
    return Status::Corruption("rpc envelope: bad error status");
  }
  return status;
}

/// True for the transport-level failures a retry can help with. Application
/// errors returned by a handler use other codes and are never retried.
inline bool IsTransportError(const Status& status) {
  return status.IsUnavailable() || status.IsTimedOut();
}

}  // namespace globaldb::rpc

#endif  // GLOBALDB_SRC_RPC_WIRE_H_
