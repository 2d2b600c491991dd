#ifndef GLOBALDB_SRC_COMMON_CODEC_H_
#define GLOBALDB_SRC_COMMON_CODEC_H_

#include <bit>
#include <cstdint>
#include <string>

#include "src/common/slice.h"
#include "src/common/status.h"

namespace globaldb {

/// Little-endian fixed and LEB128-style varint encoding primitives used by
/// the redo log format and tuple serialization. Appending functions grow the
/// destination string; Get* functions consume from a Slice in place and
/// return false on underflow / malformed input.

void PutFixed16(std::string* dst, uint16_t value);
void PutFixed32(std::string* dst, uint32_t value);
void PutFixed64(std::string* dst, uint64_t value);
void PutVarint32(std::string* dst, uint32_t value);
void PutVarint64(std::string* dst, uint64_t value);
/// Varint length prefix followed by the raw bytes.
void PutLengthPrefixed(std::string* dst, Slice value);

bool GetFixed16(Slice* input, uint16_t* value);
bool GetFixed32(Slice* input, uint32_t* value);
bool GetFixed64(Slice* input, uint64_t* value);
bool GetVarint32(Slice* input, uint32_t* value);
bool GetVarint64(Slice* input, uint64_t* value);
bool GetLengthPrefixed(Slice* input, Slice* value);

/// Number of bytes PutVarint64 would emit: one per started group of seven
/// significant bits (zero takes one byte).
inline int VarintLength(uint64_t value) {
  return 1 + (63 - std::countl_zero(value | 1)) / 7;
}

/// ZigZag transform so small negative numbers encode compactly as varints.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void PutVarsint64(std::string* dst, int64_t value);
bool GetVarsint64(Slice* input, int64_t* value);

}  // namespace globaldb

#endif  // GLOBALDB_SRC_COMMON_CODEC_H_
