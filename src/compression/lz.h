#ifndef GLOBALDB_SRC_COMPRESSION_LZ_H_
#define GLOBALDB_SRC_COMPRESSION_LZ_H_

#include <string>

#include "src/common/slice.h"
#include "src/common/status.h"

namespace globaldb {

/// LZ4-style byte-oriented LZ77 block compression used by the redo log
/// shipper (the paper compresses shipped Redo logs with LZ4, Section V-A).
///
/// Format (our own framing, not interoperable with upstream LZ4):
///   varint64 uncompressed_size
///   sequence*:
///     token byte: high nibble = literal length (15 => extended varint),
///                 low nibble  = match length - kMinMatch (15 => extended)
///     literal bytes
///     [fixed16 match offset][extended match length] -- omitted when the
///     literals exhaust the output (final sequence)
///
/// Matches are found with a 64K-entry hash table over 4-byte windows, one
/// per thread, reused across calls without re-zeroing; worst case output is
/// input size + size/255 + 16 bytes.
class LzCodec {
 public:
  static constexpr size_t kMinMatch = 4;
  static constexpr size_t kMaxOffset = 65535;

  /// Compresses `input` and appends to `*output` (which is cleared first).
  static void Compress(Slice input, std::string* output);

  /// Decompresses a block produced by Compress. Fails with Corruption on
  /// malformed input.
  static Status Decompress(Slice input, std::string* output);

  /// Convenience: compressed size for instrumentation.
  static size_t CompressedSize(Slice input) {
    std::string out;
    Compress(input, &out);
    return out.size();
  }
};

/// Wire compression modes used by the replication log shipper.
enum class CompressionType : uint8_t { kNone = 0, kLz = 1 };

}  // namespace globaldb

#endif  // GLOBALDB_SRC_COMPRESSION_LZ_H_
