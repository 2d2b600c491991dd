#include "src/compression/lz.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "src/common/codec.h"

namespace globaldb {

namespace {

constexpr size_t kHashBits = 16;
constexpr size_t kHashSize = 1 << kHashBits;

inline uint32_t Read32(const char* p) {
  uint32_t v;
  memcpy(&v, p, 4);
  return v;
}

inline uint32_t HashWindow(uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Emits one sequence: literals [lit_begin, lit_end) then a match of
// match_len at match_offset. match_len == 0 means final literal-only run.
void EmitSequence(const char* lit_begin, size_t lit_len, size_t match_offset,
                  size_t match_len, std::string* out) {
  const size_t lit_nibble = lit_len < 15 ? lit_len : 15;
  size_t match_code = 0;
  if (match_len > 0) {
    match_code = match_len - LzCodec::kMinMatch;
  }
  const size_t match_nibble = match_code < 15 ? match_code : 15;
  out->push_back(static_cast<char>((lit_nibble << 4) | match_nibble));
  if (lit_nibble == 15) PutVarint64(out, lit_len - 15);
  out->append(lit_begin, lit_len);
  if (match_len > 0) {
    PutFixed16(out, static_cast<uint16_t>(match_offset));
    if (match_nibble == 15) PutVarint64(out, match_code - 15);
  }
}

}  // namespace

void LzCodec::Compress(Slice input, std::string* output) {
  output->clear();
  PutVarint64(output, input.size());
  const char* base = input.data();
  const size_t n = input.size();
  if (n < kMinMatch + 1) {
    if (n > 0) EmitSequence(base, n, 0, 0, output);
    return;
  }

  // One match table serves every call. An entry holds stamp_base +
  // position + 1; entries of earlier calls are at most `stamp_base`, so
  // they read as empty. The table is zeroed only when the stamps would
  // overflow 32 bits.
  thread_local std::vector<uint32_t> table(kHashSize, 0);
  thread_local uint64_t next_base = 0;
  if (next_base + n + 1 > std::numeric_limits<uint32_t>::max()) {
    std::fill(table.begin(), table.end(), 0);
    next_base = 0;
  }
  const uint32_t stamp_base = static_cast<uint32_t>(next_base);
  next_base += n + 1;
  size_t pos = 0;
  size_t lit_start = 0;
  // Stop matching near the end; tail is emitted as literals.
  const size_t match_limit = n - kMinMatch;

  while (pos <= match_limit) {
    const uint32_t window = Read32(base + pos);
    const uint32_t h = HashWindow(window);
    const uint32_t stamp = table[h];
    table[h] = static_cast<uint32_t>(stamp_base + pos + 1);

    bool matched = false;
    if (stamp > stamp_base) {
      const size_t candidate = stamp - stamp_base - 1;
      const size_t offset = pos - candidate;
      if (offset > 0 && offset <= kMaxOffset &&
          Read32(base + candidate) == window) {
        // Extend the match.
        size_t len = kMinMatch;
        while (pos + len < n && base[candidate + len] == base[pos + len]) {
          ++len;
        }
        EmitSequence(base + lit_start, pos - lit_start, offset, len, output);
        pos += len;
        lit_start = pos;
        matched = true;
      }
    }
    if (!matched) ++pos;
  }
  if (lit_start < n) {
    EmitSequence(base + lit_start, n - lit_start, 0, 0, output);
  }
}

Status LzCodec::Decompress(Slice input, std::string* output) {
  output->clear();
  uint64_t expected = 0;
  if (!GetVarint64(&input, &expected)) {
    return Status::Corruption("lz: missing size header");
  }
  output->reserve(expected);

  while (output->size() < expected) {
    if (input.empty()) return Status::Corruption("lz: truncated block");
    const uint8_t token = static_cast<uint8_t>(input[0]);
    input.RemovePrefix(1);

    // Literals.
    uint64_t lit_len = token >> 4;
    if (lit_len == 15) {
      uint64_t extra = 0;
      if (!GetVarint64(&input, &extra)) {
        return Status::Corruption("lz: bad literal length");
      }
      lit_len += extra;
    }
    if (input.size() < lit_len) {
      return Status::Corruption("lz: literal overrun");
    }
    output->append(input.data(), lit_len);
    input.RemovePrefix(lit_len);
    if (output->size() > expected) {
      return Status::Corruption("lz: output overflow");
    }
    if (output->size() == expected) break;  // final literal-only sequence

    // Match.
    uint16_t offset = 0;
    if (!GetFixed16(&input, &offset)) {
      return Status::Corruption("lz: missing match offset");
    }
    uint64_t match_code = token & 0x0f;
    if (match_code == 15) {
      uint64_t extra = 0;
      if (!GetVarint64(&input, &extra)) {
        return Status::Corruption("lz: bad match length");
      }
      match_code += extra;
    }
    const uint64_t match_len = match_code + kMinMatch;
    if (offset == 0 || offset > output->size()) {
      return Status::Corruption("lz: invalid match offset");
    }
    if (output->size() + match_len > expected) {
      return Status::Corruption("lz: match overflow");
    }
    // Byte-by-byte copy: matches may overlap their own output (RLE case).
    size_t src = output->size() - offset;
    for (uint64_t i = 0; i < match_len; ++i) {
      output->push_back((*output)[src + i]);
    }
  }
  if (output->size() != expected) {
    return Status::Corruption("lz: size mismatch");
  }
  return Status::OK();
}

}  // namespace globaldb
