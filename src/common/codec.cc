#include "src/common/codec.h"

namespace globaldb {

void PutFixed16(std::string* dst, uint16_t value) {
  char buf[2];
  buf[0] = static_cast<char>(value & 0xff);
  buf[1] = static_cast<char>((value >> 8) & 0xff);
  dst->append(buf, 2);
}

void PutFixed32(std::string* dst, uint32_t value) {
  char buf[4];
  for (int i = 0; i < 4; ++i) {
    buf[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t value) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  dst->append(buf, 8);
}

void PutVarint32(std::string* dst, uint32_t value) {
  PutVarint64(dst, value);
}

void PutVarint64(std::string* dst, uint64_t value) {
  unsigned char buf[10];
  int n = 0;
  while (value >= 0x80) {
    buf[n++] = static_cast<unsigned char>(value | 0x80);
    value >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(value);
  dst->append(reinterpret_cast<char*>(buf), n);
}

void PutLengthPrefixed(std::string* dst, Slice value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

bool GetFixed16(Slice* input, uint16_t* value) {
  if (input->size() < 2) return false;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(input->data());
  *value = static_cast<uint16_t>(p[0] | (p[1] << 8));
  input->RemovePrefix(2);
  return true;
}

bool GetFixed32(Slice* input, uint32_t* value) {
  if (input->size() < 4) return false;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(input->data());
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  *value = v;
  input->RemovePrefix(4);
  return true;
}

bool GetFixed64(Slice* input, uint64_t* value) {
  if (input->size() < 8) return false;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(input->data());
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  *value = v;
  input->RemovePrefix(8);
  return true;
}

bool GetVarint32(Slice* input, uint32_t* value) {
  uint64_t v = 0;
  if (!GetVarint64(input, &v)) return false;
  if (v > 0xffffffffULL) return false;
  *value = static_cast<uint32_t>(v);
  return true;
}

bool GetVarint64(Slice* input, uint64_t* value) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && !input->empty(); shift += 7) {
    uint64_t byte = static_cast<unsigned char>((*input)[0]);
    input->RemovePrefix(1);
    if (byte & 0x80) {
      result |= (byte & 0x7f) << shift;
    } else {
      result |= byte << shift;
      *value = result;
      return true;
    }
  }
  return false;
}

bool GetLengthPrefixed(Slice* input, Slice* value) {
  uint64_t len = 0;
  if (!GetVarint64(input, &len)) return false;
  if (input->size() < len) return false;
  *value = Slice(input->data(), len);
  input->RemovePrefix(len);
  return true;
}

void PutVarsint64(std::string* dst, int64_t value) {
  PutVarint64(dst, ZigZagEncode(value));
}

bool GetVarsint64(Slice* input, int64_t* value) {
  uint64_t v = 0;
  if (!GetVarint64(input, &v)) return false;
  *value = ZigZagDecode(v);
  return true;
}

}  // namespace globaldb
