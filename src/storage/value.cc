#include "src/storage/value.h"

#include <cmath>
#include <cstring>
#include <string_view>

#include "src/common/codec.h"
#include "src/common/logging.h"

namespace globaldb {

namespace {

constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagString = 3;

// Maps a double to a uint64 whose unsigned order equals the double's total
// order (negative values get their bits flipped; positives get the sign bit
// set).
uint64_t DoubleToOrderedBits(double d) {
  uint64_t bits;
  memcpy(&bits, &d, 8);
  if (bits & (1ULL << 63)) {
    return ~bits;
  }
  return bits | (1ULL << 63);
}

double OrderedBitsToDouble(uint64_t bits) {
  if (bits & (1ULL << 63)) {
    bits &= ~(1ULL << 63);
  } else {
    bits = ~bits;
  }
  double d;
  memcpy(&d, &bits, 8);
  return d;
}

void PutBigEndian64(std::string* dst, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((v >> (8 * (7 - i))) & 0xff);
  }
  dst->append(buf, 8);
}

bool GetBigEndian64(Slice* input, uint64_t* v) {
  if (input->size() < 8) return false;
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) {
    r = (r << 8) | static_cast<unsigned char>((*input)[i]);
  }
  input->RemovePrefix(8);
  *v = r;
  return true;
}

}  // namespace

const char* ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return "INT";
    case ColumnType::kDouble:
      return "DOUBLE";
    case ColumnType::kString:
      return "STRING";
  }
  return "?";
}

bool ValueIsNull(const Value& v) {
  return std::holds_alternative<std::monostate>(v);
}

int CompareValues(const Value& a, const Value& b) {
  if (a.index() != b.index()) {
    // Cross-type numeric comparison (int vs double) compares numerically.
    if (std::holds_alternative<int64_t>(a) &&
        std::holds_alternative<double>(b)) {
      double av = static_cast<double>(std::get<int64_t>(a));
      double bv = std::get<double>(b);
      return av < bv ? -1 : (av > bv ? 1 : 0);
    }
    if (std::holds_alternative<double>(a) &&
        std::holds_alternative<int64_t>(b)) {
      return -CompareValues(b, a);
    }
    return a.index() < b.index() ? -1 : 1;  // nulls first
  }
  if (ValueIsNull(a)) return 0;
  if (std::holds_alternative<int64_t>(a)) {
    int64_t av = std::get<int64_t>(a), bv = std::get<int64_t>(b);
    return av < bv ? -1 : (av > bv ? 1 : 0);
  }
  if (std::holds_alternative<double>(a)) {
    double av = std::get<double>(a), bv = std::get<double>(b);
    return av < bv ? -1 : (av > bv ? 1 : 0);
  }
  const std::string& as = std::get<std::string>(a);
  const std::string& bs = std::get<std::string>(b);
  return as < bs ? -1 : (as > bs ? 1 : 0);
}

std::string ValueToString(const Value& v) {
  if (ValueIsNull(v)) return "NULL";
  if (std::holds_alternative<int64_t>(v)) {
    return std::to_string(std::get<int64_t>(v));
  }
  if (std::holds_alternative<double>(v)) {
    char buf[32];
    snprintf(buf, sizeof(buf), "%g", std::get<double>(v));
    return buf;
  }
  return std::get<std::string>(v);
}

void EncodeRow(const Row& row, std::string* dst) {
  PutVarint32(dst, static_cast<uint32_t>(row.size()));
  for (const Value& v : row) {
    if (ValueIsNull(v)) {
      dst->push_back(static_cast<char>(kTagNull));
    } else if (std::holds_alternative<int64_t>(v)) {
      dst->push_back(static_cast<char>(kTagInt));
      PutVarsint64(dst, std::get<int64_t>(v));
    } else if (std::holds_alternative<double>(v)) {
      dst->push_back(static_cast<char>(kTagDouble));
      uint64_t bits;
      double d = std::get<double>(v);
      memcpy(&bits, &d, 8);
      PutFixed64(dst, bits);
    } else {
      dst->push_back(static_cast<char>(kTagString));
      PutLengthPrefixed(dst, std::get<std::string>(v));
    }
  }
}

Status DecodeRow(Slice* input, Row* out) {
  out->clear();
  uint32_t n = 0;
  if (!GetVarint32(input, &n)) return Status::Corruption("row: bad count");
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (input->empty()) return Status::Corruption("row: truncated");
    const uint8_t tag = static_cast<uint8_t>((*input)[0]);
    input->RemovePrefix(1);
    switch (tag) {
      case kTagNull:
        out->emplace_back(std::monostate{});
        break;
      case kTagInt: {
        int64_t v;
        if (!GetVarsint64(input, &v)) return Status::Corruption("row: int");
        out->emplace_back(v);
        break;
      }
      case kTagDouble: {
        uint64_t bits;
        if (!GetFixed64(input, &bits)) return Status::Corruption("row: dbl");
        double d;
        memcpy(&d, &bits, 8);
        out->emplace_back(d);
        break;
      }
      case kTagString: {
        Slice s;
        if (!GetLengthPrefixed(input, &s)) {
          return Status::Corruption("row: str");
        }
        out->emplace_back(s.ToString());
        break;
      }
      default:
        return Status::Corruption("row: bad tag");
    }
  }
  return Status::OK();
}

namespace {

// The key part of each value type (EncodeKeyPart).

void PutNullKeyPart(std::string* dst) {
  dst->push_back('0');  // nulls sort before all typed values
}

void PutIntKeyPart(int64_t v, std::string* dst) {
  dst->push_back('i');
  PutBigEndian64(dst, static_cast<uint64_t>(v) ^ (1ULL << 63));
}

void PutDoubleKeyPart(double v, std::string* dst) {
  dst->push_back('d');
  PutBigEndian64(dst, DoubleToOrderedBits(v));
}

void PutStringKeyPart(std::string_view rest, std::string* dst) {
  dst->push_back('s');
  // Copy the runs between embedded zeros whole; each zero is escaped.
  for (size_t zero; (zero = rest.find('\x00')) != rest.npos;) {
    dst->append(rest.data(), zero);
    dst->append("\x00\xff", 2);
    rest.remove_prefix(zero + 1);
  }
  dst->append(rest);
  dst->append("\x00\x00", 2);
}

}  // namespace

void EncodeKeyPart(const Value& v, std::string* dst) {
  if (ValueIsNull(v)) {
    PutNullKeyPart(dst);
  } else if (std::holds_alternative<int64_t>(v)) {
    PutIntKeyPart(std::get<int64_t>(v), dst);
  } else if (std::holds_alternative<double>(v)) {
    PutDoubleKeyPart(std::get<double>(v), dst);
  } else {
    PutStringKeyPart(std::get<std::string>(v), dst);
  }
}

namespace {

/// Consumes one EncodeRow field from *row, checking what DecodeRow checks;
/// *field views it from its tag byte on.
bool NextRowField(Slice* row, Slice* field) {
  if (row->empty()) return false;
  const char* start = row->data();
  const uint8_t tag = static_cast<uint8_t>((*row)[0]);
  row->RemovePrefix(1);
  int64_t i;
  uint64_t bits;
  Slice s;
  const bool ok = tag == kTagNull ||
                  (tag == kTagInt && GetVarsint64(row, &i)) ||
                  (tag == kTagDouble && GetFixed64(row, &bits)) ||
                  (tag == kTagString && GetLengthPrefixed(row, &s));
  *field = Slice(start, static_cast<size_t>(row->data() - start));
  return ok;
}

}  // namespace

bool AppendRowKeyParts(Slice row, const std::vector<uint32_t>& cols,
                       std::vector<Slice>* fields, std::string* dst) {
  fields->clear();
  uint32_t n = 0;
  if (!GetVarint32(&row, &n)) return false;
  for (uint32_t i = 0; i < n; ++i) {
    if (!NextRowField(&row, &fields->emplace_back())) return false;
  }
  for (uint32_t col : cols) {
    if (col >= n) return false;
  }
  // Every field parsed above, so these reads cannot fail.
  for (uint32_t col : cols) {
    Slice field = (*fields)[col];
    const uint8_t tag = static_cast<uint8_t>(field[0]);
    field.RemovePrefix(1);
    if (tag == kTagNull) {
      PutNullKeyPart(dst);
    } else if (tag == kTagInt) {
      int64_t v = 0;
      GetVarsint64(&field, &v);
      PutIntKeyPart(v, dst);
    } else if (tag == kTagDouble) {
      uint64_t bits = 0;
      GetFixed64(&field, &bits);
      double d;
      memcpy(&d, &bits, 8);
      PutDoubleKeyPart(d, dst);
    } else {
      Slice s;
      GetLengthPrefixed(&field, &s);
      PutStringKeyPart(s.ToView(), dst);
    }
  }
  return true;
}

RowKey EncodeKey(const Row& row, const std::vector<int>& key_columns) {
  RowKey key;
  for (int col : key_columns) {
    GDB_CHECK(col >= 0 && static_cast<size_t>(col) < row.size())
        << "key column " << col << " out of range";
    EncodeKeyPart(row[col], &key);
  }
  return key;
}

Status DecodeKeyPart(Slice* input, Value* out) {
  if (input->empty()) return Status::Corruption("key: empty");
  const char tag = (*input)[0];
  input->RemovePrefix(1);
  switch (tag) {
    case '0':
      *out = std::monostate{};
      return Status::OK();
    case 'i': {
      uint64_t bits;
      if (!GetBigEndian64(input, &bits)) return Status::Corruption("key: int");
      *out = static_cast<int64_t>(bits ^ (1ULL << 63));
      return Status::OK();
    }
    case 'd': {
      uint64_t bits;
      if (!GetBigEndian64(input, &bits)) return Status::Corruption("key: dbl");
      *out = OrderedBitsToDouble(bits);
      return Status::OK();
    }
    case 's': {
      std::string s;
      while (true) {
        if (input->empty()) return Status::Corruption("key: unterminated str");
        char c = (*input)[0];
        input->RemovePrefix(1);
        if (c == '\x00') {
          if (input->empty()) return Status::Corruption("key: bad escape");
          char next = (*input)[0];
          input->RemovePrefix(1);
          if (next == '\x00') break;  // terminator
          if (next != '\xff') return Status::Corruption("key: bad escape");
          s.push_back('\x00');
        } else {
          s.push_back(c);
        }
      }
      *out = std::move(s);
      return Status::OK();
    }
    default:
      return Status::Corruption("key: bad tag");
  }
}

RowKey PrefixSuccessor(const RowKey& prefix) {
  RowKey result = prefix;
  while (!result.empty()) {
    const unsigned char last = static_cast<unsigned char>(result.back());
    if (last != 0xff) {
      result.back() = static_cast<char>(last + 1);
      return result;
    }
    result.pop_back();
  }
  return result;  // empty = unbounded
}

}  // namespace globaldb
