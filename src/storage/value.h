#ifndef GLOBALDB_SRC_STORAGE_VALUE_H_
#define GLOBALDB_SRC_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace globaldb {

/// Column data types supported by the engine (sufficient for TPC-C,
/// Sysbench, and the SQL subset).
enum class ColumnType : uint8_t { kInt64 = 1, kDouble = 2, kString = 3 };

const char* ColumnTypeName(ColumnType type);

/// A single column value. Null is represented by std::monostate.
using Value = std::variant<std::monostate, int64_t, double, std::string>;

/// A row is a vector of values, positionally matching a TableSchema.
using Row = std::vector<Value>;

bool ValueIsNull(const Value& v);
/// SQL-style three-way comparison; nulls sort first.
int CompareValues(const Value& a, const Value& b);
std::string ValueToString(const Value& v);

/// Tagged (self-describing) row serialization for tuple images in redo
/// records and storage.
void EncodeRow(const Row& row, std::string* dst);
Status DecodeRow(Slice* input, Row* out);
inline Status DecodeRow(Slice input, Row* out) { return DecodeRow(&input, out); }

/// Order-preserving key encoding: the byte-wise (memcmp) order of encoded
/// keys equals the logical order of the values. Multi-column keys simply
/// concatenate encoded parts.
///
///  - int64: tag 'i', big-endian with the sign bit flipped.
///  - double: tag 'd', IEEE bits transformed for total order.
///  - string: tag 's', bytes with 0x00 -> 0x00 0xff escaping, 0x00 0x00
///    terminator (so "a" < "a\x00b" < "ab").
void EncodeKeyPart(const Value& v, std::string* dst);
RowKey EncodeKey(const Row& row, const std::vector<int>& key_columns);

/// Appends the key parts of columns `cols` of the EncodeRow bytes `row` to
/// *dst, the bytes EncodeKeyPart appends for each of those values, read in
/// place instead of decoding the row. Returns false, appending nothing,
/// exactly when DecodeRow would reject the row or it has no column `col`
/// for one of `cols`. `fields` is scratch that a caller reuses across rows.
bool AppendRowKeyParts(Slice row, const std::vector<uint32_t>& cols,
                       std::vector<Slice>* fields, std::string* dst);

/// Decodes one key part (tests / diagnostics).
Status DecodeKeyPart(Slice* input, Value* out);

/// Smallest key strictly greater than every key beginning with `prefix`
/// (for prefix range scans). Returns "" (= unbounded) when the prefix is
/// all 0xff bytes.
RowKey PrefixSuccessor(const RowKey& prefix);

}  // namespace globaldb

#endif  // GLOBALDB_SRC_STORAGE_VALUE_H_
