#include "src/storage/value.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace globaldb {
namespace {

TEST(ValueTest, CompareSameTypes) {
  EXPECT_LT(CompareValues(int64_t{1}, int64_t{2}), 0);
  EXPECT_EQ(CompareValues(int64_t{5}, int64_t{5}), 0);
  EXPECT_GT(CompareValues(3.5, 2.5), 0);
  EXPECT_LT(CompareValues(std::string("abc"), std::string("abd")), 0);
}

TEST(ValueTest, CompareCrossNumeric) {
  EXPECT_EQ(CompareValues(int64_t{2}, 2.0), 0);
  EXPECT_LT(CompareValues(int64_t{2}, 2.5), 0);
  EXPECT_GT(CompareValues(3.5, int64_t{3}), 0);
}

TEST(ValueTest, NullsSortFirst) {
  EXPECT_LT(CompareValues(Value{}, int64_t{-100}), 0);
  EXPECT_EQ(CompareValues(Value{}, Value{}), 0);
  EXPECT_TRUE(ValueIsNull(Value{}));
  EXPECT_FALSE(ValueIsNull(Value{int64_t{0}}));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(ValueToString(Value{}), "NULL");
  EXPECT_EQ(ValueToString(Value{int64_t{42}}), "42");
  EXPECT_EQ(ValueToString(Value{std::string("hi")}), "hi");
}

TEST(RowCodecTest, RoundTrip) {
  Row row = {int64_t{-5}, 3.25, std::string("hello"), Value{},
             int64_t{1} << 50};
  std::string buf;
  EncodeRow(row, &buf);
  Row decoded;
  ASSERT_TRUE(DecodeRow(Slice(buf), &decoded).ok());
  ASSERT_EQ(decoded.size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(CompareValues(decoded[i], row[i]), 0) << i;
  }
}

TEST(RowCodecTest, EmptyRow) {
  std::string buf;
  EncodeRow({}, &buf);
  Row decoded;
  ASSERT_TRUE(DecodeRow(Slice(buf), &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(RowCodecTest, RejectsTruncation) {
  Row row = {int64_t{1}, std::string("abcdef")};
  std::string buf;
  EncodeRow(row, &buf);
  Row decoded;
  for (size_t cut = 1; cut < buf.size(); ++cut) {
    EXPECT_FALSE(DecodeRow(Slice(buf.data(), cut), &decoded).ok());
  }
}

// --- Order-preserving key encoding property tests -------------------------

std::string KeyOf(const Value& v) {
  std::string k;
  EncodeKeyPart(v, &k);
  return k;
}

TEST(KeyEncodingTest, IntOrderPreserved) {
  const int64_t values[] = {INT64_MIN, -1000000, -1, 0, 1, 42,
                            1000000,   INT64_MAX};
  for (size_t i = 0; i + 1 < std::size(values); ++i) {
    EXPECT_LT(KeyOf(values[i]), KeyOf(values[i + 1]))
        << values[i] << " vs " << values[i + 1];
  }
}

TEST(KeyEncodingTest, DoubleOrderPreserved) {
  const double values[] = {-1e300, -2.5, -0.0001, 0.0, 0.0001, 1.0, 2.5, 1e300};
  for (size_t i = 0; i + 1 < std::size(values); ++i) {
    EXPECT_LT(KeyOf(values[i]), KeyOf(values[i + 1]));
  }
}

TEST(KeyEncodingTest, StringOrderPreservedWithEmbeddedZeros) {
  std::vector<std::string> values = {
      "", std::string("\x00", 1), std::string("\x00\x01", 2), "a",
      std::string("a\x00", 2), std::string("a\x00t", 3), "ab", "b"};
  for (size_t i = 0; i + 1 < values.size(); ++i) {
    EXPECT_LT(KeyOf(values[i]), KeyOf(values[i + 1])) << i;
  }
}

TEST(KeyEncodingTest, PrefixStringSortsBeforeExtension) {
  // "abc" < "abcd" must hold after encoding (terminator correctness).
  EXPECT_LT(KeyOf(std::string("abc")), KeyOf(std::string("abcd")));
}

TEST(KeyEncodingTest, CompositeKeysConcatenate) {
  Row r1 = {int64_t{1}, std::string("b")};
  Row r2 = {int64_t{1}, std::string("c")};
  Row r3 = {int64_t{2}, std::string("a")};
  std::vector<int> cols = {0, 1};
  EXPECT_LT(EncodeKey(r1, cols), EncodeKey(r2, cols));
  EXPECT_LT(EncodeKey(r2, cols), EncodeKey(r3, cols));
}

TEST(KeyEncodingTest, GoldenBytes) {
  // The encoding is persisted in images and redo; these bytes must never
  // change.
  const std::pair<Value, std::string> golden[] = {
      {Value{}, "0"},
      {Value{int64_t{0}}, std::string("i\x80\0\0\0\0\0\0\0", 9)},
      {Value{int64_t{-1}}, "i\x7f\xff\xff\xff\xff\xff\xff\xff"},
      {Value{int64_t{0x0102030405060708}},
       "i\x81\x02\x03\x04\x05\x06\x07\x08"},
      {Value{INT64_MIN}, std::string("i\0\0\0\0\0\0\0\0", 9)},
      {Value{1.0}, std::string("d\xbf\xf0\0\0\0\0\0\0", 9)},
      {Value{-2.5}, "d\x3f\xfb\xff\xff\xff\xff\xff\xff"},
      {Value{std::string()}, std::string("s\0\0", 3)},
      {Value{std::string("ab")}, std::string("sab\0\0", 5)},
      {Value{std::string("a\0b\0", 4)},
       std::string("sa\0\xff" "b\0\xff\0\0", 9)},
      {Value{std::string("\0\0", 2)}, std::string("s\0\xff\0\xff\0\0", 7)},
  };
  for (const auto& [value, bytes] : golden) {
    EXPECT_EQ(KeyOf(value), bytes) << ValueToString(value);
  }
  // Parts append to what the key already holds.
  std::string key = "p";
  EncodeKeyPart(Value{int64_t{1}}, &key);
  EncodeKeyPart(Value{std::string("\0x", 2)}, &key);
  EXPECT_EQ(key, std::string("pi\x80\0\0\0\0\0\0\x01s\0\xffx\0\0", 16));
}

TEST(KeyEncodingTest, DecodeRoundTrip) {
  const Value values[] = {Value{int64_t{-42}}, Value{3.75},
                          Value{std::string("ab\x00z", 4)}, Value{}};
  for (const Value& v : values) {
    std::string buf = KeyOf(v);
    Slice in(buf);
    Value out;
    ASSERT_TRUE(DecodeKeyPart(&in, &out).ok());
    EXPECT_EQ(CompareValues(out, v), 0);
    EXPECT_TRUE(in.empty());
  }
}

TEST(KeyEncodingTest, RandomizedIntOrderProperty) {
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    int64_t a = static_cast<int64_t>(rng.Next());
    int64_t b = static_cast<int64_t>(rng.Next());
    const std::string ka = KeyOf(a), kb = KeyOf(b);
    if (a < b) {
      EXPECT_LT(ka, kb) << a << " " << b;
    } else if (a > b) {
      EXPECT_GT(ka, kb) << a << " " << b;
    } else {
      EXPECT_EQ(ka, kb);
    }
  }
}

TEST(KeyEncodingTest, RandomizedStringOrderProperty) {
  Rng rng(43);
  for (int i = 0; i < 2000; ++i) {
    std::string a = rng.AlphaString(0, 8);
    std::string b = rng.AlphaString(0, 8);
    if (rng.Bernoulli(0.2)) a.push_back('\x00');
    if (rng.Bernoulli(0.2)) b.insert(0, 1, '\x00');
    const std::string ka = KeyOf(a), kb = KeyOf(b);
    if (a < b) {
      EXPECT_LT(ka, kb);
    } else if (a > b) {
      EXPECT_GT(ka, kb);
    } else {
      EXPECT_EQ(ka, kb);
    }
  }
}

// Key parts read in place from a row's bytes equal EncodeKeyPart of the
// decoded values, for every value type and any column order; a row that
// DecodeRow rejects, or one missing a column, appends nothing.
TEST(RowKeyPartsTest, MatchDecodedKeyParts) {
  Rng rng(47);
  std::vector<Slice> fields;
  for (int i = 0; i < 2000; ++i) {
    Row row;
    for (uint64_t n = rng.Uniform(7); n > 0; --n) {
      switch (rng.Uniform(4)) {
        case 0:
          row.emplace_back(std::monostate{});
          break;
        case 1:
          row.emplace_back(static_cast<int64_t>(rng.Next()));
          break;
        case 2:
          row.emplace_back(static_cast<double>(
                               static_cast<int64_t>(rng.Uniform(2001)) - 1000) /
                           7.0);
          break;
        default: {
          std::string str = rng.AlphaString(0, 6);
          if (rng.Bernoulli(0.3)) str.insert(rng.Uniform(str.size() + 1), 1, '\0');
          row.emplace_back(std::move(str));
        }
      }
    }
    std::vector<uint32_t> cols;
    for (uint64_t n = rng.Uniform(4); n > 0; --n) {
      cols.push_back(static_cast<uint32_t>(rng.Uniform(row.size() + 2)));
    }
    std::string bytes;
    EncodeRow(row, &bytes);
    std::string expected = "prefix";
    bool in_range = true;
    for (uint32_t col : cols) {
      if (col >= row.size()) {
        in_range = false;
        break;
      }
      EncodeKeyPart(row[col], &expected);
    }
    std::string got = "prefix";
    ASSERT_EQ(AppendRowKeyParts(bytes, cols, &fields, &got), in_range);
    EXPECT_EQ(got, in_range ? expected : "prefix");

    // Every truncation DecodeRow rejects is rejected here too.
    Row decoded;
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      const Slice cut_bytes(bytes.data(), cut);
      if (DecodeRow(cut_bytes, &decoded).ok()) continue;
      std::string none;
      EXPECT_FALSE(AppendRowKeyParts(cut_bytes, {}, &fields, &none));
      EXPECT_TRUE(none.empty());
    }
  }
  std::string none;
  EXPECT_FALSE(AppendRowKeyParts(Slice("\x01\x09", 2), {}, &fields, &none));
}

}  // namespace
}  // namespace globaldb
