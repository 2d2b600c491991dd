#include "src/common/codec.h"

#include <gtest/gtest.h>

#include <limits>

#include "src/common/rng.h"

namespace globaldb {
namespace {

TEST(CodecTest, Fixed16RoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0);
  PutFixed16(&buf, 0xbeef);
  PutFixed16(&buf, 0xffff);
  EXPECT_EQ(buf.size(), 6u);
  Slice in(buf);
  uint16_t v;
  ASSERT_TRUE(GetFixed16(&in, &v));
  EXPECT_EQ(v, 0);
  ASSERT_TRUE(GetFixed16(&in, &v));
  EXPECT_EQ(v, 0xbeef);
  ASSERT_TRUE(GetFixed16(&in, &v));
  EXPECT_EQ(v, 0xffff);
  EXPECT_FALSE(GetFixed16(&in, &v));
}

TEST(CodecTest, Fixed64RoundTrip) {
  std::string buf;
  const uint64_t kValues[] = {0, 1, 0x0102030405060708ULL,
                              std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : kValues) PutFixed64(&buf, v);
  Slice in(buf);
  for (uint64_t expected : kValues) {
    uint64_t v;
    ASSERT_TRUE(GetFixed64(&in, &v));
    EXPECT_EQ(v, expected);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodecTest, VarintBoundaries) {
  const uint64_t kValues[] = {0,     1,        127,        128,
                              16383, 16384,    (1u << 21) - 1,
                              1ULL << 35, std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : kValues) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(v));
    Slice in(buf);
    uint64_t out;
    ASSERT_TRUE(GetVarint64(&in, &out));
    EXPECT_EQ(out, v);
    EXPECT_TRUE(in.empty());
  }
  // VarintLength against the encoder on both sides of every bit width.
  for (int bits = 1; bits < 64; ++bits) {
    for (uint64_t v : {(uint64_t{1} << bits) - 1, uint64_t{1} << bits}) {
      std::string buf;
      PutVarint64(&buf, v);
      EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(v)) << v;
    }
  }
}

TEST(CodecTest, VarintTruncatedFails) {
  std::string buf;
  PutVarint64(&buf, 1ULL << 40);
  for (size_t cut = 0; cut + 1 < buf.size(); ++cut) {
    Slice in(buf.data(), cut);
    uint64_t out;
    EXPECT_FALSE(GetVarint64(&in, &out)) << "cut=" << cut;
  }
}

TEST(CodecTest, Varint32RejectsOverflow) {
  std::string buf;
  PutVarint64(&buf, 1ULL << 33);
  Slice in(buf);
  uint32_t out;
  EXPECT_FALSE(GetVarint32(&in, &out));
}

TEST(CodecTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(300, 'x'));
  Slice in(buf);
  Slice v;
  ASSERT_TRUE(GetLengthPrefixed(&in, &v));
  EXPECT_EQ(v.ToString(), "hello");
  ASSERT_TRUE(GetLengthPrefixed(&in, &v));
  EXPECT_TRUE(v.empty());
  ASSERT_TRUE(GetLengthPrefixed(&in, &v));
  EXPECT_EQ(v.size(), 300u);
  EXPECT_TRUE(in.empty());
}

TEST(CodecTest, LengthPrefixedTruncatedBodyFails) {
  std::string buf;
  PutVarint64(&buf, 10);  // claims 10 bytes
  buf += "abc";           // only 3 present
  Slice in(buf);
  Slice v;
  EXPECT_FALSE(GetLengthPrefixed(&in, &v));
}

TEST(CodecTest, ZigZag) {
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagEncode(-2), 3u);
  const int64_t kValues[] = {0, -1, 1, -1000000, 1000000,
                             std::numeric_limits<int64_t>::min(),
                             std::numeric_limits<int64_t>::max()};
  for (int64_t v : kValues) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v) << v;
    std::string buf;
    PutVarsint64(&buf, v);
    Slice in(buf);
    int64_t out;
    ASSERT_TRUE(GetVarsint64(&in, &out));
    EXPECT_EQ(out, v);
  }
}

TEST(CodecTest, RandomRoundTripProperty) {
  Rng rng(1234);
  std::string buf;
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    // Mix of magnitudes to cover all varint widths.
    uint64_t v = rng.Next() >> rng.Uniform(64);
    values.push_back(v);
    PutVarint64(&buf, v);
  }
  Slice in(buf);
  for (uint64_t expected : values) {
    uint64_t v;
    ASSERT_TRUE(GetVarint64(&in, &v));
    EXPECT_EQ(v, expected);
  }
  EXPECT_TRUE(in.empty());
}

}  // namespace
}  // namespace globaldb
