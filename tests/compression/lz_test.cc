#include "src/compression/lz.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "src/common/codec.h"
#include "src/common/hash.h"
#include "src/common/rng.h"

namespace globaldb {
namespace {

std::string RoundTrip(const std::string& input) {
  std::string compressed;
  LzCodec::Compress(input, &compressed);
  std::string output;
  Status s = LzCodec::Decompress(compressed, &output);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return output;
}

TEST(LzCodecTest, EmptyInput) {
  EXPECT_EQ(RoundTrip(""), "");
}

TEST(LzCodecTest, TinyInputs) {
  for (const std::string s : {"a", "ab", "abc", "abcd", "abcde"}) {
    EXPECT_EQ(RoundTrip(s), s);
  }
}

TEST(LzCodecTest, IncompressibleSurvives) {
  Rng rng(77);
  std::string s;
  for (int i = 0; i < 10000; ++i) {
    s.push_back(static_cast<char>(rng.Next() & 0xff));
  }
  EXPECT_EQ(RoundTrip(s), s);
}

TEST(LzCodecTest, RepetitiveCompressesWell) {
  std::string s;
  for (int i = 0; i < 1000; ++i) s += "warehouse_row_payload_";
  std::string compressed;
  LzCodec::Compress(s, &compressed);
  EXPECT_LT(compressed.size(), s.size() / 5);
  std::string out;
  ASSERT_TRUE(LzCodec::Decompress(compressed, &out).ok());
  EXPECT_EQ(out, s);
}

TEST(LzCodecTest, RunLengthOverlappingMatch) {
  // Overlapping copies (offset < match length) exercise the byte-wise copy.
  std::string s(100000, 'x');
  std::string compressed;
  LzCodec::Compress(s, &compressed);
  EXPECT_LT(compressed.size(), 600u);
  std::string out;
  ASSERT_TRUE(LzCodec::Decompress(compressed, &out).ok());
  EXPECT_EQ(out, s);
}

TEST(LzCodecTest, LongLiteralRunExtendedLength) {
  // >15 literals forces the extended literal-length path.
  Rng rng(78);
  std::string s;
  for (int i = 0; i < 500; ++i) {
    s.push_back(static_cast<char>(rng.Next() & 0xff));
  }
  EXPECT_EQ(RoundTrip(s), s);
}

TEST(LzCodecTest, MixedContent) {
  Rng rng(79);
  std::string s;
  for (int block = 0; block < 50; ++block) {
    if (rng.Bernoulli(0.5)) {
      s += "commit_record:txn=" + std::to_string(rng.Uniform(100)) +
           ";table=orders;";
    } else {
      s += rng.AlphaString(5, 60);
    }
  }
  EXPECT_EQ(RoundTrip(s), s);
}

TEST(LzCodecTest, DecompressRejectsTruncation) {
  std::string s;
  for (int i = 0; i < 100; ++i) s += "abcdefgh";
  std::string compressed;
  LzCodec::Compress(s, &compressed);
  for (size_t cut : {size_t{0}, compressed.size() / 2, compressed.size() - 1}) {
    std::string out;
    Status st = LzCodec::Decompress(Slice(compressed.data(), cut), &out);
    EXPECT_FALSE(st.ok()) << "cut=" << cut;
  }
}

TEST(LzCodecTest, DecompressRejectsBadOffset) {
  // Hand-craft a block whose match offset points before the start.
  std::string block;
  PutVarint64(&block, 8);  // claims 8 bytes output
  block.push_back(static_cast<char>((1 << 4) | 0));  // 1 literal, match len 4
  block.push_back('a');
  PutFixed16(&block, 500);  // offset 500 into 1 byte of output: invalid
  std::string out;
  EXPECT_FALSE(LzCodec::Decompress(block, &out).ok());
}

TEST(LzCodecTest, RandomizedPropertyRoundTrip) {
  Rng rng(80);
  for (int iter = 0; iter < 200; ++iter) {
    std::string s;
    const int segments = static_cast<int>(rng.Uniform(20));
    for (int i = 0; i < segments; ++i) {
      switch (rng.Uniform(3)) {
        case 0:
          s.append(rng.Uniform(100), static_cast<char>('a' + rng.Uniform(26)));
          break;
        case 1:
          s += rng.AlphaString(0, 50);
          break;
        case 2: {
          // Repeat a previous chunk to create long-range matches.
          if (!s.empty()) {
            size_t start = rng.Uniform(s.size());
            size_t len = rng.Uniform(s.size() - start + 1);
            s += s.substr(start, len);
          }
          break;
        }
      }
    }
    EXPECT_EQ(RoundTrip(s), s) << "iter=" << iter;
  }
}

/// Back-to-back inputs for the golden test, in the order they are
/// compressed: sizes rise and fall, so each call meets a match table full
/// of an earlier, larger input's entries.
std::vector<std::string> GoldenInputs() {
  Rng rng(20240601);
  const auto random_bytes = [&rng](size_t n) {
    std::string s;
    for (size_t i = 0; i < n; ++i) {
      s.push_back(static_cast<char>(rng.Next() & 0xff));
    }
    return s;
  };
  // Redo-like records: a fixed header, a rising key and a short value.
  std::string records;
  for (int i = 0; i < 120; ++i) {
    records += "\x01\x07order_line|";
    records += "key-" + std::to_string(100000 + 7 * i);
    records += "|val=" + std::to_string(rng.Uniform(1000));
  }
  // Over 64 KB: words from a small vocabulary with random separators, so
  // some repeats lie beyond the 65535-byte match offset.
  const char* const kWords[] = {"warehouse", "district", "customer",
                                "stock",     "item",     "new_order"};
  std::string large;
  while (large.size() < 200000) {
    large += kWords[rng.Uniform(6)];
    large.push_back(static_cast<char>('0' + rng.Uniform(10)));
  }
  const std::string block = random_bytes(1024);
  std::string repeated;
  while (repeated.size() < 70000) repeated += block;
  std::string runs = std::string(5000, 'a') + std::string(300, 'b') +
                     std::string(17, '\0') + std::string(4000, 'a');
  return {records,
          random_bytes(10000),
          runs,
          "abcde",
          "",
          large,
          std::string(17, 'z'),
          records,
          repeated,
          random_bytes(300),
          runs.substr(0, 600),
          large.substr(1000, 70000)};
}

// The compressed bytes go on the simulated wire, so they are pinned: each
// input's output size and Hash64, recorded from the encoder that allocated
// a fresh match table for every call. The reused table must give the same
// bytes, whatever earlier calls left in it.
TEST(LzGoldenTest, BackToBackOutputsMatchTheFixedEncoder) {
  struct Golden {
    size_t input_size;
    size_t output_size;
    uint64_t output_hash;
  };
  const Golden kGolden[] = {
      {3702, 1219, 0x887fb2c456541ae3ULL},
      {10000, 10005, 0x8f69929927fe537bULL},
      {9317, 23, 0x3cedaacdb7b16113ULL},
      {5, 7, 0x7ba36cb664f0680fULL},
      {0, 1, 0x9add34c773d586d7ULL},
      {200003, 72554, 0xbeb9dd48ccabf08cULL},
      {17, 5, 0x046f7a65245e895fULL},
      {3702, 1219, 0x887fb2c456541ae3ULL},
      {70656, 1035, 0xef541ae2add713e6ULL},
      {300, 305, 0x1b7f3bab6f0d5ce1ULL},
      {600, 8, 0x52ae3793f33855b0ULL},
      {70000, 25467, 0x2db2047d177f9318ULL},
  };
  const std::vector<std::string> inputs = GoldenInputs();
  ASSERT_EQ(inputs.size(), std::size(kGolden));
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      SCOPED_TRACE(i);
      std::string out;
      LzCodec::Compress(inputs[i], &out);
      EXPECT_EQ(inputs[i].size(), kGolden[i].input_size);
      EXPECT_EQ(out.size(), kGolden[i].output_size);
      EXPECT_EQ(Hash64(out), kGolden[i].output_hash);
      std::string back;
      ASSERT_TRUE(LzCodec::Decompress(out, &back).ok());
      EXPECT_EQ(back, inputs[i]);
    }
  }
}

}  // namespace
}  // namespace globaldb
