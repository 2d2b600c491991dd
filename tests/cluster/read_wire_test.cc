// Wire compatibility of the read replies. ScanBatchReply and ReadBatchReply
// carry rows as views (into table versions on the server, into the received
// envelope on the client), but their bytes on the wire must stay exactly
// those of the earlier owning encoders: simulated transfer times depend on
// every byte. The expected bytes below were produced by the owning encoders
// and are hard-coded, so any drift in layout fails here.

#include <gtest/gtest.h>

#include <string>

#include "src/cluster/messages.h"
#include "src/rpc/wire.h"

namespace globaldb {
namespace {

// The strings every fixture view points into.
const std::string kResumeKey("b\x00\x07z", 4);
const std::string kLongScanValue(130, 'x');
const std::string kLongReadValue(130, 'y');
const std::string kLine1Key("ol\x01", 3);
const std::string kLine2Key("ol\x02", 3);

/// A truncated chunk resuming at range 2 with a binary resume key; range 0
/// is empty, range 1 hit its limit and carries point-join rows (one with an
/// empty value), range 2 carries a two-byte-length value and prefix-join
/// rows, range 3 was never started.
ScanBatchReply ScanFixture() {
  ScanBatchReply r;
  r.truncated = true;
  r.resume_range = 2;
  r.resume_key = kResumeKey;
  r.results.resize(4);
  r.results[1].limit_hit = true;
  r.results[1].rows = {{"a1", "row-a1"}, {"a2", ""}};
  r.results[1].joined = {{"s1", "stock-1"}, {"s2", "stock-2"}};
  r.results[2].rows = {{"b0", kLongScanValue}};
  r.results[2].joined = {{kLine1Key, "line-1"}, {kLine2Key, "line-2"}};
  return r;
}

std::string ScanFixtureBytes() {
  return std::string(
             "\x01\x02\x04\x62\x00\x07\x7a\x04\x00\x00\x00\x01\x02\x02\x61\x31"
             "\x06\x72\x6f\x77\x2d\x61\x31\x02\x61\x32\x00\x02\x02\x73\x31\x07"
             "\x73\x74\x6f\x63\x6b\x2d\x31\x02\x73\x32\x07\x73\x74\x6f\x63\x6b"
             "\x2d\x32\x00\x01\x02\x62\x30\x82\x01",
             57) +
         std::string(130, 'x') +
         std::string(
             "\x02\x03\x6f\x6c\x01\x06\x6c\x69\x6e\x65\x2d\x31\x03\x6f\x6c\x02"
             "\x06\x6c\x69\x6e\x65\x2d\x32\x00\x00\x00",
             26);
}

/// Found, missing, a lock timeout carrying its message, and a value with a
/// two-byte length.
ReadBatchReply ReadFixture() {
  ReadBatchReply r;
  r.results.resize(4);
  r.results[0].found = true;
  r.results[0].value = "v1";
  r.results[2].code = StatusCode::kTimedOut;
  r.results[2].message = "lock wait timeout";
  r.results[3].found = true;
  r.results[3].value = kLongReadValue;
  return r;
}

std::string ReadFixtureBytes() {
  return std::string(
             "\x04\x00\x00\x01\x02\x76\x31\x00\x00\x00\x00\x07\x11\x6c\x6f\x63"
             "\x6b\x20\x77\x61\x69\x74\x20\x74\x69\x6d\x65\x6f\x75\x74\x00\x00"
             "\x00\x00\x01\x82\x01",
             37) +
         std::string(130, 'y');
}

TEST(ReadWireTest, ScanBatchReplyBytesMatchOwningEncoder) {
  std::string bytes;
  ScanFixture().EncodeTo(&bytes);
  EXPECT_EQ(bytes, ScanFixtureBytes());
  EXPECT_EQ(rpc::EncodeOk(ScanFixture()).envelope, "\x01" + ScanFixtureBytes());
}

TEST(ReadWireTest, ReadBatchReplyBytesMatchOwningEncoder) {
  // The handlers' streaming form: count first, then each entry as it is
  // resolved.
  const ReadBatchReply fixture = ReadFixture();
  std::string bytes;
  ReadBatchReply::PutCount(&bytes, fixture.results.size());
  for (const auto& entry : fixture.results) {
    ReadBatchReply::PutEntry(&bytes, entry);
  }
  EXPECT_EQ(bytes, ReadFixtureBytes());
}

TEST(ReadWireTest, DecodedRepliesViewTheSameBytes) {
  auto scan = rpc::DecodeEnvelope<ScanBatchReply>("\x01" + ScanFixtureBytes());
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->truncated);
  EXPECT_EQ(scan->resume_range, 2u);
  EXPECT_EQ(scan->resume_key, kResumeKey);
  ASSERT_EQ(scan->results.size(), 4u);
  EXPECT_TRUE(scan->results[0].rows.empty());
  EXPECT_TRUE(scan->results[1].limit_hit);
  ASSERT_EQ(scan->results[1].rows.size(), 2u);
  EXPECT_EQ(scan->results[1].rows[1].key, "a2");
  EXPECT_TRUE(scan->results[1].rows[1].value.empty());
  ASSERT_EQ(scan->results[2].joined.size(), 2u);
  EXPECT_EQ(scan->results[2].joined[1].key, kLine2Key);
  EXPECT_EQ(scan->results[2].rows[0].value, kLongScanValue);
  std::string reencoded;
  scan->EncodeTo(&reencoded);
  EXPECT_EQ(reencoded, ScanFixtureBytes());

  auto read = rpc::DecodeEnvelope<ReadBatchReply>("\x01" + ReadFixtureBytes());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->results.size(), 4u);
  EXPECT_EQ(read->results[0].value, "v1");
  EXPECT_FALSE(read->results[1].found);
  EXPECT_EQ(read->results[2].ToStatus().code(), StatusCode::kTimedOut);
  EXPECT_EQ(read->results[2].message, "lock wait timeout");
  EXPECT_EQ(read->results[3].value, kLongReadValue);
}

TEST(ReadWireTest, TruncatedEnvelopesAreCorruption) {
  const std::string scan = "\x01" + ScanFixtureBytes();
  const std::string read = "\x01" + ReadFixtureBytes();
  for (size_t cut : {size_t{1}, size_t{5}, size_t{40}, scan.size() - 1}) {
    auto r = rpc::DecodeEnvelope<ScanBatchReply>(scan.substr(0, cut));
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << "cut at " << cut;
  }
  for (size_t cut : {size_t{1}, size_t{12}, read.size() - 1}) {
    auto r = rpc::DecodeEnvelope<ReadBatchReply>(read.substr(0, cut));
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << "cut at " << cut;
  }
}

}  // namespace
}  // namespace globaldb
