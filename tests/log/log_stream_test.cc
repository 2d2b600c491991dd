#include "src/log/log_stream.h"

#include <gtest/gtest.h>

namespace globaldb {
namespace {

Lsn AppendData(LogStream* stream, TxnId txn, const std::string& key) {
  const std::string value = "payload_" + key;
  return stream->Append(RedoRecord::Insert(txn, 1, key, value));
}

/// The records a batch payload holds, viewing `payload`.
std::vector<RedoRecord> Records(Slice payload) {
  std::vector<RedoRecord> out;
  while (!payload.empty()) {
    EXPECT_TRUE(RedoRecord::DecodeFrom(&payload, &out.emplace_back()).ok());
  }
  return out;
}

TEST(LogStreamTest, AppendAssignsDenseLsns) {
  LogStream stream;
  EXPECT_EQ(AppendData(&stream, 1, "a"), 1u);
  EXPECT_EQ(AppendData(&stream, 1, "b"), 2u);
  EXPECT_EQ(stream.Append(RedoRecord::Commit(1, 100)), 3u);
  EXPECT_EQ(stream.next_lsn(), 4u);
  EXPECT_EQ(stream.size(), 3u);
}

TEST(LogStreamTest, ReadFromCursor) {
  LogStream stream;
  for (int i = 0; i < 10; ++i) {
    AppendData(&stream, 1, "k" + std::to_string(i));
  }
  auto r = stream.Extent(4, 100, 1 << 20);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->records, 7u);
  EXPECT_EQ(r->end_lsn, 10u);
  EXPECT_EQ(r->bytes, r->payload.size());
  const std::vector<RedoRecord> records = Records(r->payload);
  ASSERT_EQ(records.size(), 7u);
  EXPECT_EQ(records[0].lsn, 4u);
  EXPECT_EQ(records[0].key, "k3");
  EXPECT_EQ(records[0].value, "payload_k3");
  EXPECT_EQ(records[6].lsn, 10u);
}

TEST(LogStreamTest, ReadRespectsMaxRecords) {
  LogStream stream;
  for (int i = 0; i < 10; ++i) AppendData(&stream, 1, "k");
  auto r = stream.Extent(1, 3, 1 << 20);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->records, 3u);
  EXPECT_EQ(r->end_lsn, 3u);
  EXPECT_EQ(Records(r->payload).size(), 3u);
}

TEST(LogStreamTest, ReadRespectsMaxBytesButReturnsAtLeastOne) {
  LogStream stream;
  const std::string value(1000, 'x');
  for (int i = 0; i < 5; ++i) {
    stream.Append(RedoRecord::Insert(1, 1, "key", value));
  }
  auto r = stream.Extent(1, 100, 1);  // 1 byte budget
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->records, 1u);
  EXPECT_EQ(Records(r->payload).size(), 1u);
  auto r2 = stream.Extent(1, 100, 2500);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->records, 2u);
  EXPECT_EQ(Records(r2->payload).size(), 2u);
}

TEST(LogStreamTest, ReadPastEndIsEmpty) {
  LogStream stream;
  AppendData(&stream, 1, "a");
  auto r = stream.Extent(5, 10, 1000);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->records, 0u);
  EXPECT_EQ(r->bytes, 0u);
  EXPECT_TRUE(r->payload.empty());
}

TEST(LogStreamTest, TruncationDropsPrefixAndRejectsOldReads) {
  LogStream stream;
  for (int i = 0; i < 10; ++i) AppendData(&stream, 1, "k");
  stream.TruncateUntil(6);
  EXPECT_EQ(stream.begin_lsn(), 6u);
  EXPECT_EQ(stream.size(), 5u);
  EXPECT_FALSE(stream.Extent(3, 10, 1000).ok());
  auto r = stream.Extent(6, 10, 1 << 20);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->records, 5u);
  const std::vector<RedoRecord> records = Records(r->payload);
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records.front().lsn, 6u);
  // New appends continue the LSN sequence.
  EXPECT_EQ(AppendData(&stream, 2, "z"), 11u);
}

TEST(LogStreamTest, AtFetchesSingleRecord) {
  LogStream stream;
  AppendData(&stream, 1, "a");
  AppendData(&stream, 2, "b");
  auto r = stream.Extent(2, 1, 0);
  ASSERT_TRUE(r.ok());
  const std::vector<RedoRecord> records = Records(r->payload);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].txn_id, 2u);
  EXPECT_EQ(records[0].lsn, 2u);
  EXPECT_EQ(stream.Extent(3, 1, 0)->records, 0u);
  EXPECT_FALSE(stream.Extent(0, 1, 0).ok());
}

TEST(LogStreamTest, BatchRoundTripUncompressed) {
  LogStream stream;
  for (int i = 0; i < 20; ++i) {
    AppendData(&stream, i, "key" + std::to_string(i));
  }
  auto extent = stream.Extent(1, 100, 1 << 20);
  ASSERT_TRUE(extent.ok());
  std::string batch;
  LogStream::EncodeBatch(extent->payload, CompressionType::kNone, &batch);
  EXPECT_EQ(batch.size(), 1 + extent->bytes);
  std::string scratch;
  std::vector<RedoRecord> decoded;
  ASSERT_TRUE(LogStream::DecodeBatch(batch, &scratch, &decoded).ok());
  EXPECT_EQ(decoded, Records(extent->payload));
  EXPECT_EQ(decoded.size(), 20u);
}

TEST(LogStreamTest, BatchRoundTripCompressedIsSmaller) {
  LogStream stream;
  for (int i = 0; i < 50; ++i) {
    const std::string key = "warehouse_key_" + std::to_string(i % 3);
    const std::string value =
        "customer_payload_field_repeated_content_" + std::to_string(i % 3);
    stream.Append(RedoRecord::Insert(i, 1, key, value));
  }
  auto extent = stream.Extent(1, 100, 1 << 20);
  ASSERT_TRUE(extent.ok());
  std::string raw;
  std::string lz;
  LogStream::EncodeBatch(extent->payload, CompressionType::kNone, &raw);
  LogStream::EncodeBatch(extent->payload, CompressionType::kLz, &lz);
  EXPECT_LT(lz.size(), raw.size() / 2);
  std::string scratch;
  std::vector<RedoRecord> decoded;
  ASSERT_TRUE(LogStream::DecodeBatch(lz, &scratch, &decoded).ok());
  EXPECT_EQ(decoded, Records(extent->payload));
  EXPECT_EQ(decoded.size(), 50u);
}

TEST(LogStreamTest, CompressedBatchFallsBackWhenIncompressible) {
  // A single tiny record may not compress; the batch must still decode.
  LogStream stream;
  stream.Append(RedoRecord::Abort(1));
  auto extent = stream.Extent(1, 1, 0);
  ASSERT_TRUE(extent.ok());
  std::string batch;
  LogStream::EncodeBatch(extent->payload, CompressionType::kLz, &batch);
  EXPECT_EQ(batch[0], static_cast<char>(CompressionType::kNone));
  std::string scratch;
  std::vector<RedoRecord> decoded;
  ASSERT_TRUE(LogStream::DecodeBatch(batch, &scratch, &decoded).ok());
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].type, RedoType::kAbort);
  EXPECT_EQ(decoded[0].lsn, 1u);
}

TEST(LogStreamTest, DecodeBatchRejectsGarbage) {
  std::string scratch;
  std::vector<RedoRecord> decoded;
  EXPECT_FALSE(LogStream::DecodeBatch("", &scratch, &decoded).ok());
  EXPECT_FALSE(LogStream::DecodeBatch("\x07garbage", &scratch, &decoded).ok());
  std::string bad;
  bad.push_back(static_cast<char>(CompressionType::kNone));
  bad += "\xff\xff\xff";
  EXPECT_FALSE(LogStream::DecodeBatch(bad, &scratch, &decoded).ok());
}

TEST(LogStreamTest, TotalBytesAccumulates) {
  LogStream stream;
  EXPECT_EQ(stream.total_bytes(), 0u);
  AppendData(&stream, 1, "a");
  const uint64_t after_one = stream.total_bytes();
  EXPECT_GT(after_one, 0u);
  AppendData(&stream, 1, "b");
  EXPECT_GT(stream.total_bytes(), after_one);
}

}  // namespace
}  // namespace globaldb
