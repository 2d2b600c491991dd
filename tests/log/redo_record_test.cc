#include "src/log/redo_record.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/rpc/fields.h"

namespace globaldb {
namespace {

TEST(RedoRecordTest, EncodeDecodeRoundTripAllTypes) {
  std::vector<RedoRecord> records = {
      RedoRecord::Insert(7, 3, "key1", "value1"),
      RedoRecord::Update(7, 3, "key1", "value2"),
      RedoRecord::Delete(8, 4, "key2"),
      RedoRecord::PendingCommit(7),
      RedoRecord::Commit(7, 1234567),
      RedoRecord::Abort(8),
      RedoRecord::Prepare(9),
      RedoRecord::CommitPrepared(9, 1234999),
      RedoRecord::AbortPrepared(10),
      RedoRecord::Heartbeat(2000000),
      RedoRecord::Ddl(2000001, "CREATE TABLE t"),
  };
  for (size_t i = 0; i < records.size(); ++i) records[i].lsn = i + 1;

  std::string buf;
  for (const auto& r : records) rpc::EncodeTo(r, &buf);

  Slice in(buf);
  for (const auto& expected : records) {
    RedoRecord got;
    ASSERT_TRUE(RedoRecord::DecodeFrom(&in, &got).ok());
    EXPECT_EQ(got, expected) << "type " << static_cast<int>(expected.type);
  }
  EXPECT_TRUE(in.empty());
}

TEST(RedoRecordTest, EncodedSizeMatchesActual) {
  RedoRecord r = RedoRecord::Insert(123456, 17, "some_key", "some_value");
  r.lsn = 99;
  std::string buf;
  rpc::EncodeTo(r, &buf);
  EXPECT_EQ(buf.size(), rpc::EncodedSize(r));
}

TEST(RedoRecordTest, DecodeRejectsBadType) {
  std::string buf = "\xff junk";
  Slice in(buf);
  RedoRecord r;
  EXPECT_FALSE(RedoRecord::DecodeFrom(&in, &r).ok());
}

TEST(RedoRecordTest, DecodeRejectsTruncation) {
  RedoRecord r = RedoRecord::Insert(1, 2, "key", "value");
  std::string buf;
  rpc::EncodeTo(r, &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    Slice in(buf.data(), cut);
    RedoRecord out;
    EXPECT_FALSE(RedoRecord::DecodeFrom(&in, &out).ok()) << "cut=" << cut;
  }
}

TEST(RedoRecordTest, BinaryKeyAndValueSurvive) {
  std::string key("\x00\x01\xff\x7f", 4);
  std::string value;
  Rng rng(5);
  for (int i = 0; i < 256; ++i) value.push_back(static_cast<char>(i));
  RedoRecord r = RedoRecord::Insert(1, 1, key, value);
  std::string buf;
  rpc::EncodeTo(r, &buf);
  Slice in(buf);
  RedoRecord out;
  ASSERT_TRUE(RedoRecord::DecodeFrom(&in, &out).ok());
  EXPECT_EQ(out.key, key);
  EXPECT_EQ(out.value, value);
}

}  // namespace
}  // namespace globaldb
