// Golden bytes of a shipped redo batch and the boundaries LogStream::Extent
// draws. A batch is one framing byte, then the concatenated record
// encodings: LZ-compressed (framing byte 1) when that shrinks them, raw
// (framing byte 0) otherwise. The simulated network charges transfer delay
// per byte and replicas decode exactly these bytes, so the expected bytes
// and boundaries below are hard-coded; they were produced by the encoder
// that kept every record as owning strings and re-encoded them per batch.

#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/log/log_stream.h"
#include "src/rpc/fields.h"

namespace globaldb {
namespace {

constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();

// --- The log API under test ---------------------------------------------------

/// The framed batch of the `records` records starting at `from`.
std::string Framed(const LogStream& log, Lsn from, size_t records,
                   CompressionType compression) {
  auto extent = log.Extent(from, records, kNoLimit);
  EXPECT_TRUE(extent.ok());
  EXPECT_EQ(extent->records, records);
  std::string framed;
  LogStream::EncodeBatch(extent->payload, compression, &framed);
  return framed;
}

/// The unframed payload of the batch Extent(from, max_records, max_bytes)
/// bounds.
std::string Payload(const LogStream& log, Lsn from, size_t max_records,
                    size_t max_bytes) {
  auto extent = log.Extent(from, max_records, max_bytes);
  EXPECT_TRUE(extent.ok());
  return extent->payload.ToString();
}

// --- The fixed record set -----------------------------------------------------

const std::string kLongValue(130, 'v');
const std::string kDdlPayload("CREATE\x00t", 8);
const std::string kParticipants = rpc::Encode(std::vector<ShardId>{0, 2, 300});

/// One record of every RedoType, with empty keys and values, a value of 128
/// bytes or more, a DDL payload and a PREPARE participant list. LSNs 1-14.
void AppendRecordSet(LogStream* log) {
  log->Append(RedoRecord::Insert(7, 3, "k1", "v1"));
  log->Append(RedoRecord::Insert(7, 3, "", ""));
  log->Append(RedoRecord::Update(7, 3, "k1", kLongValue));
  log->Append(RedoRecord::Delete(8, 300, ""));
  RedoRecord pending = RedoRecord::PendingCommit(7);
  pending.timestamp = 990;
  log->Append(pending);
  log->Append(RedoRecord::Commit(7, 1000));
  log->Append(RedoRecord::Abort(8));
  RedoRecord prepare = RedoRecord::Prepare(9, kParticipants);
  prepare.timestamp = 1500;
  log->Append(prepare);
  log->Append(RedoRecord::CommitPrepared(9, 2000));
  log->Append(RedoRecord::Prepare(10));
  log->Append(RedoRecord::AbortPrepared(10));
  log->Append(RedoRecord::Heartbeat(1ull << 40));
  log->Append(RedoRecord::Ddl(3001, kDdlPayload));
  log->Append(RedoRecord::Checkpoint(2500));
}

std::string Hex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

std::string ToHex(std::string_view bytes) {
  std::string out;
  char buf[3];
  for (char c : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", static_cast<unsigned char>(c));
    out += buf;
  }
  return out;
}

/// The raw encodings of LSNs 1-14, in order.
std::string RecordSetPayload() {
  return Hex("0101070003026b31027631") +              // INSERT k1 v1
         Hex("01020700030000") +                      // INSERT "" ""
         Hex("0203070003026b318201") + kLongValue +   // UPDATE k1 long
         Hex("03040800ac020000") +                    // DELETE ""
         Hex("040507de07000000") +                    // PENDING_COMMIT
         Hex("050607e807000000") +                    // COMMIT
         Hex("06070800000000") +                      // ABORT
         Hex("070809dc0b000005030002ac02") +          // PREPARE {0, 2, 300}
         Hex("080909d00f000000") +                    // COMMIT_PREPARED
         Hex("070a0a00000000") +                      // PREPARE
         Hex("090b0a00000000") +                      // ABORT_PREPARED
         Hex("0a0c00808080808020000000") +            // HEARTBEAT
         Hex("0b0d00b9170000084352454154450074") +    // DDL
         Hex("0c0e00c413000000");                     // CHECKPOINT
}

TEST(RedoBatchWireTest, RawBatchBytesMatchGolden) {
  LogStream log;
  AppendRecordSet(&log);
  const std::string framed = Framed(log, 1, 14, CompressionType::kNone);
  EXPECT_EQ(ToHex(framed), ToHex(Hex("00") + RecordSetPayload()));
}

TEST(RedoBatchWireTest, LzBatchBytesMatchGolden) {
  LogStream log;
  AppendRecordSet(&log);
  const std::string framed = Framed(log, 1, 14, CompressionType::kLz);
  EXPECT_EQ(ToHex(framed),
            "018402f2050101070003026b3102763101020700030000020312003f8201"
            "7601006ef00503040800ac020000040507de07000000050607e80800f00a"
            "06070800000000070809dc0b000005030002ac02080909d00f1500200a0a"
            "1c0021090b0700400a0c00800100f00d200000000b0d00b9170000084352"
            "4541544500740c0e00c413000000");
  // LZ framing: the uncompressed size (260) leads the compressed block.
  EXPECT_EQ(framed.substr(0, 3), Hex("018402"));
}

TEST(RedoBatchWireTest, LzFallsBackToRawWhenItExpands) {
  LogStream log;
  AppendRecordSet(&log);
  // ABORT alone: seven bytes that LZ cannot shrink.
  const std::string framed = Framed(log, 7, 1, CompressionType::kLz);
  EXPECT_EQ(ToHex(framed), "0006070800000000");
  EXPECT_EQ(framed, Framed(log, 7, 1, CompressionType::kNone));
  // Nor does the 35-byte run PREPARE .. ABORT_PREPARED.
  EXPECT_EQ(ToHex(Framed(log, 8, 4, CompressionType::kLz)),
            "00070809dc0b000005030002ac02080909d00f000000070a0a00000000090b"
            "0a00000000");
}

/// Encoded sizes of LSNs 1-14.
constexpr size_t kSizes[] = {11, 7, 140, 8, 8, 8, 7, 13, 8, 7, 7, 12, 16, 8};

size_t OffsetOf(Lsn lsn) {
  size_t offset = 0;
  for (Lsn l = 1; l < lsn; ++l) offset += kSizes[l - 1];
  return offset;
}

TEST(RedoBatchWireTest, RecordSizesMatchGolden) {
  EXPECT_EQ(OffsetOf(15), RecordSetPayload().size());
  LogStream log;
  AppendRecordSet(&log);
  EXPECT_EQ(log.total_bytes(), RecordSetPayload().size());
  EXPECT_EQ(log.retained_bytes(), RecordSetPayload().size());
}

struct Bound {
  Lsn from;
  size_t max_records;
  size_t max_bytes;
  // The extent Extent(from, max_records, max_bytes) must give.
  size_t records;
  Lsn end_lsn;
  size_t bytes;
};

void ExpectBound(const LogStream& log, const Bound& b) {
  SCOPED_TRACE("from=" + std::to_string(b.from) +
               " max_records=" + std::to_string(b.max_records) +
               " max_bytes=" + std::to_string(b.max_bytes));
  auto extent = log.Extent(b.from, b.max_records, b.max_bytes);
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent->records, b.records);
  EXPECT_EQ(extent->bytes, b.bytes);
  if (b.records > 0) {
    EXPECT_EQ(extent->end_lsn, b.end_lsn);
  }
  const std::string payload =
      Payload(log, b.from, b.max_records, b.max_bytes);
  EXPECT_EQ(payload,
            b.records == 0 ? std::string()
                           : RecordSetPayload().substr(OffsetOf(b.from),
                                                       b.bytes));
}

TEST(RedoBatchWireTest, ExtentBoundariesMatchGolden) {
  LogStream log;
  AppendRecordSet(&log);
  const Bound kBounds[] = {
      {1, 100, kNoLimit, 14, 14, 260},  // the whole log
      {1, 14, 260, 14, 14, 260},        // a budget that fits exactly
      {1, 14, 259, 13, 13, 252},        // one byte short drops the last
      {1, 3, kNoLimit, 3, 3, 158},      // the record cap
      {1, 100, 1, 1, 1, 11},            // at least one record
      {3, 100, 0, 1, 3, 140},           // an oversized record ships alone
      {1, 100, 157, 2, 2, 18},          // stops before the long value
      {1, 100, 158, 3, 3, 158},
      {4, 5, 40, 4, 7, 31},
      {4, 5, 44, 5, 8, 44},
      {14, 100, 1, 1, 14, 8},           // the last record
      {15, 100, kNoLimit, 0, 0, 0},     // at the tail
      {20, 100, kNoLimit, 0, 0, 0},     // past the tail
      {1, 0, kNoLimit, 0, 0, 0},        // a zero record cap
  };
  for (const Bound& b : kBounds) ExpectBound(log, b);
}

TEST(RedoBatchWireTest, ExtentAfterTruncation) {
  LogStream log;
  AppendRecordSet(&log);
  log.TruncateUntil(5);
  EXPECT_EQ(log.begin_lsn(), 5u);
  EXPECT_EQ(log.retained_bytes(), 260u - OffsetOf(5));
  EXPECT_FALSE(log.Extent(4, 100, kNoLimit).ok());
  const Bound kBounds[] = {
      {5, 100, 30, 3, 7, 23},
      {5, 100, kNoLimit, 10, 14, 260 - OffsetOf(5)},
      {14, 1, 0, 1, 14, 8},
  };
  for (const Bound& b : kBounds) ExpectBound(log, b);
  // Truncating everything keeps the LSN sequence and the lifetime bytes.
  log.TruncateUntil(100);
  EXPECT_EQ(log.begin_lsn(), 15u);
  EXPECT_EQ(log.retained_bytes(), 0u);
  EXPECT_EQ(log.total_bytes(), 260u);
  ExpectBound(log, {15, 100, kNoLimit, 0, 0, 0});
  EXPECT_EQ(log.Append(RedoRecord::Abort(8)), 15u);
  auto extent = log.Extent(15, 100, kNoLimit);
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent->records, 1u);
  EXPECT_EQ(extent->end_lsn, 15u);
  EXPECT_EQ(Payload(log, 15, 100, kNoLimit), Hex("060f0800000000"));
}

/// A random record: any type, binary keys and values of any length (some
/// repetitive, so LZ finds matches), small and large integers.
RedoRecord RandomRecord(Rng* rng, std::string* key, std::string* value) {
  auto bytes = [rng](std::string* out, size_t max_len) {
    out->clear();
    const size_t n = rng->Uniform(max_len + 1);
    const bool repetitive = rng->Uniform(2) == 0;
    for (size_t i = 0; i < n; ++i) {
      out->push_back(repetitive ? static_cast<char>('a' + i % 3)
                                : static_cast<char>(rng->Next() & 0xff));
    }
  };
  bytes(key, 24);
  bytes(value, rng->Uniform(4) == 0 ? 400 : 40);
  RedoRecord r = RedoRecord::Insert(rng->Next() >> rng->Uniform(64), 0,
                                    *key, *value);
  r.type = static_cast<RedoType>(1 + rng->Uniform(12));
  r.timestamp = rng->Next() >> rng->Uniform(64);
  r.table_id = static_cast<TableId>(rng->Next() >> (32 + rng->Uniform(32)));
  return r;
}

// The log's payload is always the concatenated rpc::EncodeTo of its
// records, and Extent draws the boundaries a per-record walk would, over
// random appends and truncations.
TEST(RedoBatchWireTest, PayloadIsConcatenatedRecordEncodings) {
  Rng rng(26);
  LogStream log;
  std::deque<std::string> model;  // encodings of the retained records
  Lsn model_begin = 1;
  uint64_t model_total = 0;
  std::string key;
  std::string value;
  for (int step = 0; step < 3000; ++step) {
    const uint64_t op = rng.Uniform(10);
    if (op < 6) {
      RedoRecord r = RandomRecord(&rng, &key, &value);
      r.lsn = model_begin + model.size();
      model.push_back(rpc::Encode(r));
      model_total += model.back().size();
      ASSERT_EQ(log.Append(r), r.lsn);
    } else if (op < 7) {
      const Lsn until = model_begin + rng.Uniform(model.size() + 3);
      log.TruncateUntil(until);
      while (model_begin < until && !model.empty()) {
        model.pop_front();
        ++model_begin;
      }
    } else {
      const Lsn from = model_begin + rng.Uniform(model.size() + 2);
      const size_t max_records = rng.Uniform(40);
      const size_t max_bytes =
          rng.Uniform(4) == 0 ? kNoLimit : rng.Uniform(3000);
      // The reference walk: at least one record, at most max_records, and
      // a stop before the record that would exceed max_bytes.
      size_t records = 0;
      size_t bytes = 0;
      std::string expected;
      for (Lsn lsn = from;
           lsn < model_begin + model.size() && records < max_records; ++lsn) {
        const std::string& enc = model[lsn - model_begin];
        if (records > 0 && bytes + enc.size() > max_bytes) break;
        ++records;
        bytes += enc.size();
        expected += enc;
      }
      auto extent = log.Extent(from, max_records, max_bytes);
      ASSERT_TRUE(extent.ok());
      ASSERT_EQ(extent->records, records) << "step " << step;
      ASSERT_EQ(extent->bytes, bytes) << "step " << step;
      if (records > 0) {
        ASSERT_EQ(extent->end_lsn, from + records - 1);
      }
      ASSERT_EQ(Payload(log, from, max_records, max_bytes), expected)
          << "step " << step;
    }
    uint64_t retained = 0;
    for (const std::string& enc : model) retained += enc.size();
    ASSERT_EQ(log.begin_lsn(), model_begin);
    ASSERT_EQ(log.next_lsn(), model_begin + model.size());
    ASSERT_EQ(log.size(), model.size());
    ASSERT_EQ(log.retained_bytes(), retained);
    ASSERT_EQ(log.total_bytes(), model_total);
  }
}

}  // namespace
}  // namespace globaldb
