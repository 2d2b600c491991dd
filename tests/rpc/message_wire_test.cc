// Golden wire bytes of every RPC message type, the redo record and the
// PREPARE participant list. The simulated network charges transfer delay per
// byte and the redo log's retained-byte accounting counts encoded bytes, so
// the layouts must not drift. The expected bytes below were produced by the
// hand-written per-message encoders that preceded the shared field codec
// (src/rpc/fields.h) and are hard-coded. Each case also pins which strict
// prefixes of its encoding decode (only a bare batch tail accepts a cut;
// every other message rejects truncation), that trailing bytes are ignored,
// and that decoding and re-encoding reproduces the bytes.
// ReadBatchReply and ScanBatchReply, which carry views, are pinned by
// tests/cluster/read_wire_test.cc.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/messages.h"
#include "src/log/redo_record.h"
#include "src/replication/messages.h"
#include "src/rpc/fields.h"
#include "src/rpc/rpc_method.h"
#include "src/txn/messages.h"

namespace globaldb {
namespace {

// --- The codec entry points under test --------------------------------------

template <typename M>
std::string EncodeMessage(const M& msg) {
  return rpc::Encode(msg);
}

template <typename M>
StatusOr<M> DecodeMessage(Slice in) {
  return rpc::Decode<M>(in);
}

/// The redo log decodes records with their record-type check.
template <>
StatusOr<RedoRecord> DecodeMessage<RedoRecord>(Slice in) {
  RedoRecord record;
  Status status = RedoRecord::DecodeFrom(&in, &record);
  if (!status.ok()) return status;
  return record;
}

/// A PREPARE record's participant list, as RedoRecord::Prepare encodes it.
using Participants = std::vector<ShardId>;

// --- Cases -------------------------------------------------------------------

struct WireCase {
  std::string name;
  std::string bytes;  // what the encoder emits
  /// Decodes `in` and encodes the result again; nullopt if decode rejects.
  std::function<std::optional<std::string>(Slice)> reencode;
  /// The message ends in an unprefixed tail that takes all remaining bytes.
  bool raw_tail = false;
};

template <typename M>
WireCase Case(std::string name, const M& msg, bool raw_tail = false) {
  return {std::move(name), EncodeMessage(msg),
          [](Slice in) -> std::optional<std::string> {
            auto decoded = DecodeMessage<M>(in);
            if (!decoded.ok()) return std::nullopt;
            return EncodeMessage(*decoded);
          },
          raw_tail};
}

const std::string kBinaryKey("k\x00z", 3);
const std::string kLongValue(130, 'v');
const std::string kLongKey(128, 'k');
const std::string kLongImage(300, 's');
const std::string kBatch("\x00" "abc\x00\xff", 6);
const std::string kCatalog("cat\x00", 4);

std::vector<WireCase> Cases() {
  std::vector<WireCase> cases;
  cases.push_back(Case("EmptyMessage", rpc::EmptyMessage{}));

  // --- cluster ---
  cases.push_back(Case("ReadRequest/plain", ReadRequest{7, "k1", 1000, 42}));
  cases.push_back(
      Case("ReadRequest/binary-key",
           ReadRequest{300, kBinaryKey, kTimestampMax, 1ull << 40}));
  cases.push_back(Case("ReadRequest/empty-key", ReadRequest{}));
  cases.push_back(Case("ReadReply/found-long", ReadReply{true, kLongValue}));
  cases.push_back(Case("ReadReply/missing", ReadReply{}));

  cases.push_back(Case("ReadBatchRequest/empty", ReadBatchRequest{5, 6, {}}));
  {
    ReadBatchRequest r;
    r.snapshot = kTimestampMax;
    r.txn = 9;
    r.entries = {{3, kBinaryKey, true}, {200, "", false}, {1, kLongKey, true}};
    cases.push_back(Case("ReadBatchRequest/entries", r));
  }

  cases.push_back(Case("ScanBatchRequest/empty", ScanBatchRequest{}));
  {
    ScanBatchRequest r;
    r.snapshot = 1ull << 33;
    r.txn = 12;
    r.max_bytes = 1 << 20;
    r.resume_range = 1;
    ScanBatchRequest::Range plain;
    plain.table = 4;
    plain.start = kBinaryKey;
    plain.end = "";
    ScanBatchRequest::Range full;
    full.table = 300;
    full.start = "a";
    full.end = "b";
    full.limit = 20;
    full.reverse = true;
    full.filter_col = 2;
    full.filter_eq = -7;
    full.join_table = 9;
    full.join_key_prefix = std::string("p\x00", 2);
    full.join_key_cols = {1, 2, 300};
    full.join_prefix = true;
    full.join_limit = 10;
    ScanBatchRequest::Range filter_only;
    filter_only.table = 5;
    filter_only.filter_col = 0;
    filter_only.filter_eq = 1ll << 40;
    ScanBatchRequest::Range join_no_cols;
    join_no_cols.table = 6;
    join_no_cols.join_table = 7;
    r.ranges = {plain, full, filter_only, join_no_cols};
    cases.push_back(Case("ScanBatchRequest/ranges", r));
  }

  cases.push_back(Case("WriteBatchRequest/empty", WriteBatchRequest{1, 2, {}}));
  {
    WriteBatchRequest r;
    r.txn = 1ull << 50;
    r.snapshot = kTimestampMax;
    r.entries = {{WriteOp::kInsert, 3, kBinaryKey, kLongValue},
                 {WriteOp::kUpdate, 300, "u", std::string("\x00", 1)},
                 {WriteOp::kDelete, 3, "d", ""}};
    cases.push_back(Case("WriteBatchRequest/entries", r));
  }

  cases.push_back(Case("WriteBatchReply/empty", WriteBatchReply{}));
  {
    WriteBatchReply r;
    r.results = {{StatusCode::kOk, ""},
                 {StatusCode::kTimedOut, "lock wait timeout"},
                 {StatusCode::kAborted, kLongValue}};
    cases.push_back(Case("WriteBatchReply/results", r));
  }

  cases.push_back(Case("TxnControlRequest/one-phase",
                       TxnControlRequest{77, kTimestampMax, false, {}}));
  cases.push_back(Case(
      "TxnControlRequest/two-phase",
      TxnControlRequest{1ull << 40, 5, true, {0, 1, 200, kInvalidShardId}}));

  cases.push_back(Case("TxnOutcomeRequest", TxnOutcomeRequest{1ull << 35}));
  cases.push_back(Case("TxnOutcomeReply/committed",
                       TxnOutcomeReply{TxnOutcome::kCommitted, kTimestampMax}));
  cases.push_back(Case("TxnOutcomeReply/unknown", TxnOutcomeReply{}));
  cases.push_back(Case("TxnOutcomeReply/pending",
                       TxnOutcomeReply{TxnOutcome::kPending, 3}));

  cases.push_back(Case("DdlRequest/empty", DdlRequest{}));
  cases.push_back(Case("DdlRequest/binary",
                       DdlRequest{12, std::string("CREATE TABLE t\x00x", 16)}));
  cases.push_back(
      Case("DdlRequest/long", DdlRequest{kTimestampMax, kLongImage}));

  cases.push_back(Case("RorStatusReply/zero", RorStatusReply{}));
  cases.push_back(
      Case("RorStatusReply/negative-delay",
           RorStatusReply{kTimestampMax, 123456, -3 * kMillisecond}));

  cases.push_back(Case("RcpUpdateMessage/empty", RcpUpdateMessage{10, {}}));
  {
    RcpUpdateMessage r;
    r.rcp = kTimestampMax;
    r.statuses = {{1, true, RorStatusReply{1000, 7, 250 * kMicrosecond}},
                  {300, false, RorStatusReply{kTimestampMax, 0, -1}},
                  {kInvalidNodeId, true, RorStatusReply{}}};
    cases.push_back(Case("RcpUpdateMessage/statuses", r));
  }

  cases.push_back(
      Case("DnStatusReply", DnStatusReply{1ull << 30, kTimestampMax}));
  cases.push_back(Case("TxnHorizonReply", TxnHorizonReply{kTimestampMax}));
  cases.push_back(Case("ReadHorizonRequest", ReadHorizonRequest{129}));

  // --- txn ---
  cases.push_back(Case("GtmTimestampRequest/default", GtmTimestampRequest{}));
  cases.push_back(Case("GtmTimestampRequest/dual-commit",
                       GtmTimestampRequest{TimestampMode::kDual, true,
                                           1'700'000'000'000'000'000ull, -1,
                                           300}));
  cases.push_back(Case("GtmTimestampReply/default", GtmTimestampReply{}));
  cases.push_back(Case("GtmTimestampReply/aborted",
                       GtmTimestampReply{true, kTimestampMax,
                                         -250 * kMicrosecond,
                                         TimestampMode::kGclock}));
  cases.push_back(Case("SetModeRequest/default", SetModeRequest{}));
  cases.push_back(Case("SetModeRequest/gclock",
                       SetModeRequest{TimestampMode::kGclock, 1ull << 50}));
  cases.push_back(Case("AckReply/default", AckReply{}));
  cases.push_back(
      Case("AckReply/negative-bound", AckReply{kTimestampMax, -5}));

  // --- replication ---
  {
    ReplAppendRequest r;
    r.shard = 3;
    r.start_lsn = 1000;
    r.batch = kBatch;
    cases.push_back(Case("ReplAppendRequest/batch", r, /*raw_tail=*/true));
    cases.push_back(Case("ReplAppendRequest/empty", ReplAppendRequest{},
                         /*raw_tail=*/true));
  }
  cases.push_back(Case("ReplAppendReply/refused", ReplAppendReply{55, false}));
  cases.push_back(
      Case("ReplAppendReply/accepted", ReplAppendReply{kTimestampMax, true}));
  cases.push_back(Case("ReplHelloRequest",
                       ReplHelloRequest{300, 1ull << 40, kTimestampMax}));
  cases.push_back(Case("ReplSnapshotRequest/empty", ReplSnapshotRequest{}));
  {
    ReplSnapshotRequest r;
    r.shard = 2;
    r.checkpoint_lsn = 1ull << 20;
    r.checkpoint_ts = 99;
    r.max_commit_ts = kTimestampMax;
    r.reset = true;
    r.catalog_image = kCatalog;
    r.store_image = kLongImage;
    cases.push_back(Case("ReplSnapshotRequest/images", r));
  }
  cases.push_back(
      Case("ReplSnapshotReply", ReplSnapshotReply{1ull << 40, false}));

  // --- redo log ---
  {
    RedoRecord insert = RedoRecord::Insert(7, 300, kBinaryKey, kLongValue);
    insert.lsn = 1ull << 40;
    cases.push_back(Case("RedoRecord/insert", insert));
    RedoRecord del = RedoRecord::Delete(8, 4, "");
    del.lsn = 1;
    cases.push_back(Case("RedoRecord/delete", del));
    RedoRecord commit = RedoRecord::Commit(1ull << 33, kTimestampMax);
    commit.lsn = 2;
    cases.push_back(Case("RedoRecord/commit", commit));
    const std::string participants = rpc::Encode(Participants{0, 1, 300});
    RedoRecord prepare = RedoRecord::Prepare(9, participants);
    prepare.lsn = 3;
    cases.push_back(Case("RedoRecord/prepare", prepare));
    const std::string ddl_payload("CREATE\x00", 7);
    RedoRecord ddl = RedoRecord::Ddl(12, ddl_payload);
    ddl.lsn = 4;
    cases.push_back(Case("RedoRecord/ddl", ddl));
    cases.push_back(Case("RedoRecord/checkpoint", RedoRecord::Checkpoint(0)));
  }
  cases.push_back(
      Case("Participants", Participants{0, 5, 300, kInvalidShardId}));
  return cases;
}

// --- Golden data -------------------------------------------------------------

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

struct Golden {
  std::string bytes;
  /// Decode verdicts of the strict prefixes (lengths 0 .. size-1) as run
  /// lengths alternating rejected / accepted, starting with rejected.
  std::vector<size_t> prefix_runs;
};

const std::map<std::string, Golden>& GoldenCases() {
  static const auto* golden = new std::map<std::string, Golden>{
      {"EmptyMessage",
       {"",
        {}}},
      {"ReadRequest/plain",
       {Hex("07026b31e8072a"),
        {7}}},
      {"ReadRequest/binary-key",
       {Hex("ac02036b007affffffffffffffffff01808080808020"),
        {22}}},
      {"ReadRequest/empty-key",
       {Hex("00000000"),
        {4}}},
      {"ReadReply/found-long",
       {Hex("018201") +
          std::string(130, 'v'),
        {133}}},
      {"ReadReply/missing",
       {Hex("0000"),
        {2}}},
      {"ReadBatchRequest/empty",
       {Hex("050600"),
        {3}}},
      {"ReadBatchRequest/entries",
       {Hex("ffffffffffffffffff01090303036b007a01c8010000018001") +
          std::string(128, 'k') +
          Hex("01"),
        {154}}},
      {"ScanBatchRequest/empty",
       {Hex("0000000000"),
        {5}}},
      {"ScanBatchRequest/ranges",
       {Hex("80808080200c808040010404036b007a00ffffffff0f00ac0201610162140f02"
          "0d09027000030102ac020a050000ffffffff0f0200808080808040060000ffff"
          "ffff0f04070000ffffffff0f"),
        {76}}},
      {"WriteBatchRequest/empty",
       {Hex("010200"),
        {3}}},
      {"WriteBatchRequest/entries",
       {Hex("8080808080808002ffffffffffffffffff01030103036b007a8201") +
          std::string(130, 'v') +
          Hex("02ac02017501000303016400"),
        {169}}},
      {"WriteBatchReply/empty",
       {Hex("00"),
        {1}}},
      {"WriteBatchReply/results",
       {Hex("03000007116c6f636b20776169742074696d656f7574058201") +
          std::string(130, 'v'),
        {155}}},
      {"TxnControlRequest/one-phase",
       {Hex("4dffffffffffffffffff010000"),
        {13}}},
      {"TxnControlRequest/two-phase",
       {Hex("8080808080200501040001c801ffffffff0f"),
        {18}}},
      {"TxnOutcomeRequest",
       {Hex("808080808001"),
        {6}}},
      {"TxnOutcomeReply/committed",
       {Hex("01ffffffffffffffffff01"),
        {11}}},
      {"TxnOutcomeReply/unknown",
       {Hex("0000"),
        {2}}},
      {"TxnOutcomeReply/pending",
       {Hex("0303"),
        {2}}},
      {"DdlRequest/empty",
       {Hex("0000"),
        {2}}},
      {"DdlRequest/binary",
       {Hex("0c10435245415445205441424c4520740078"),
        {18}}},
      {"DdlRequest/long",
       {Hex("ffffffffffffffffff01ac02") +
          std::string(300, 's'),
        {312}}},
      {"RorStatusReply/zero",
       {Hex("000000"),
        {3}}},
      {"RorStatusReply/negative-delay",
       {Hex("ffffffffffffffffff01c0c407c0f2c8feffffffffff01"),
        {23}}},
      {"RcpUpdateMessage/empty",
       {Hex("0a00"),
        {2}}},
      {"RcpUpdateMessage/statuses",
       {Hex("ffffffffffffffffff0103010106e8070790a10fac020015ffffffffffffffff"
          "ff0100ffffffffffffffffff01ffffffff0f0103000000"),
        {55}}},
      {"DnStatusReply",
       {Hex("8080808004ffffffffffffffffff01"),
        {15}}},
      {"TxnHorizonReply",
       {Hex("ffffffffffffffffff01"),
        {10}}},
      {"ReadHorizonRequest",
       {Hex("8101"),
        {2}}},
      {"GtmTimestampRequest/default",
       {Hex("0000000001"),
        {5}}},
      {"GtmTimestampRequest/dual-commit",
       {Hex("01018080a8b1e39fe7cb17ffffffffffffffffff01ac02"),
        {23}}},
      {"GtmTimestampReply/default",
       {Hex("00000000"),
        {4}}},
      {"GtmTimestampReply/aborted",
       {Hex("01ffffffffffffffffff01f0def0ffffffffffff0102"),
        {22}}},
      {"SetModeRequest/default",
       {Hex("0000"),
        {2}}},
      {"SetModeRequest/gclock",
       {Hex("028080808080808002"),
        {9}}},
      {"AckReply/default",
       {Hex("00000000"),
        {4}}},
      {"AckReply/negative-bound",
       {Hex("ffffffffffffffffff01fbffffffffffffffff010000"),
        {22}}},
      {"ReplAppendRequest/batch",
       {Hex("03e8070061626300ff"),
        {3, 6}}},
      {"ReplAppendRequest/empty",
       {Hex("0000"),
        {2}}},
      {"ReplAppendReply/refused",
       {Hex("3700"),
        {2}}},
      {"ReplAppendReply/accepted",
       {Hex("ffffffffffffffffff0101"),
        {11}}},
      {"ReplHelloRequest",
       {Hex("ac02808080808020ffffffffffffffffff01"),
        {18}}},
      {"ReplSnapshotRequest/empty",
       {Hex("00000000000000"),
        {7}}},
      {"ReplSnapshotRequest/images",
       {Hex("0280804063ffffffffffffffffff01010463617400ac02") +
          std::string(300, 's'),
        {323}}},
      {"ReplSnapshotReply",
       {Hex("80808080802000"),
        {7}}},
      {"RedoRecord/insert",
       {Hex("018080808080200700ac02036b007a8201") +
          std::string(130, 'v'),
        {147}}},
      {"RedoRecord/delete",
       {Hex("03010800040000"),
        {7}}},
      {"RedoRecord/commit",
       {Hex("05028080808020ffffffffffffffffff01000000"),
        {20}}},
      {"RedoRecord/prepare",
       {Hex("07030900000005030001ac02"),
        {12}}},
      {"RedoRecord/ddl",
       {Hex("0b04000c00000743524541544500"),
        {14}}},
      {"RedoRecord/checkpoint",
       {Hex("0c000000000000"),
        {7}}},
      {"Participants",
       {Hex("040005ac02ffffffff0f"),
        {10}}},
  };
  return *golden;
}

std::vector<size_t> PrefixRuns(const WireCase& c) {
  std::vector<size_t> runs;
  bool accepted = false;
  for (size_t len = 0; len < c.bytes.size(); ++len) {
    // A fresh heap buffer, so a decoder reading past the cut trips ASan.
    const std::string cut = c.bytes.substr(0, len);
    const bool ok = c.reencode(Slice(cut)).has_value();
    if (runs.empty() || ok != accepted) {
      if (runs.empty() && ok) runs.push_back(0);
      runs.push_back(0);
      accepted = ok;
    }
    ++runs.back();
  }
  return runs;
}

std::string RunsToString(const std::vector<size_t>& runs) {
  std::string out = "{";
  for (size_t i = 0; i < runs.size(); ++i) {
    out += (i ? ", " : "") + std::to_string(runs[i]);
  }
  return out + "}";
}

TEST(MessageWireTest, EveryCaseHasGoldenBytes) {
  for (const WireCase& c : Cases()) {
    EXPECT_TRUE(GoldenCases().count(c.name))
        << "GOLDEN " << c.name << " " << ToHex(c.bytes) << " "
        << RunsToString(PrefixRuns(c));
  }
}

TEST(MessageWireTest, BytesMatchGolden) {
  for (const WireCase& c : Cases()) {
    auto it = GoldenCases().find(c.name);
    if (it == GoldenCases().end()) continue;
    EXPECT_EQ(ToHex(c.bytes), ToHex(it->second.bytes)) << c.name;
  }
}

TEST(MessageWireTest, StrictPrefixVerdictsMatchGolden) {
  for (const WireCase& c : Cases()) {
    auto it = GoldenCases().find(c.name);
    if (it == GoldenCases().end()) continue;
    EXPECT_EQ(RunsToString(PrefixRuns(c)),
              RunsToString(it->second.prefix_runs))
        << c.name;
  }
}

TEST(MessageWireTest, DecodeReencodesAndIgnoresTrailingBytes) {
  const std::string trailing("\x7f\x00\xff", 3);
  for (const WireCase& c : Cases()) {
    const std::string exact = c.bytes;
    auto again = c.reencode(Slice(exact));
    ASSERT_TRUE(again.has_value()) << c.name;
    EXPECT_EQ(ToHex(*again), ToHex(c.bytes)) << c.name;

    const std::string longer = c.bytes + trailing;
    auto tolerant = c.reencode(Slice(longer));
    ASSERT_TRUE(tolerant.has_value()) << c.name;
    EXPECT_EQ(ToHex(*tolerant), ToHex(c.raw_tail ? longer : c.bytes))
        << c.name;
  }
}

// A corrupt element count must be rejected as truncated input, not
// reserved: 2^32 - 1 entries would ask for hundreds of gigabytes.
TEST(MessageWireTest, CorruptCountIsRejectedWithoutReserving) {
  const std::string huge("\xff\xff\xff\xff\x0f", 5);
  // Each message's fixed fields, then the count of its first list.
  const std::string zeros2(2, '\0'), zeros4(4, '\0');
  EXPECT_FALSE(DecodeMessage<ScanBatchRequest>(zeros4 + huge).ok());
  EXPECT_FALSE(DecodeMessage<ReadBatchRequest>(zeros2 + huge).ok());
  EXPECT_FALSE(DecodeMessage<WriteBatchRequest>(zeros2 + huge).ok());
  EXPECT_FALSE(DecodeMessage<WriteBatchReply>(huge).ok());
  EXPECT_FALSE(DecodeMessage<RcpUpdateMessage>(std::string(1, '\0') + huge)
                   .ok());
  EXPECT_FALSE(DecodeMessage<Participants>(huge).ok());
  EXPECT_FALSE(rpc::DecodeEnvelope<ScanBatchReply>("\x01" + zeros2 +
                                                   std::string(1, '\0') + huge)
                   .ok());
  EXPECT_FALSE(rpc::DecodeEnvelope<ReadBatchReply>("\x01" + huge).ok());
}

TEST(MessageWireTest, EmptyParticipantListIsOneZeroByte) {
  EXPECT_EQ(EncodeMessage(Participants{}), std::string(1, '\0'));
}

}  // namespace
}  // namespace globaldb
