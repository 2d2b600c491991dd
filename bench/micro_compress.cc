// Microbenchmarks (google-benchmark) for the redo compression hot path the
// log shipper sits on: LzCodec compress/decompress throughput and ratio on
// redo-shaped payloads (TPC-C-like repetitive rows and high-entropy rows),
// plus the LogStream::EncodeBatch / DecodeBatch framing the shipper applies
// to each batch, a slice of the log, and each replica undoes.

#include <benchmark/benchmark.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/compression/lz.h"
#include "src/log/log_stream.h"
#include "src/log/redo_record.h"
#include "src/rpc/fields.h"

namespace globaldb {
namespace {

/// TPC-C-shaped redo: repetitive column prefixes and skewed keys, the case
/// LZ is enabled for.
std::string MakeTpccPayload(int records) {
  Rng rng(2);
  std::string payload;
  for (int i = 0; i < records; ++i) {
    const std::string key = "warehouse_" + std::to_string(i % 20);
    const std::string value = "customer_row_payload_" + rng.AlphaString(20, 60);
    RedoRecord r = RedoRecord::Insert(i, 3, key, value);
    r.lsn = i + 1;
    rpc::EncodeTo(r, &payload);
  }
  return payload;
}

/// High-entropy redo values: the worst case, where compression must detect
/// expansion and the batch framing falls back to raw.
std::string MakeRandomPayload(int records) {
  Rng rng(4);
  std::string payload;
  for (int i = 0; i < records; ++i) {
    std::string value(80, '\0');
    for (char& c : value) c = static_cast<char>(rng.Next() & 0xff);
    const std::string key = "k" + std::to_string(rng.Next());
    RedoRecord r = RedoRecord::Insert(i, 3, key, value);
    r.lsn = i + 1;
    rpc::EncodeTo(r, &payload);
  }
  return payload;
}

/// A log of `records` TPC-C-shaped inserts, all retained.
std::unique_ptr<LogStream> MakeRedoLog(int records) {
  Rng rng(6);
  auto log = std::make_unique<LogStream>();
  for (int i = 0; i < records; ++i) {
    const std::string key = "district_" + std::to_string(i % 200);
    const std::string value = "order_line_payload_" + rng.AlphaString(30, 80);
    log->Append(RedoRecord::Insert(i, 3, key, value));
  }
  return log;
}

/// The payload of the whole log: the slice the shipper frames.
Slice WholeLog(const LogStream& log) {
  return log.Extent(1, log.size(), std::numeric_limits<size_t>::max())
      ->payload;
}

void BM_CompressRedoTpcc(benchmark::State& state) {
  const std::string payload = MakeTpccPayload(static_cast<int>(state.range(0)));
  std::string out;
  for (auto _ : state) {
    LzCodec::Compress(payload, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * payload.size());
  state.counters["ratio"] =
      static_cast<double>(out.size()) / static_cast<double>(payload.size());
}
BENCHMARK(BM_CompressRedoTpcc)->Arg(100)->Arg(1000)->Arg(5000);

void BM_DecompressRedoTpcc(benchmark::State& state) {
  const std::string payload = MakeTpccPayload(static_cast<int>(state.range(0)));
  std::string compressed;
  LzCodec::Compress(payload, &compressed);
  std::string out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzCodec::Decompress(compressed, &out));
  }
  state.SetBytesProcessed(state.iterations() * payload.size());
}
BENCHMARK(BM_DecompressRedoTpcc)->Arg(100)->Arg(1000)->Arg(5000);

void BM_CompressRedoRandom(benchmark::State& state) {
  const std::string payload =
      MakeRandomPayload(static_cast<int>(state.range(0)));
  std::string out;
  for (auto _ : state) {
    LzCodec::Compress(payload, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * payload.size());
  state.counters["ratio"] =
      static_cast<double>(out.size()) / static_cast<double>(payload.size());
}
BENCHMARK(BM_CompressRedoRandom)->Arg(1000);

void BM_EncodeBatchLz(benchmark::State& state) {
  const auto log = MakeRedoLog(static_cast<int>(state.range(0)));
  const Slice payload = WholeLog(*log);
  std::string out;
  for (auto _ : state) {
    out.clear();
    LogStream::EncodeBatch(payload, CompressionType::kLz, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * payload.size());
  state.counters["ratio"] =
      static_cast<double>(out.size()) / static_cast<double>(payload.size());
}
BENCHMARK(BM_EncodeBatchLz)->Arg(100)->Arg(2000);

void BM_EncodeBatchNone(benchmark::State& state) {
  const auto log = MakeRedoLog(static_cast<int>(state.range(0)));
  const Slice payload = WholeLog(*log);
  for (auto _ : state) {
    std::string out;
    LogStream::EncodeBatch(payload, CompressionType::kNone, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * payload.size());
}
BENCHMARK(BM_EncodeBatchNone)->Arg(100)->Arg(2000);

void BM_DecodeBatchLz(benchmark::State& state) {
  const auto log = MakeRedoLog(static_cast<int>(state.range(0)));
  const Slice payload = WholeLog(*log);
  std::string wire;
  LogStream::EncodeBatch(payload, CompressionType::kLz, &wire);
  std::string scratch;
  std::vector<RedoRecord> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LogStream::DecodeBatch(wire, &scratch, &out));
  }
  state.SetBytesProcessed(state.iterations() * payload.size());
}
BENCHMARK(BM_DecodeBatchLz)->Arg(100)->Arg(2000);

}  // namespace
}  // namespace globaldb

BENCHMARK_MAIN();
