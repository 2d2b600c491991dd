// Microbenchmarks (google-benchmark) for the redo compression hot path the
// log shipper sits on: LzCodec compress/decompress throughput and ratio on
// redo-shaped payloads (TPC-C-like repetitive rows and high-entropy rows),
// plus the end-to-end LogStream::EncodeBatch / DecodeBatch framing the
// shipper's encoded-batch cache amortizes across replicas.

#include <benchmark/benchmark.h>

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
    RedoRecord r = RedoRecord::Insert(
        i, 3, "warehouse_" + std::to_string(i % 20),
        "customer_row_payload_" + rng.AlphaString(20, 60));
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
    RedoRecord r = RedoRecord::Insert(i, 3, "k" + std::to_string(rng.Next()),
                                      value);
    r.lsn = i + 1;
    rpc::EncodeTo(r, &payload);
  }
  return payload;
}

std::vector<RedoRecord> MakeRedoBatch(int records) {
  Rng rng(6);
  std::vector<RedoRecord> batch;
  batch.reserve(records);
  for (int i = 0; i < records; ++i) {
    RedoRecord r = RedoRecord::Insert(
        i, 3, "district_" + std::to_string(i % 200),
        "order_line_payload_" + rng.AlphaString(30, 80));
    r.lsn = i + 1;
    batch.push_back(std::move(r));
  }
  return batch;
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
  const std::vector<RedoRecord> batch =
      MakeRedoBatch(static_cast<int>(state.range(0)));
  size_t raw = 0;
  for (const RedoRecord& r : batch) raw += rpc::EncodedSize(r);
  std::string out;
  for (auto _ : state) {
    out = LogStream::EncodeBatch(batch, CompressionType::kLz);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * raw);
  state.counters["ratio"] =
      static_cast<double>(out.size()) / static_cast<double>(raw);
}
BENCHMARK(BM_EncodeBatchLz)->Arg(100)->Arg(2000);

void BM_EncodeBatchNone(benchmark::State& state) {
  const std::vector<RedoRecord> batch =
      MakeRedoBatch(static_cast<int>(state.range(0)));
  size_t raw = 0;
  for (const RedoRecord& r : batch) raw += rpc::EncodedSize(r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LogStream::EncodeBatch(batch, CompressionType::kNone));
  }
  state.SetBytesProcessed(state.iterations() * raw);
}
BENCHMARK(BM_EncodeBatchNone)->Arg(100)->Arg(2000);

void BM_DecodeBatchLz(benchmark::State& state) {
  const std::vector<RedoRecord> batch =
      MakeRedoBatch(static_cast<int>(state.range(0)));
  size_t raw = 0;
  for (const RedoRecord& r : batch) raw += rpc::EncodedSize(r);
  const std::string wire = LogStream::EncodeBatch(batch, CompressionType::kLz);
  std::vector<RedoRecord> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LogStream::DecodeBatch(Slice(wire), &out));
  }
  state.SetBytesProcessed(state.iterations() * raw);
}
BENCHMARK(BM_DecodeBatchLz)->Arg(100)->Arg(2000);

}  // namespace
}  // namespace globaldb

BENCHMARK_MAIN();
