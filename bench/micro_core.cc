// Microbenchmarks (google-benchmark) for the hot substrate paths: varint
// codec, LZ compression, redo record encode/decode, B+-tree, MVCC reads,
// and simulated clock reads.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/common/codec.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/compression/lz.h"
#include "src/log/redo_record.h"
#include "src/sim/hardware_clock.h"
#include "src/sim/simulator.h"
#include "src/storage/btree.h"
#include "src/storage/mvcc_table.h"
#include "src/storage/value.h"

namespace globaldb {
namespace {

void BM_VarintEncodeDecode(benchmark::State& state) {
  Rng rng(1);
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) values.push_back(rng.Next() >> rng.Uniform(64));
  for (auto _ : state) {
    std::string buf;
    for (uint64_t v : values) PutVarint64(&buf, v);
    Slice in(buf);
    uint64_t out = 0;
    while (GetVarint64(&in, &out)) benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_VarintEncodeDecode);

std::string MakeRedoPayload(int records) {
  Rng rng(2);
  std::string payload;
  for (int i = 0; i < records; ++i) {
    RedoRecord r = RedoRecord::Insert(
        i, 3, "warehouse_" + std::to_string(i % 20),
        "customer_row_payload_" + rng.AlphaString(20, 60));
    r.lsn = i + 1;
    r.EncodeTo(&payload);
  }
  return payload;
}

void BM_LzCompress(benchmark::State& state) {
  const std::string payload = MakeRedoPayload(500);
  std::string out;
  for (auto _ : state) {
    LzCodec::Compress(payload, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * payload.size());
  state.counters["ratio"] =
      static_cast<double>(out.size()) / static_cast<double>(payload.size());
}
BENCHMARK(BM_LzCompress);

void BM_LzDecompress(benchmark::State& state) {
  const std::string payload = MakeRedoPayload(500);
  std::string compressed;
  LzCodec::Compress(payload, &compressed);
  std::string out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzCodec::Decompress(compressed, &out));
  }
  state.SetBytesProcessed(state.iterations() * payload.size());
}
BENCHMARK(BM_LzDecompress);

void BM_RedoRecordRoundTrip(benchmark::State& state) {
  RedoRecord record = RedoRecord::Insert(42, 7, "some_primary_key",
                                         std::string(120, 'x'));
  record.lsn = 99;
  for (auto _ : state) {
    std::string buf;
    record.EncodeTo(&buf);
    Slice in(buf);
    RedoRecord out;
    benchmark::DoNotOptimize(RedoRecord::DecodeFrom(&in, &out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RedoRecordRoundTrip);

void BM_BTreeInsert(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    BTree<int> tree;
    for (int i = 0; i < n; ++i) {
      char key[16];
      snprintf(key, sizeof(key), "k%08d", (i * 2654435761u) % n);
      tree.Put(key, i);
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BTreeInsert)->Arg(1000)->Arg(100000);

// A packed tree (Build) taking interleaved ascending runs into its middle,
// like TPC-C's new orders appended per district.
void BM_BTreeRunsIntoBuilt(benchmark::State& state) {
  constexpr int kBuilt = 64 * 1000;
  constexpr int kRuns = 10;
  const int run_length = static_cast<int>(state.range(0));
  std::vector<std::string> keys;
  for (int i = 0; i < kBuilt; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "k%08d", 2 * i);
    keys.push_back(key);
  }
  for (auto _ : state) {
    BTree<int> tree;
    std::vector<BTree<int>::KeyValue> entries;
    entries.reserve(keys.size());
    for (const std::string& key : keys) entries.emplace_back(key, 0);
    tree.Build(std::move(entries));
    for (int j = 0; j < run_length; ++j) {
      for (int r = 0; r < kRuns; ++r) {
        char key[32];
        snprintf(key, sizeof(key), "k%08d/%06d", 2 * (r * kBuilt / kRuns), j);
        tree.Put(key, j);
      }
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * kRuns * run_length);
}
BENCHMARK(BM_BTreeRunsIntoBuilt)->Arg(1000);

void BM_BTreeLookup(benchmark::State& state) {
  const int n = 100000;
  BTree<int> tree;
  for (int i = 0; i < n; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "k%08d", i);
    tree.Put(key, i);
  }
  Rng rng(3);
  for (auto _ : state) {
    char key[16];
    snprintf(key, sizeof(key), "k%08d", static_cast<int>(rng.Uniform(n)));
    benchmark::DoNotOptimize(tree.Find(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup);

void BM_MvccRead(benchmark::State& state) {
  MvccTable table(1);
  for (int i = 0; i < 10000; ++i) {
    const std::string key = "key" + std::to_string(i);
    table.ApplyInsert(key, "value" + std::to_string(i), 1);
  }
  table.CommitTxn(1, 100);
  // Five newer versions on a hot key.
  for (int v = 0; v < 5; ++v) {
    table.ApplyUpdate("key42", "v" + std::to_string(v), 2 + v);
    table.CommitTxn(2 + v, 200 + v);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Read("key42", 150));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MvccRead);

void BM_HardwareClockRead(benchmark::State& state) {
  sim::Simulator sim(5);
  sim::HardwareClock clock(&sim, Rng(6));
  for (auto _ : state) {
    benchmark::DoNotOptimize(clock.Read());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HardwareClockRead);

void BM_Hash64(benchmark::State& state) {
  const std::string key = "district_00042_0007";
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hash64(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Hash64);

void BM_KeyEncode(benchmark::State& state) {
  Row row = {int64_t{42}, int64_t{7}, int64_t{12345}};
  const std::vector<int> cols = {0, 1, 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeKey(row, cols));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeyEncode);

}  // namespace
}  // namespace globaldb

BENCHMARK_MAIN();
