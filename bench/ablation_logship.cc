// Ablation: the log-shipping / transport optimizations the paper's GlobalDB
// deployment enables (Section V-A) — LZ redo compression, TCP BBR, Nagle
// off, sliding-window pipelined shipping — plus the replication mode,
// measured one at a time on the Three-City cluster. The pipelined window's
// catch-up advantage over stop-and-wait on a single WAN link is pinned by
// PipelineTest.WindowedCatchupBeatsStopAndWaitByFourX.

#include <cstdio>

#include "bench/bench_util.h"

using namespace globaldb;
using namespace globaldb::bench;

namespace {

struct Variant {
  const char* label;
  void (*apply)(ClusterOptions*);
};

RunResult RunVariant(const Variant& v, TpccConfig config, int clients,
                     SimDuration duration, int64_t* cross_region_bytes) {
  sim::Simulator sim(29);
  ClusterOptions options =
      MakeClusterOptions(SystemKind::kGlobalDb, sim::Topology::ThreeCity());
  v.apply(&options);
  Cluster cluster(&sim, options);
  cluster.Start();
  TpccWorkload tpcc(&cluster, config);
  Status s = tpcc.Setup();
  GDB_CHECK(s.ok()) << s.ToString();
  cluster.WaitForRcp();
  sim.RunFor(300 * kMillisecond);

  WorkloadDriver::Options driver_options;
  driver_options.clients = clients;
  driver_options.warmup = 400 * kMillisecond;
  driver_options.duration = duration;
  WorkloadDriver driver(&cluster, driver_options);
  RunResult result;
  result.stats = driver.Run(tpcc.MixFn());
  result.tpm = result.stats.PerMinute();
  result.p50_ms =
      static_cast<double>(result.stats.latency.Percentile(50)) / kMillisecond;
  *cross_region_bytes =
      cluster.network().metrics().Get("rpc.cross_region_bytes") +
      cluster.network().metrics().Get("send.cross_region_bytes");
  return result;
}

}  // namespace

int main() {
  const SimDuration duration = BenchDuration();
  const int clients = BenchClients();
  TpccConfig config = MakeTpccConfig();

  const Variant variants[] = {
      {"GlobalDB (all optimizations)", [](ClusterOptions*) {}},
      {"  - no LZ compression",
       [](ClusterOptions* o) {
         o->shipper.compression = CompressionType::kNone;
       }},
      {"  - stop-and-wait shipping (window=1)",
       [](ClusterOptions* o) { o->shipper.max_inflight_batches = 1; }},
      {"  - Nagle re-enabled",
       [](ClusterOptions* o) { o->network.nagle_enabled = true; }},
      {"  - loss-based CC (no BBR)",
       [](ClusterOptions* o) { o->network.bbr_enabled = false; }},
      {"  - synchronous quorum replication",
       [](ClusterOptions* o) {
         o->shipper.mode = ReplicationMode::kSyncQuorum;
       }},
      {"  - centralized GTM timestamps",
       [](ClusterOptions* o) { o->initial_mode = TimestampMode::kGtm; }},
  };

  PrintHeader("Ablation: log shipping & transport optimizations "
              "(Three-City TPC-C)",
              "variant                                 tpmC    p50_ms  "
              "cross_region_MB");
  for (const Variant& v : variants) {
    int64_t bytes = 0;
    RunResult r = RunVariant(v, config, clients, duration, &bytes);
    printf("%-38s %8.0f %9.1f %12.1f\n", v.label, r.tpm, r.p50_ms,
           static_cast<double>(bytes) / 1e6);
    fflush(stdout);
  }
  return 0;
}
