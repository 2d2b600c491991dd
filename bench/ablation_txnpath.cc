// Ablation: the commit protocol on the hot transaction path (DESIGN.md
// §10), measured with TPC-C NewOrder on a 3-region uniform topology at
// 10/50/100 ms RTT under GTM and GClock timestamping.
//
// A second section isolates GTM timestamp coalescing (concurrent
// begin/commit requests sharing one kGtmTimestamp RPC): N closed-loop
// begin+commit clients against a GTM server 50 ms away, reporting GTM RPCs
// per transaction.
//
// With GDB_TXNPATH_GATE_ONLY set, only the coalescing micro-section runs
// (the check.sh smoke path); with GDB_TXNPATH_JSON=<path>, its numbers are
// written as JSON (BENCH_txnpath.json).

#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "src/txn/gtm_server.h"
#include "src/txn/timestamp_source.h"

using namespace globaldb;
using namespace globaldb::bench;

namespace {

struct TxnPathResult {
  RunResult run;
  double gtm_rpcs_per_txn = 0;
  double mean_batch_entries = 0;
};

TxnPathResult RunTxnPath(TimestampMode mode, SimDuration rtt,
                         TpccConfig config, int clients, SimDuration duration) {
  sim::Simulator sim(47);
  ClusterOptions options =
      MakeClusterOptions(SystemKind::kGlobalDb, sim::Topology::Uniform(3, rtt));
  options.initial_mode = mode;
  Cluster cluster(&sim, options);
  cluster.Start();
  TpccWorkload tpcc(&cluster, config);
  Status s = tpcc.Setup();
  GDB_CHECK(s.ok()) << s.ToString();
  cluster.WaitForRcp();
  sim.RunFor(300 * kMillisecond);

  WorkloadDriver::Options driver_options;
  driver_options.clients = clients;
  // The window must hold several WAN round trips per transaction or the
  // high-RTT points measure zero.
  driver_options.warmup = std::max<SimDuration>(400 * kMillisecond, 8 * rtt);
  driver_options.duration = std::max<SimDuration>(duration, 50 * rtt);
  WorkloadDriver driver(&cluster, driver_options);
  TxnPathResult result;
  result.run.stats = driver.Run(
      [&tpcc](CoordinatorNode* cn, Rng* rng) { return tpcc.NewOrder(cn, rng); });
  result.run.tpm = result.run.stats.PerMinute();
  result.run.tps = result.run.stats.Throughput();
  result.run.p50_ms =
      static_cast<double>(result.run.stats.latency.Percentile(50)) /
      kMillisecond;
  result.run.p99_ms =
      static_cast<double>(result.run.stats.latency.Percentile(99)) /
      kMillisecond;

  int64_t gtm_rpcs = 0;
  Histogram batch_sizes;
  for (size_t i = 0; i < cluster.num_cns(); ++i) {
    gtm_rpcs += cluster.cn(i).timestamp_source().metrics().Get("ts.gtm_rpcs");
    for (int64_t v :
         cluster.cn(i).metrics().Hist("cn.write_batch_size").values()) {
      batch_sizes.Record(v);
    }
  }
  const int64_t txns = result.run.stats.committed + result.run.stats.aborted;
  if (txns > 0) {
    result.gtm_rpcs_per_txn =
        static_cast<double>(gtm_rpcs) / static_cast<double>(txns);
  }
  result.mean_batch_entries = batch_sizes.mean();
  if (getenv("GDB_BENCH_RPC_STATS") != nullptr) {
    printf("%s%s", FormatRpcStats(cluster).c_str(),
           FormatCommitPhaseStats(cluster).c_str());
  }
  return result;
}

// --- GTM coalescing micro-section -------------------------------------------

sim::Task<void> BeginCommitLoop(TimestampSource* src, int64_t* done,
                                const bool* stop) {
  while (!*stop) {
    auto grant = co_await src->BeginTs(false);
    if (!grant.ok()) continue;
    auto ts = co_await src->CommitTs(grant->mode);
    if (ts.ok()) ++*done;
  }
}

struct CoalesceRow {
  double txn_per_s = 0;
  double rpcs_per_txn = 0;
  double mean_batch = 0;
};

/// N closed-loop begin+commit clients on one CN with the GTM server 50 ms
/// away (one-way 25 ms per hop, RTT 50 ms), GTM mode.
CoalesceRow RunCoalesceMicro(int clients) {
  sim::Simulator sim(31);
  sim::NetworkOptions nopt;
  nopt.nagle_enabled = false;
  sim::Network net(&sim, sim::Topology::Uniform(2, 50 * kMillisecond), nopt);
  const NodeId gtm_node = 0, cn = 1;
  net.RegisterNode(gtm_node, 0);
  net.RegisterNode(cn, 1);
  GtmServer gtm(&sim, &net, gtm_node);
  sim::HardwareClock clock(&sim, sim.rng().Fork());
  TimestampSource src(&sim, &net, cn, gtm_node, &clock);

  const SimDuration duration = 5 * kSecond;
  int64_t done = 0;
  bool stop = false;
  for (int i = 0; i < clients; ++i) {
    sim.Spawn(BeginCommitLoop(&src, &done, &stop));
  }
  sim.RunFor(duration);
  stop = true;
  sim.RunFor(500 * kMillisecond);

  CoalesceRow row;
  row.txn_per_s =
      static_cast<double>(done) / (static_cast<double>(duration) / kSecond);
  // Each transaction issues two timestamp requests (begin + commit); the
  // gate counts RPCs per *transaction*, so one RPC per request would be 2.
  const int64_t rpcs = src.metrics().Get("ts.gtm_rpcs");
  if (done > 0) {
    row.rpcs_per_txn = static_cast<double>(rpcs) / static_cast<double>(done);
  }
  row.mean_batch = src.metrics().Hist("ts.coalesce_batch").mean();
  return row;
}

}  // namespace

int main() {
  if (getenv("GDB_TXNPATH_GATE_ONLY") == nullptr) {
    const SimDuration duration = BenchDuration();
    const int clients = BenchClients();
    TpccConfig config = MakeTpccConfig();
    // Every transaction's home warehouse lives behind a WAN link (the
    // paper's physical-affinity knob at its worst case): with local
    // warehouses the write statements and commit rounds never leave the
    // region.
    config.remote_warehouse_fraction = 1.0;

    PrintHeader("Ablation: commit protocol x RTT (TPC-C NewOrder, 3-region "
                "uniform RTT)",
                "mode    rtt_ms   NewOrder/min   p50_ms   p99_ms  "
                "gtm_rpcs/txn  batch_entries");
    const TimestampMode modes[] = {TimestampMode::kGtm,
                                   TimestampMode::kGclock};
    const SimDuration rtts[] = {10 * kMillisecond, 50 * kMillisecond,
                                100 * kMillisecond};
    for (TimestampMode mode : modes) {
      for (SimDuration rtt : rtts) {
        TxnPathResult r = RunTxnPath(mode, rtt, config, clients, duration);
        printf("%-7s %6lld %14.0f %8.1f %8.1f %13.3f %14.1f\n",
               TimestampModeName(mode),
               static_cast<long long>(rtt / kMillisecond), r.run.tpm,
               r.run.p50_ms, r.run.p99_ms, r.gtm_rpcs_per_txn,
               r.mean_batch_entries);
        fflush(stdout);
      }
    }
  }

  PrintHeader("GTM timestamp coalescing (16 closed-loop clients, 50 ms to "
              "the GTM)",
              "  txn/s   gtm_rpcs/txn   mean_batch");
  const CoalesceRow merged = RunCoalesceMicro(16);
  printf("%7.0f %14.3f %12.1f\n", merged.txn_per_s, merged.rpcs_per_txn,
         merged.mean_batch);

  if (const char* json_path = getenv("GDB_TXNPATH_JSON")) {
    FILE* f = fopen(json_path, "w");
    GDB_CHECK(f != nullptr) << "cannot write " << json_path;
    fprintf(f,
            "{\n"
            "  \"coalesce_clients\": 16,\n"
            "  \"gtm_rpcs_per_txn_coalesced\": %.4f,\n"
            "  \"coalesce_mean_batch\": %.2f\n"
            "}\n",
            merged.rpcs_per_txn, merged.mean_batch);
    fclose(f);
  }
  return 0;
}
