// Ablation: the commit protocol on the hot transaction path (DESIGN.md
// §10, §15), measured with TPC-C NewOrder on a 3-region uniform topology at
// 10/50/100 ms RTT under GTM, GClock and EPOCH timestamping. An
// epoch-interval micro-sweep (1/5/20 ms) shows the seal-wait vs
// amortization trade, and an acceptance pair compares EPOCH against GTM at
// 50 ms RTT.
//
// A second section isolates GTM timestamp coalescing (concurrent
// begin/commit requests sharing one kGtmTimestamp RPC): N closed-loop
// begin+commit clients against a GTM server 50 ms away, reporting GTM RPCs
// per transaction.
//
// With GDB_TXNPATH_GATE_ONLY set, only the EPOCH acceptance pair and the
// coalescing micro-section run (the check.sh smoke path); with
// GDB_TXNPATH_JSON=<path>, those numbers are written as JSON
// (BENCH_txnpath.json).

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
  /// EPOCH mode only: commit-timestamp RPCs per committed transaction (the
  /// amortization headline — one grant per epoch, shared by its members).
  double epoch_commit_ts_rpcs_per_txn = 0;
  double mean_epoch_batch = 0;
};

const char* ModeLabel(TimestampMode mode) {
  switch (mode) {
    case TimestampMode::kGtm:
      return "GTM";
    case TimestampMode::kDual:
      return "DUAL";
    case TimestampMode::kGclock:
      return "GClock";
    case TimestampMode::kEpoch:
      return "EPOCH";
  }
  return "?";
}

TxnPathResult RunTxnPath(TimestampMode mode, SimDuration rtt,
                         TpccConfig config, int clients, SimDuration duration,
                         SimDuration epoch_interval = 5 * kMillisecond) {
  sim::Simulator sim(47);
  ClusterOptions options =
      MakeClusterOptions(SystemKind::kGlobalDb, sim::Topology::Uniform(3, rtt));
  options.initial_mode = mode;
  options.coordinator.epoch_interval = epoch_interval;
  if (mode == TimestampMode::kEpoch) {
    // Measure steady-state EPOCH: contended NewOrder keys make some seals
    // spike past the default demotion thresholds, and a mid-run EPOCH->GTM
    // fallback would silently turn this into a GTM measurement.
    options.health.epoch_abort_permille_limit = 1000;
    options.health.epoch_seal_latency_limit = 60 * kSecond;
  }
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
  int64_t epoch_ts_rpcs = 0;
  Histogram batch_sizes;
  Histogram epoch_batches;
  for (size_t i = 0; i < cluster.num_cns(); ++i) {
    gtm_rpcs += cluster.cn(i).timestamp_source().metrics().Get("ts.gtm_rpcs");
    epoch_ts_rpcs += cluster.cn(i).metrics().Get("epoch.commit_ts_rpcs");
    for (int64_t v :
         cluster.cn(i).metrics().Hist("cn.write_batch_size").values()) {
      batch_sizes.Record(v);
    }
    for (int64_t v :
         cluster.cn(i).metrics().Hist("epoch.seal_batch_size").values()) {
      epoch_batches.Record(v);
    }
  }
  const int64_t txns = result.run.stats.committed + result.run.stats.aborted;
  if (txns > 0) {
    result.gtm_rpcs_per_txn =
        static_cast<double>(gtm_rpcs) / static_cast<double>(txns);
  }
  if (result.run.stats.committed > 0) {
    result.epoch_commit_ts_rpcs_per_txn =
        static_cast<double>(epoch_ts_rpcs) /
        static_cast<double>(result.run.stats.committed);
  }
  result.mean_batch_entries = batch_sizes.mean();
  result.mean_epoch_batch = epoch_batches.mean();
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
  const bool gate_only = getenv("GDB_TXNPATH_GATE_ONLY") != nullptr;
  const SimDuration duration = BenchDuration();
  const int clients = BenchClients();
  TpccConfig config = MakeTpccConfig();
  // Every transaction's home warehouse lives behind a WAN link (the paper's
  // physical-affinity knob at its worst case): with local warehouses the
  // write statements and commit rounds never leave the region.
  config.remote_warehouse_fraction = 1.0;

  if (!gate_only) {
    PrintHeader("Ablation: commit protocol x RTT (TPC-C NewOrder, 3-region "
                "uniform RTT)",
                "mode    rtt_ms   NewOrder/min   p50_ms   p99_ms  "
                "gtm_rpcs/txn  batch_entries");
    const TimestampMode modes[] = {TimestampMode::kGtm, TimestampMode::kGclock,
                                   TimestampMode::kEpoch};
    const SimDuration rtts[] = {10 * kMillisecond, 50 * kMillisecond,
                                100 * kMillisecond};
    for (TimestampMode mode : modes) {
      for (SimDuration rtt : rtts) {
        TxnPathResult r = RunTxnPath(mode, rtt, config, clients, duration);
        printf("%-7s %6lld %14.0f %8.1f %8.1f %13.3f %14.1f\n",
               ModeLabel(mode), static_cast<long long>(rtt / kMillisecond),
               r.run.tpm, r.run.p50_ms, r.run.p99_ms, r.gtm_rpcs_per_txn,
               r.mean_batch_entries);
        fflush(stdout);
      }
    }

    PrintHeader("Epoch interval micro-sweep (EPOCH, 50 ms RTT): shorter "
                "epochs cut the seal wait, longer epochs amortize more "
                "members per grant",
                "interval_ms   NewOrder/min   p50_ms   p99_ms  "
                "commit_ts_rpcs/txn  members/seal");
    for (SimDuration interval :
         {1 * kMillisecond, 5 * kMillisecond, 20 * kMillisecond}) {
      TxnPathResult r = RunTxnPath(TimestampMode::kEpoch, 50 * kMillisecond,
                                   config, clients, duration, interval);
      printf("%11lld %14.0f %8.1f %8.1f %19.4f %13.1f\n",
             static_cast<long long>(interval / kMillisecond), r.run.tpm,
             r.run.p50_ms, r.run.p99_ms, r.epoch_commit_ts_rpcs_per_txn,
             r.mean_epoch_batch);
      fflush(stdout);
    }
  }

  // Epoch/group-commit gate (DESIGN.md §15): EPOCH vs a GTM baseline at the
  // same 50 ms RTT. The headline is the NewOrder commit tail: EPOCH replaces
  // the per-transaction timestamp fetch + 2PC rounds with one seal shared by
  // every member. The baseline protocol is overridable (GDB_TIMESTAMP_MODE=gclock compares against GClock), as
  // is the seal cadence (GDB_EPOCH_INTERVAL_MS, README knob table).
  const TimestampMode base_mode =
      TimestampModeFromEnv("GDB_TIMESTAMP_MODE", TimestampMode::kGtm);
  const char* interval_env = getenv("GDB_EPOCH_INTERVAL_MS");
  const SimDuration epoch_interval =
      (interval_env != nullptr ? atoll(interval_env) : 5) * kMillisecond;
  const TxnPathResult base =
      RunTxnPath(base_mode, 50 * kMillisecond, config, clients, duration);
  PrintHeader("Epoch/group-commit gate (50 ms RTT)",
              "mode     NewOrder/min   p50_ms   p99_ms  commit_ts_rpcs/txn");
  printf("%-7s %14.0f %8.1f %8.1f %19.4f\n", ModeLabel(base_mode),
         base.run.tpm, base.run.p50_ms, base.run.p99_ms,
         base.epoch_commit_ts_rpcs_per_txn);
  fflush(stdout);
  TxnPathResult epoch = RunTxnPath(TimestampMode::kEpoch, 50 * kMillisecond,
                                   config, clients, duration, epoch_interval);
  printf("%-7s %14.0f %8.1f %8.1f %19.4f\n", "EPOCH", epoch.run.tpm,
         epoch.run.p50_ms, epoch.run.p99_ms,
         epoch.epoch_commit_ts_rpcs_per_txn);
  const double epoch_speedup =
      epoch.run.p50_ms > 0 ? base.run.p50_ms / epoch.run.p50_ms : 0;
  printf("p50 speedup (%s/EPOCH): %.2fx   commit-ts RPCs per committed "
         "txn: %.4f\n",
         ModeLabel(base_mode), epoch_speedup,
         epoch.epoch_commit_ts_rpcs_per_txn);

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
            "  \"rtt_ms\": 50,\n"
            "  \"base_mode\": \"%s\",\n"
            "  \"base\": {\"neworder_per_min\": %.1f, \"p50_ms\": %.2f, "
            "\"p99_ms\": %.2f},\n"
            "  \"coalesce_clients\": 16,\n"
            "  \"gtm_rpcs_per_txn_coalesced\": %.4f,\n"
            "  \"coalesce_mean_batch\": %.2f,\n"
            "  \"epoch\": {\"neworder_per_min\": %.1f, \"p50_ms\": %.2f, "
            "\"p99_ms\": %.2f, \"members_per_seal\": %.2f},\n"
            "  \"epoch_speedup\": %.3f,\n"
            "  \"epoch_commit_ts_rpcs_per_txn\": %.4f\n"
            "}\n",
            ModeLabel(base_mode), base.run.tpm, base.run.p50_ms,
            base.run.p99_ms, merged.rpcs_per_txn, merged.mean_batch,
            epoch.run.tpm, epoch.run.p50_ms, epoch.run.p99_ms,
            epoch.mean_epoch_batch, epoch_speedup,
            epoch.epoch_commit_ts_rpcs_per_txn);
    fclose(f);
  }
  return 0;
}
