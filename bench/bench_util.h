#ifndef GLOBALDB_BENCH_BENCH_UTIL_H_
#define GLOBALDB_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "src/cluster/cluster.h"
#include "src/rpc/rpc_client.h"
#include "src/workload/driver.h"
#include "src/workload/sysbench.h"
#include "src/workload/tpcc.h"

namespace globaldb::bench {

/// Scaled-down run lengths so the full figure suite completes in minutes.
/// Override via environment: GDB_BENCH_DURATION_MS, GDB_BENCH_CLIENTS.
inline SimDuration BenchDuration() {
  const char* env = getenv("GDB_BENCH_DURATION_MS");
  return (env != nullptr ? atoll(env) : 2000) * kMillisecond;
}

inline int BenchClients() {
  const char* env = getenv("GDB_BENCH_CLIENTS");
  return env != nullptr ? atoi(env) : 360;
}

/// The two systems the paper compares.
enum class SystemKind {
  kBaseline,  // GaussDB: centralized GTM, synchronous quorum replication
              // (with a remote member), no ROR, stock TCP behavior
  kGlobalDb   // GClock, async replication, LZ redo compression, BBR,
              // Nagle off, read-on-replica
};

inline const char* SystemName(SystemKind kind) {
  return kind == SystemKind::kBaseline ? "Baseline-GaussDB" : "GlobalDB";
}

/// Cluster sizing shared by all figure benches: 3 CNs, 6 primary DNs,
/// 12 replica DNs — the paper's layout (Section V).
inline ClusterOptions MakeClusterOptions(SystemKind kind,
                                         sim::Topology topology) {
  ClusterOptions o;
  o.topology = std::move(topology);
  o.num_shards = 6;
  o.cns_per_region = static_cast<uint32_t>(
      3 / o.topology.num_regions() + (3 % o.topology.num_regions() ? 1 : 0));
  if (o.topology.num_regions() >= 3) o.cns_per_region = 1;
  o.replicas_per_shard = 2;

  // CPU model: calibrated so the One-Region cluster is CPU-bound at the
  // paper's client scale while geo latency dominates cross-city runs.
  o.data_node.cores = 2;
  o.data_node.read_cost = 25 * kMicrosecond;
  o.data_node.write_cost = 35 * kMicrosecond;
  o.data_node.commit_cost = 20 * kMicrosecond;
  o.replica_node.cores = 2;
  o.replica_node.read_cost = 25 * kMicrosecond;
  o.coordinator.cores = 4;
  o.coordinator.statement_cost = 5 * kMicrosecond;
  o.data_node.lock_timeout = 200 * kMillisecond;

  if (kind == SystemKind::kBaseline) {
    o.initial_mode = TimestampMode::kGtm;
    o.shipper.mode = ReplicationMode::kSyncQuorum;
    o.shipper.quorum_replicas = 1;  // nearest replica — remote in 3-city
    o.shipper.compression = CompressionType::kNone;
    o.network.nagle_enabled = true;
    o.network.bbr_enabled = false;
    o.coordinator.enable_ror = false;
  } else {
    o.initial_mode = TimestampMode::kGclock;
    o.shipper.mode = ReplicationMode::kAsync;
    o.shipper.compression = CompressionType::kLz;
    o.network.nagle_enabled = false;
    o.network.bbr_enabled = true;
    o.coordinator.enable_ror = true;
  }
  return o;
}

/// TPC-C scale for benches (warehouse count matches terminal count order,
/// as in the paper's 600/600 configuration, scaled 1:4).
inline TpccConfig MakeTpccConfig() {
  TpccConfig c;
  c.num_warehouses = 360;  // matches the default client count (paper: 600/600)
  c.districts_per_warehouse = 10;
  c.customers_per_district = 30;
  c.items = 1000;
  c.initial_orders_per_district = 8;
  return c;
}

struct RunResult {
  WorkloadStats stats;
  double tpm = 0;
  double tps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  /// Per-method RPC latency percentiles and retry counts aggregated across
  /// every client in the cluster (see FormatRpcStats).
  std::string rpc_stats;
};

/// Aggregates the `rpc.<method>.latency` / `rpc.<method>.retries` histograms
/// from every RPC client in a *started* cluster — CN call paths, timestamp
/// sources, RCP pollers, and log shippers — into one table, one method per
/// line with call count, p50/p95/p99 latency and total retries.
inline std::string FormatRpcStats(Cluster& cluster) {
  std::map<std::string, Histogram> latency;
  std::map<std::string, int64_t> retries;
  auto fold = [&](rpc::RpcClient& client) {
    for (auto& [name, hist] : client.metrics().histograms()) {
      if (name.rfind("rpc.", 0) != 0) continue;
      const std::string stem = name.substr(4);
      if (stem.size() <= 8) continue;
      const std::string method = stem.substr(0, stem.size() - 8);
      if (stem.compare(stem.size() - 8, 8, ".latency") == 0) {
        Histogram& merged = latency[method];
        for (int64_t v : hist.values()) merged.Record(v);
      } else if (stem.compare(stem.size() - 8, 8, ".retries") == 0) {
        for (int64_t v : hist.values()) retries[method] += v;
      }
    }
  };
  for (size_t i = 0; i < cluster.num_cns(); ++i) {
    CoordinatorNode& cn = cluster.cn(i);
    fold(cn.rpc_client());
    fold(cn.timestamp_source().rpc_client());
    fold(cn.rcp_service().rpc_client());
  }
  for (ShardId shard = 0; shard < cluster.num_shards(); ++shard) {
    LogShipper* shipper = cluster.data_node(shard).shipper();
    if (shipper != nullptr) fold(shipper->rpc_client());
  }

  std::string out =
      "    rpc method         calls  p50(us)  p95(us)  p99(us)  retries\n";
  char line[160];
  for (auto& [method, hist] : latency) {
    snprintf(line, sizeof(line),
             "    %-16s %8zu %8.0f %8.0f %8.0f %8lld\n", method.c_str(),
             hist.count(), hist.Percentile(50) / 1e3,
             hist.Percentile(95) / 1e3, hist.Percentile(99) / 1e3,
             static_cast<long long>(retries[method]));
    out += line;
  }
  return out;
}

/// Aggregates the commit-phase and write-batching histograms from every CN
/// (DESIGN.md §10 observability): per-phase commit latency (precommit /
/// commit-ts / phase-2), flushed batch sizes, and the GTM coalescing batch
/// sizes from the timestamp sources. One line per non-empty histogram, plus
/// a counter line for the 2PC outcome-recovery path (DESIGN.md §13):
/// coordinator phase-2 re-drives, promoted-primary outcome queries,
/// decision-memo duplicate hits, and promotion aborts split into
/// resolved-by-query vs presumed.
inline std::string FormatCommitPhaseStats(Cluster& cluster) {
  const char* cn_hists[] = {"cn.precommit_us", "cn.commit_ts_us",
                            "cn.commit_phase2_us", "cn.write_batch_size"};
  std::map<std::string, Histogram> merged;
  for (size_t i = 0; i < cluster.num_cns(); ++i) {
    for (const char* name : cn_hists) {
      for (int64_t v : cluster.cn(i).metrics().Hist(name).values()) {
        merged[name].Record(v);
      }
    }
    for (int64_t v : cluster.cn(i)
                         .timestamp_source()
                         .metrics()
                         .Hist("ts.coalesce_batch")
                         .values()) {
      merged["ts.coalesce_batch"].Record(v);
    }
  }
  std::string out =
      "    txn path stat        count     mean      p50      p95      p99\n";
  char line[160];
  for (auto& [name, hist] : merged) {
    if (hist.count() == 0) continue;
    snprintf(line, sizeof(line),
             "    %-18s %8zu %8.1f %8lld %8lld %8lld\n", name.c_str(),
             hist.count(), hist.mean(),
             static_cast<long long>(hist.Percentile(50)),
             static_cast<long long>(hist.Percentile(95)),
             static_cast<long long>(hist.Percentile(99)));
    out += line;
  }
  int64_t commit_retries = 0;
  for (size_t i = 0; i < cluster.num_cns(); ++i) {
    commit_retries += cluster.cn(i).metrics().Get("cn.commit_retries");
  }
  int64_t outcome_queries = 0;
  int64_t dedup_hits = 0;
  int64_t aborts_resolved = 0;
  int64_t aborts_presumed = 0;
  for (ShardId shard = 0; shard < cluster.num_shards(); ++shard) {
    Metrics& dn = cluster.data_node(shard).metrics();
    outcome_queries += dn.Get("dn.outcome_queries");
    dedup_hits += dn.Get("dn.decision_dedup_hits");
    aborts_resolved += dn.Get("dn.promotion_aborts_resolved");
    aborts_presumed += dn.Get("dn.promotion_aborts_presumed");
  }
  snprintf(line, sizeof(line),
           "    commit_retries=%lld outcome_queries=%lld "
           "decision_dedup_hits=%lld promotion_aborts_resolved=%lld "
           "promotion_aborts_presumed=%lld\n",
           static_cast<long long>(commit_retries),
           static_cast<long long>(outcome_queries),
           static_cast<long long>(dedup_hits),
           static_cast<long long>(aborts_resolved),
           static_cast<long long>(aborts_presumed));
  out += line;
  return out;
}

/// Aggregates the read-path batching stats from every CN (DESIGN.md §11 and
/// §14 observability): the MultiGet batch-size and per-target fan-out
/// histograms, the ScanBatch size / fan-out / merged-row histograms, a
/// counter line with the flush-barrier count and the replica-vs-primary
/// split of the batch RPCs, and a scan line with the chunk count, the
/// server-side rows filtered out by predicate pushdown (summed across
/// primaries and replicas), and the pushdown-limit hit rate (ranges whose
/// scan stopped early at the pushed-down limit / ranges served).
inline std::string FormatReadPathStats(Cluster& cluster) {
  const char* cn_hists[] = {"cn.read_batch_size", "cn.multiget_fanout",
                            "cn.scan_batch_size", "cn.scan_fanout",
                            "cn.scan_merge_rows"};
  const char* cn_counters[] = {"cn.multigets", "cn.multiget_flush_barriers",
                               "cn.read_batch_replica",
                               "cn.read_batch_primary",
                               "cn.replica_failovers",
                               "cn.scan_batches",
                               "cn.scan_flush_barriers",
                               "cn.scan_chunks"};
  std::map<std::string, Histogram> merged;
  std::map<std::string, int64_t> counters;
  for (size_t i = 0; i < cluster.num_cns(); ++i) {
    for (const char* name : cn_hists) {
      for (int64_t v : cluster.cn(i).metrics().Hist(name).values()) {
        merged[name].Record(v);
      }
    }
    for (const char* name : cn_counters) {
      counters[name] += cluster.cn(i).metrics().Get(name);
    }
  }
  std::string out =
      "    read path stat       count     mean      p50      p95      p99\n";
  char line[160];
  for (auto& [name, hist] : merged) {
    if (hist.count() == 0) continue;
    snprintf(line, sizeof(line),
             "    %-18s %8zu %8.1f %8lld %8lld %8lld\n", name.c_str(),
             hist.count(), hist.mean(),
             static_cast<long long>(hist.Percentile(50)),
             static_cast<long long>(hist.Percentile(95)),
             static_cast<long long>(hist.Percentile(99)));
    out += line;
  }
  snprintf(line, sizeof(line),
           "    multigets=%lld flush_barriers=%lld replica_batches=%lld "
           "primary_batches=%lld failovers=%lld\n",
           static_cast<long long>(counters["cn.multigets"]),
           static_cast<long long>(counters["cn.multiget_flush_barriers"]),
           static_cast<long long>(counters["cn.read_batch_replica"]),
           static_cast<long long>(counters["cn.read_batch_primary"]),
           static_cast<long long>(counters["cn.replica_failovers"]));
  out += line;
  int64_t scan_ranges = 0, scan_rows_filtered = 0, scan_limit_hits = 0;
  int64_t scan_join_lookups = 0;
  for (ShardId shard = 0; shard < cluster.num_shards(); ++shard) {
    Metrics& dn = cluster.data_node(shard).metrics();
    scan_ranges += dn.Get("dn.scan_ranges");
    scan_rows_filtered += dn.Get("dn.scan_rows_filtered");
    scan_limit_hits += dn.Get("dn.scan_limit_hits");
    scan_join_lookups += dn.Get("dn.scan_join_lookups");
    for (ReplicaNode* rep : cluster.replicas_of(shard)) {
      scan_ranges += rep->metrics().Get("ror.scan_ranges");
      scan_rows_filtered += rep->metrics().Get("ror.scan_rows_filtered");
      scan_limit_hits += rep->metrics().Get("ror.scan_limit_hits");
      scan_join_lookups += rep->metrics().Get("ror.scan_join_lookups");
    }
  }
  const double limit_hit_rate =
      scan_ranges > 0 ? static_cast<double>(scan_limit_hits) /
                            static_cast<double>(scan_ranges)
                      : 0.0;
  snprintf(line, sizeof(line),
           "    scan_batches=%lld scan_chunks=%lld scan_flush_barriers=%lld "
           "scan_rows_filtered=%lld scan_join_lookups=%lld "
           "limit_hit_rate=%.2f\n",
           static_cast<long long>(counters["cn.scan_batches"]),
           static_cast<long long>(counters["cn.scan_chunks"]),
           static_cast<long long>(counters["cn.scan_flush_barriers"]),
           static_cast<long long>(scan_rows_filtered),
           static_cast<long long>(scan_join_lookups), limit_hit_rate);
  out += line;
  return out;
}

/// Stands up a cluster, loads TPC-C, runs the mix, returns stats.
inline RunResult RunTpcc(SystemKind kind, sim::Topology topology,
                         TpccConfig config, int clients,
                         SimDuration duration, uint64_t seed = 7) {
  sim::Simulator sim(seed);
  Cluster cluster(&sim, MakeClusterOptions(kind, std::move(topology)));
  cluster.Start();
  TpccWorkload tpcc(&cluster, config);
  Status s = tpcc.Setup();
  GDB_CHECK(s.ok()) << s.ToString();
  cluster.WaitForRcp();
  sim.RunFor(300 * kMillisecond);

  WorkloadDriver::Options options;
  options.clients = clients;
  options.warmup = 400 * kMillisecond;
  options.duration = duration;
  WorkloadDriver driver(&cluster, options);
  RunResult result;
  result.stats = driver.Run(tpcc.MixFn());
  if (getenv("GDB_BENCH_DEBUG") != nullptr) {
    int64_t dn_busy = 0, dn_queue = 0, lock_waits = 0, lock_timeouts = 0;
    int64_t replica_busy = 0;
    for (ShardId sh = 0; sh < cluster.num_shards(); ++sh) {
      dn_busy += cluster.data_node(sh).cpu().busy_ns();
      dn_queue += cluster.data_node(sh).cpu().queue_delay_ns();
      lock_waits += cluster.data_node(sh).locks().metrics().Get("lock.waits");
      lock_timeouts +=
          cluster.data_node(sh).locks().metrics().Get("lock.timeouts");
      for (ReplicaNode* rep : cluster.replicas_of(sh)) {
        replica_busy += rep->cpu().busy_ns();
      }
    }
    int64_t replica_reads = 0, primary_reads = 0;
    for (size_t i = 0; i < cluster.num_cns(); ++i) {
      replica_reads += cluster.cn(i).metrics().Get("cn.replica_reads");
      primary_reads += cluster.cn(i).metrics().Get("cn.primary_reads");
    }
    printf("    dn_busy=%.2fs dn_queue=%.2fs repl_busy=%.2fs lock_waits=%lld "
           "lock_timeouts=%lld repl_reads=%lld prim_reads=%lld\n",
           dn_busy / 1e9, dn_queue / 1e9, replica_busy / 1e9,
           (long long)lock_waits, (long long)lock_timeouts,
           (long long)replica_reads, (long long)primary_reads);
  }
  result.rpc_stats = FormatRpcStats(cluster);
  if (getenv("GDB_BENCH_RPC_STATS") != nullptr) {
    printf("%s%s%s", result.rpc_stats.c_str(),
           FormatCommitPhaseStats(cluster).c_str(),
           FormatReadPathStats(cluster).c_str());
  }
  result.tpm = result.stats.PerMinute();
  result.tps = result.stats.Throughput();
  result.p50_ms =
      static_cast<double>(result.stats.latency.Percentile(50)) / kMillisecond;
  result.p99_ms =
      static_cast<double>(result.stats.latency.Percentile(99)) / kMillisecond;
  return result;
}

/// Same for sysbench point select, with explicit cluster options.
inline RunResult RunSysbenchPointSelectWith(ClusterOptions cluster_options,
                                            SysbenchConfig config,
                                            int clients, SimDuration duration,
                                            uint64_t seed = 7) {
  sim::Simulator sim(seed);
  Cluster cluster(&sim, std::move(cluster_options));
  cluster.Start();
  SysbenchWorkload sysbench(&cluster, config);
  Status s = sysbench.Setup();
  GDB_CHECK(s.ok()) << s.ToString();
  cluster.WaitForRcp();
  sim.RunFor(300 * kMillisecond);

  WorkloadDriver::Options options;
  options.clients = clients;
  options.warmup = 500 * kMillisecond;
  options.duration = duration;
  WorkloadDriver driver(&cluster, options);
  RunResult result;
  result.stats = driver.Run(sysbench.PointSelectFn());
  result.rpc_stats = FormatRpcStats(cluster);
  if (getenv("GDB_BENCH_RPC_STATS") != nullptr) {
    printf("%s%s%s", result.rpc_stats.c_str(),
           FormatCommitPhaseStats(cluster).c_str(),
           FormatReadPathStats(cluster).c_str());
  }
  result.tpm = result.stats.PerMinute();
  result.tps = result.stats.Throughput();
  result.p50_ms =
      static_cast<double>(result.stats.latency.Percentile(50)) / kMillisecond;
  result.p99_ms =
      static_cast<double>(result.stats.latency.Percentile(99)) / kMillisecond;
  return result;
}

inline RunResult RunSysbenchPointSelect(SystemKind kind,
                                        sim::Topology topology,
                                        SysbenchConfig config, int clients,
                                        SimDuration duration,
                                        uint64_t seed = 7) {
  return RunSysbenchPointSelectWith(
      MakeClusterOptions(kind, std::move(topology)), config, clients,
      duration, seed);
}

inline void PrintHeader(const char* title, const char* columns) {
  printf("\n=== %s ===\n%s\n", title, columns);
}

}  // namespace globaldb::bench

#endif  // GLOBALDB_BENCH_BENCH_UTIL_H_
