// geobench: the repository benchmark binary. Open-loop three-city TPC-C
// against the paper's GlobalDB cluster (GClock, async LZ-compressed redo
// shipping, read-on-replica), one workload per invocation:
//
//   geobench --workload tpcc_geo_rw|tpcc_geo_ro|tpcc_geo_failover
//            --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// Everything runs in this one thread: the simulator is a single event loop
// and every simulated client transaction is a coroutine. Arrivals are a
// Poisson process drawn from --seed and rotated round-robin over the three
// CNs (clients in every city); each transaction is timed from its scheduled
// arrival. The measured window is a fixed simulated length (--seconds times a
// per-workload calibration), so every simulated metric is a pure function of
// the seed; only the wall-clock and memory metrics vary between runs.
//
// The last line of stdout is one JSON object: correctness verdict, attempted
// and failed counts, the end-to-end metrics ("e2e"), the simulated metrics
// the determinism guard compares ("sim"), and with --trace 1 the per-layer
// metrics ("layer"). geobench/run.py turns it into the benchmark contract's
// output; geobench/README.md documents every metric.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/chaos/fault_scheduler.h"

namespace globaldb::geobench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  /// Offered Poisson arrival rate, transactions per simulated second.
  double rate_tps;
  /// Simulated seconds measured per --seconds of wall budget: calibrated so
  /// one window takes about --seconds of wall time on a 4-core x86 host.
  double sim_s_per_wall_s;
  bool read_only;
  bool failover;
  /// Transaction kind behind headline_p50_ms / headline_p99_ms.
  const char* headline_kind;
};

// Rationale for each workload is in README.md ("Workloads").
constexpr WorkloadSpec kWorkloads[] = {
    {"tpcc_geo_rw", 6000.0, 0.25, false, false, "neworder"},
    {"tpcc_geo_ro", 6000.0, 0.39, true, false, "stocklevel"},
    {"tpcc_geo_failover", 2000.0, 0.45, false, true, "neworder"},
};

const char* const kKinds[] = {"neworder", "payment", "orderstatus",
                              "delivery", "stocklevel"};
constexpr int kNumKinds = 5;

int KindIndex(const std::string& kind) {
  for (int i = 0; i < kNumKinds; ++i) {
    if (kind == kKinds[i]) return i;
  }
  return kNumKinds;  // unknown kind: counted, never reported per kind
}

/// Arrivals run this long before the measured window opens, so queues, the
/// write batcher and the replication pipeline reach steady state first.
constexpr SimDuration kWarmup = 500 * kMillisecond;
/// Arrivals keep coming this long after the window closes, so the last
/// measured transactions still see steady load.
constexpr SimDuration kCooldown = 300 * kMillisecond;
/// A measured transaction still unanswered this long after the window
/// closes counts as failed (outstanding).
constexpr SimDuration kDeadline = 1 * kSecond;
/// Setups per run; setup_s is their median (the first pays the page faults
/// of a fresh heap, see README.md).
constexpr int kSetups = 3;
/// Gauge cadence: ROR staleness on every CN, promotion detection, replica lag.
constexpr SimDuration kSampleEvery = 1 * kMillisecond;

ClusterOptions MakeOptions(const WorkloadSpec& w) {
  ClusterOptions o = bench::MakeClusterOptions(bench::SystemKind::kGlobalDb,
                                               sim::Topology::ThreeCity());
  if (w.failover) {
    // Probe settings of the durability soak (bench/soak_durability.cc).
    o.health.primary_failover = true;
    o.health.probe_interval = 40 * kMillisecond;
    o.health.probe_timeout = 120 * kMillisecond;
    o.health.primary_miss_threshold = 2;
    // Async shipping acknowledges commits before any replica holds them, so
    // a primary crash may lose an acknowledged tail by design. The
    // no-acknowledged-loss check is only meaningful with a quorum ack (the
    // setting the failover chaos tests use), so this workload takes it.
    o.shipper.mode = ReplicationMode::kSyncQuorum;
    o.shipper.quorum_replicas = 1;
    // Known defect (README.md, "Known defect"): a re-driven one-shard
    // dn.commit that reaches a promoted primary which never replayed the
    // transaction's writes commits nothing yet acknowledges, so acknowledged
    // commits are lost. Commit re-drive stays off here until that is fixed;
    // aborts still re-drive.
    o.coordinator.commit_retry_limit = 0;
  }
  return o;
}

TpccConfig MakeConfig(const WorkloadSpec& w) {
  TpccConfig c = bench::MakeTpccConfig();
  if (w.read_only) {
    c.read_only_mix = true;
    c.read_only_multi_shard_fraction = 0.5;
  } else if (w.failover) {
    // With 30% remote homes plus the NewOrders a promotion stalls, barely
    // half of NewOrder latencies sit in the fast local mode and the median
    // jumps across the gap between modes from seed to seed; 10% keeps it
    // inside the local mode.
    c.remote_warehouse_fraction = 0.1;
  } else {
    c.remote_warehouse_fraction = 0.3;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

struct Setup {
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<TpccWorkload> tpcc;
  double cluster_s = 0;
  double load_s = 0;
  double warmup_s = 0;
  double total_s = 0;
  int64_t minor_faults = 0;
};

int64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

/// Builds the cluster, loads TPC-C and warms the RCP up: everything between
/// process start and the first arrival.
Setup BuildSetup(const WorkloadSpec& w, uint64_t seed) {
  Setup s;
  const int64_t faults_before = MinorFaults();
  const Clock::time_point t0 = Clock::now();
  s.sim = std::make_unique<sim::Simulator>(seed);
  s.cluster = std::make_unique<Cluster>(s.sim.get(), MakeOptions(w));
  s.cluster->Start();
  s.cluster_s = SecondsSince(t0);

  const Clock::time_point t1 = Clock::now();
  s.tpcc = std::make_unique<TpccWorkload>(s.cluster.get(), MakeConfig(w), seed);
  Status status = s.tpcc->Setup();
  GDB_CHECK(status.ok()) << status.ToString();
  s.load_s = SecondsSince(t1);

  const Clock::time_point t2 = Clock::now();
  s.cluster->WaitForRcp();
  s.sim->RunFor(300 * kMillisecond);
  s.warmup_s = SecondsSince(t2);
  s.total_s = SecondsSince(t0);
  s.minor_faults = MinorFaults() - faults_before;
  return s;
}

// ---------------------------------------------------------------------------
// Open-loop load
// ---------------------------------------------------------------------------

/// One transaction: the benchmark's span around its TxnFn call.
struct Span {
  SimTime arrival = 0;
  SimTime start = 0;
  SimTime end = -1;  // -1 while outstanding
  int kind = kNumKinds;
  RegionId region = 0;
  StatusCode code = StatusCode::kOk;
};

struct Crash {
  ShardId shard = 0;
  SimTime at = 0;
  NodeId old_primary = kInvalidNodeId;
  SimTime promoted_at = -1;
};

struct RunState {
  sim::Simulator* sim = nullptr;
  Cluster* cluster = nullptr;
  TxnFn fn;
  bool trace = false;
  double rate_tps = 0;
  uint64_t seed = 0;

  SimTime gen_start = 0;
  SimTime window_start = 0;
  SimTime window_end = 0;
  SimTime gen_end = 0;

  std::vector<Span> spans;
  int64_t outstanding = 0;
  int64_t outstanding_max = 0;  // inside the window
  int64_t acked_neworders = 0;  // whole run, for the correctness checks
  int64_t acked_payments = 0;

  bool sampling = true;
  std::vector<int64_t> staleness_ns;    // window samples, every CN
  std::vector<int64_t> replica_lag_ns;  // window samples (trace only)
  std::vector<Crash> crashes;
};

bool InWindow(const RunState& st, SimTime t) {
  return t >= st.window_start && t < st.window_end;
}

sim::Task<void> RunTxn(RunState* st, CoordinatorNode* cn, size_t index,
                       uint64_t txn_seed) {
  Rng rng(txn_seed);
  st->spans[index].start = st->sim->now();
  ++st->outstanding;
  if (InWindow(*st, st->sim->now())) {
    st->outstanding_max = std::max(st->outstanding_max, st->outstanding);
  }
  TxnResult result = co_await st->fn(cn, &rng);
  --st->outstanding;
  Span& span = st->spans[index];
  span.end = st->sim->now();
  span.kind = KindIndex(result.kind);
  span.code = result.status.code();
  if (result.status.ok()) {
    if (span.kind == 0) ++st->acked_neworders;
    if (span.kind == 1) ++st->acked_payments;
  }
}

/// Poisson arrivals over [gen_start, gen_end), round-robin over the CNs.
/// Inter-arrival gaps and every transaction's private Rng seed come from one
/// generator seeded by --seed.
sim::Task<void> Generator(RunState* st) {
  Rng arrivals(st->seed * 0x9e3779b97f4a7c15ULL + 0x5851f42d4c957f2dULL);
  const double mean_gap_ns = 1e9 / st->rate_tps;
  const size_t num_cns = st->cluster->num_cns();
  SimTime t = st->gen_start;
  for (uint64_t i = 0;; ++i) {
    t += static_cast<SimTime>(arrivals.Exponential(mean_gap_ns));
    if (t >= st->gen_end) break;
    co_await st->sim->SleepUntil(t);
    CoordinatorNode* cn = &st->cluster->cn(i % num_cns);
    Span span;
    span.arrival = t;
    span.region = cn->region();
    st->spans.push_back(span);
    st->sim->Spawn(RunTxn(st, cn, st->spans.size() - 1, arrivals.Next()));
  }
}

/// Fixed-cadence gauges. Runs identically with and without tracing (the
/// traced run only reads more state), so tracing never moves simulated time.
sim::Task<void> Sampler(RunState* st) {
  Cluster& cluster = *st->cluster;
  while (st->sampling) {
    co_await st->sim->Sleep(kSampleEvery);
    const SimTime now = st->sim->now();
    const bool in_window = InWindow(*st, now);
    // ROR staleness by the CN's own definition (CoordinatorNode::Begin).
    for (size_t i = 0; i < cluster.num_cns(); ++i) {
      CoordinatorNode& cn = cluster.cn(i);
      const Timestamp rcp = cn.rcp();
      const SimTime reading = cn.clock().Read();
      if (in_window && rcp > 0) {
        st->staleness_ns.push_back(reading - static_cast<SimTime>(rcp));
      }
    }
    for (Crash& crash : st->crashes) {
      if (crash.promoted_at < 0 && now >= crash.at &&
          cluster.primary_node_id(crash.shard) != crash.old_primary) {
        crash.promoted_at = now;
      }
    }
    if (st->trace && in_window) {
      for (ShardId s = 0; s < cluster.num_shards(); ++s) {
        const Timestamp primary_ts = cluster.data_node(s).max_commit_ts();
        for (ReplicaNode* replica : cluster.replicas_of(s)) {
          if (replica->node_id() == cluster.primary_node_id(s)) continue;
          const Timestamp replica_ts = replica->applier().max_commit_ts();
          st->replica_lag_ns.push_back(
              primary_ts > replica_ts
                  ? static_cast<int64_t>(primary_ts - replica_ts)
                  : 0);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (p in [0, 1]) of `v`; 0 when empty.
double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

std::vector<double> ToMs(const std::vector<int64_t>& ns) {
  std::vector<double> out;
  out.reserve(ns.size());
  for (int64_t x : ns) out.push_back(static_cast<double>(x) / 1e6);
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Module counters: snapshots before and after the measured window
// ---------------------------------------------------------------------------

/// One module instance whose counters the benchmark reads. Pseudo-counters
/// (CPU busy/queue time, redo bytes) come from the CpuScheduler and LogStream
/// accessors. Objects replaced by a promotion stay alive inside the Cluster,
/// so a reader taken before the window can still be read after it.
struct Reader {
  const void* key = nullptr;
  std::vector<Metrics*> metrics;
  std::function<void(std::map<std::string, int64_t>*)> extra;
};

std::vector<Reader> ListReaders(Cluster& cluster,
                                chaos::FaultScheduler* faults) {
  std::vector<Reader> out;
  for (size_t i = 0; i < cluster.num_cns(); ++i) {
    CoordinatorNode* cn = &cluster.cn(i);
    out.push_back({cn,
                   {&cn->metrics(), &cn->rpc_client().metrics(),
                    &cn->timestamp_source().metrics(),
                    &cn->timestamp_source().rpc_client().metrics(),
                    &cn->rcp_service().metrics(),
                    &cn->rcp_service().rpc_client().metrics()},
                   nullptr});
  }
  for (ShardId s = 0; s < cluster.num_shards(); ++s) {
    DataNode* dn = &cluster.data_node(s);
    Reader r{dn, {&dn->metrics(), &dn->locks().metrics()}, nullptr};
    if (LogShipper* shipper = dn->shipper()) {
      r.metrics.push_back(&shipper->metrics());
      r.metrics.push_back(&shipper->rpc_client().metrics());
    }
    r.extra = [dn](std::map<std::string, int64_t>* c) {
      (*c)["cpu.dn.busy_ns"] += dn->cpu().busy_ns();
      (*c)["cpu.dn.queue_ns"] += dn->cpu().queue_delay_ns();
      (*c)["log.redo_bytes"] += static_cast<int64_t>(dn->log().total_bytes());
    };
    out.push_back(std::move(r));
    std::vector<ReplicaNode*> replicas = cluster.replicas_of(s);
    for (ReplicaNode* rep : cluster.revived_replicas_of(s)) {
      replicas.push_back(rep);
    }
    for (ReplicaNode* rep : replicas) {
      Reader rr{rep, {&rep->metrics(), &rep->applier().metrics()}, nullptr};
      rr.extra = [rep](std::map<std::string, int64_t>* c) {
        (*c)["cpu.replica.busy_ns"] += rep->cpu().busy_ns();
        (*c)["cpu.replica.queue_ns"] += rep->cpu().queue_delay_ns();
      };
      out.push_back(std::move(rr));
    }
  }
  HealthMonitor* health = &cluster.health();
  out.push_back({health, {&health->metrics(), &health->rpc_client().metrics()},
                 nullptr});
  // Network counters share the "rpc." prefix with the clients' own; they are
  // renamed "net.*" so the two never sum together.
  sim::Network* net = &cluster.network();
  out.push_back({net, {}, [net](std::map<std::string, int64_t>* c) {
                   for (const auto& [name, value] : net->metrics().counters()) {
                     (*c)["net." + name] += value;
                   }
                 }});
  if (faults != nullptr) out.push_back({faults, {&faults->metrics()}, nullptr});
  return out;
}

std::map<std::string, int64_t> ReadCounters(const Reader& r) {
  std::map<std::string, int64_t> c;
  for (Metrics* m : r.metrics) {
    for (const auto& [name, value] : m->counters()) c[name] += value;
  }
  if (r.extra) r.extra(&c);
  return c;
}

struct WindowSnapshot {
  std::vector<Reader> readers;
  std::map<const void*, std::map<std::string, int64_t>> counters;
  /// Histogram sizes per Metrics object, so the window's samples are the
  /// values appended after the snapshot (histograms keep insertion order).
  std::map<const Metrics*, std::map<std::string, size_t>> hist_sizes;
};

WindowSnapshot TakeSnapshot(std::vector<Reader> readers) {
  WindowSnapshot snap;
  for (const Reader& r : readers) {
    snap.counters[r.key] = ReadCounters(r);
    for (Metrics* m : r.metrics) {
      for (auto& [name, hist] : m->histograms()) {
        snap.hist_sizes[m][name] = hist.values().size();
      }
    }
  }
  snap.readers = std::move(readers);
  return snap;
}

/// Counter deltas and histogram samples of the measured window.
struct WindowCounters {
  std::map<std::string, int64_t> delta;
  std::map<std::string, int64_t> before;
  std::map<std::string, int64_t> after;
  std::map<std::string, std::vector<double>> hist;

  int64_t C(const std::string& name) const {
    auto it = delta.find(name);
    return it == delta.end() ? 0 : it->second;
  }
  const std::vector<double>& H(const std::string& name) const {
    static const std::vector<double> kEmpty;
    auto it = hist.find(name);
    return it == hist.end() ? kEmpty : it->second;
  }
};

WindowCounters DiffSnapshots(const WindowSnapshot& start,
                             const WindowSnapshot& end) {
  WindowCounters w;
  std::set<const void*> seen;
  std::set<const Metrics*> seen_metrics;
  auto visit = [&](const Reader& r) {
    if (!seen.insert(r.key).second) return;
    const std::map<std::string, int64_t> after = ReadCounters(r);
    auto before_it = start.counters.find(r.key);
    for (const auto& [name, value] : after) w.after[name] += value;
    if (before_it != start.counters.end()) {
      for (const auto& [name, value] : before_it->second) {
        w.before[name] += value;
      }
    }
    for (Metrics* m : r.metrics) {
      if (!seen_metrics.insert(m).second) continue;
      auto sizes_it = start.hist_sizes.find(m);
      for (auto& [name, hist] : m->histograms()) {
        size_t from = 0;
        if (sizes_it != start.hist_sizes.end()) {
          auto it = sizes_it->second.find(name);
          if (it != sizes_it->second.end()) from = it->second;
        }
        std::vector<double>& out = w.hist[name];
        const std::vector<int64_t>& values = hist.values();
        for (size_t i = from; i < values.size(); ++i) {
          out.push_back(static_cast<double>(values[i]));
        }
      }
    }
  };
  // Readers from the window start first (they include objects a promotion
  // replaced), then objects that appeared during the window.
  for (const Reader& r : start.readers) visit(r);
  for (const Reader& r : end.readers) visit(r);
  for (const auto& [name, value] : w.after) {
    auto it = w.before.find(name);
    w.delta[name] = value - (it == w.before.end() ? 0 : it->second);
  }
  return w;
}

// ---------------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------------

constexpr Timestamp kLatest = kTimestampMax - 1;

std::vector<MvccTable::ScanEntry> ScanAll(const ShardStore& store,
                                          TableId table) {
  const MvccTable* t = store.GetTable(table);
  if (t == nullptr) return {};
  return t->Scan(RowKey(), RowKey(), kLatest, kInvalidTxnId, SIZE_MAX,
                 nullptr);
}

int64_t AsInt(const Value& v) { return std::get<int64_t>(v); }
double AsDouble(const Value& v) { return std::get<double>(v); }

/// Runs every check on the drained cluster; returns the failures.
std::vector<std::string> CheckCorrectness(Cluster& cluster,
                                          const TpccConfig& config,
                                          const RunState& st,
                                          bool failover) {
  std::vector<std::string> errors;
  auto fail = [&](std::string msg) {
    if (errors.size() < 20) errors.push_back(std::move(msg));
  };
  const Catalog& catalog = cluster.cn(0).catalog();
  auto table_id = [&](const char* name) -> TableId {
    const TableSchema* schema = catalog.FindTable(name);
    GDB_CHECK(schema != nullptr) << name;
    return schema->id;
  };
  const TableId warehouse = table_id("warehouse");
  const TableId district = table_id("district");
  const TableId orders = table_id("orders");
  const TableId new_order = table_id("new_order");
  const TableId history = table_id("history");

  std::map<int64_t, double> w_ytd;
  std::map<int64_t, double> d_ytd_sum;
  std::map<std::pair<int64_t, int64_t>, int64_t> d_next;
  std::map<std::pair<int64_t, int64_t>, int64_t> max_o;
  std::map<std::pair<int64_t, int64_t>, int64_t> max_no;
  int64_t order_rows = 0;
  int64_t history_rows = 0;
  auto decode = [&](const MvccTable::ScanEntry& e, Row* row) {
    Status s = DecodeRow(Slice(e.value), row);
    if (!s.ok()) fail("undecodable row: " + s.ToString());
    return s.ok();
  };
  for (ShardId s = 0; s < cluster.num_shards(); ++s) {
    const ShardStore& store = cluster.data_node(s).store();
    Row row;
    for (const auto& e : ScanAll(store, warehouse)) {
      if (decode(e, &row)) w_ytd[AsInt(row[0])] = AsDouble(row[2]);
    }
    for (const auto& e : ScanAll(store, district)) {
      if (!decode(e, &row)) continue;
      d_ytd_sum[AsInt(row[0])] += AsDouble(row[3]);
      d_next[{AsInt(row[0]), AsInt(row[1])}] = AsInt(row[4]);
    }
    for (const auto& e : ScanAll(store, orders)) {
      if (!decode(e, &row)) continue;
      ++order_rows;
      int64_t& m = max_o[{AsInt(row[0]), AsInt(row[1])}];
      m = std::max(m, AsInt(row[2]));
    }
    for (const auto& e : ScanAll(store, new_order)) {
      if (!decode(e, &row)) continue;
      int64_t& m = max_no[{AsInt(row[0]), AsInt(row[1])}];
      m = std::max(m, AsInt(row[2]));
    }
    history_rows += static_cast<int64_t>(ScanAll(store, history).size());
  }

  // TPC-C 3.3.2.1: W_YTD = sum(D_YTD).
  if (static_cast<int>(w_ytd.size()) != config.num_warehouses) {
    fail("warehouse rows: " + std::to_string(w_ytd.size()));
  }
  for (const auto& [w, ytd] : w_ytd) {
    const double sum = d_ytd_sum[w];
    if (std::fabs(ytd - sum) > 1e-6 * std::max(1.0, std::fabs(ytd))) {
      fail("W_YTD != sum(D_YTD) for w=" + std::to_string(w));
    }
  }
  // TPC-C 3.3.2.2: D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID).
  const size_t districts = static_cast<size_t>(config.num_warehouses) *
                           static_cast<size_t>(config.districts_per_warehouse);
  if (d_next.size() != districts) {
    fail("district rows: " + std::to_string(d_next.size()));
  }
  for (const auto& [wd, next] : d_next) {
    const std::string id =
        std::to_string(wd.first) + "/" + std::to_string(wd.second);
    if (max_o[wd] != next - 1) fail("D_NEXT_O_ID-1 != max(O_ID) at " + id);
    // Delivery may have emptied a district's new-order queue; the condition
    // applies while it holds rows.
    auto it = max_no.find(wd);
    if (it != max_no.end() && it->second != next - 1) {
      fail("D_NEXT_O_ID-1 != max(NO_O_ID) at " + id);
    }
  }
  // Every acknowledged NewOrder / Payment left its row (a transaction whose
  // acknowledgement was lost may still have committed, hence <=).
  const int64_t initial_orders =
      static_cast<int64_t>(districts) * config.initial_orders_per_district;
  if (st.acked_neworders > order_rows - initial_orders) {
    fail("acknowledged NewOrders " + std::to_string(st.acked_neworders) +
         " > orders added " + std::to_string(order_rows - initial_orders));
  }
  if (st.acked_payments > history_rows) {
    fail("acknowledged Payments " + std::to_string(st.acked_payments) +
         " > history rows " + std::to_string(history_rows));
  }

  // Every replica holds exactly its primary's rows, table by table.
  for (ShardId s = 0; s < cluster.num_shards(); ++s) {
    DataNode& primary = cluster.data_node(s);
    std::vector<ReplicaNode*> replicas;
    for (ReplicaNode* rep : cluster.replicas_of(s)) {
      if (rep->node_id() != cluster.primary_node_id(s)) replicas.push_back(rep);
    }
    for (ReplicaNode* rep : cluster.revived_replicas_of(s)) {
      replicas.push_back(rep);
    }
    for (const auto& [id, table] : primary.store().tables()) {
      const size_t rows = ScanAll(primary.store(), id).size();
      for (ReplicaNode* rep : replicas) {
        const size_t rep_rows = ScanAll(rep->store(), id).size();
        if (rep_rows != rows) {
          fail("shard " + std::to_string(s) + " replica " +
               std::to_string(rep->node_id()) + " table " +
               std::to_string(id) + ": " + std::to_string(rep_rows) +
               " rows vs primary " + std::to_string(rows));
        }
      }
    }
    if (failover && primary.in_doubt_count() != 0) {
      fail("shard " + std::to_string(s) + " still has " +
           std::to_string(primary.in_doubt_count()) + " in-doubt txns");
    }
  }
  if (failover) {
    for (const Crash& crash : st.crashes) {
      if (crash.promoted_at < 0) {
        fail("shard " + std::to_string(crash.shard) + " never promoted");
      }
    }
  }
  return errors;
}

/// Runs until every live replica has applied its primary's log as of now.
/// Returns false when they did not catch up within `cap`.
bool WaitReplicasCaughtUp(Cluster& cluster, SimDuration cap) {
  std::vector<std::pair<ReplicaNode*, Lsn>> targets;
  for (ShardId s = 0; s < cluster.num_shards(); ++s) {
    const Lsn target = cluster.data_node(s).log().next_lsn() - 1;
    for (ReplicaNode* rep : cluster.replicas_of(s)) {
      if (rep->node_id() != cluster.primary_node_id(s)) {
        targets.push_back({rep, target});
      }
    }
    for (ReplicaNode* rep : cluster.revived_replicas_of(s)) {
      targets.push_back({rep, target});
    }
  }
  sim::Simulator* sim = cluster.simulator();
  const SimTime deadline = sim->now() + cap;
  while (true) {
    bool done = true;
    for (const auto& [rep, target] : targets) {
      if (rep->applier().applied_lsn() < target) done = false;
    }
    if (done) return true;
    if (sim->now() >= deadline) return false;
    sim->RunFor(10 * kMillisecond);
  }
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// Ordered name -> (value, unit) list printed as a JSON object.
class MetricList {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < items_.size(); ++i) {
      const Item& it = items_[i];
      snprintf(buf, sizeof(buf), "%.17g",
               std::isfinite(it.value) ? it.value : 0.0);
      out += (i ? ", \"" : "\"") + it.name + "\": [" + buf + ", \"" +
             it.unit + "\"]";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0;
}

void WriteTrace(const std::string& path, const RunState& st,
                const WindowCounters& wc) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "geobench: cannot write %s\n", path.c_str());
    return;
  }
  fprintf(f, "{\"window_ns\": [%lld, %lld],\n \"counters\": {",
          static_cast<long long>(st.window_start),
          static_cast<long long>(st.window_end));
  bool first = true;
  for (const auto& [name, after] : wc.after) {
    auto it = wc.before.find(name);
    fprintf(f, "%s\"%s\": [%lld, %lld]", first ? "" : ", ", name.c_str(),
            static_cast<long long>(it == wc.before.end() ? 0 : it->second),
            static_cast<long long>(after));
    first = false;
  }
  fprintf(f, "},\n \"staleness_ns\": [");
  for (size_t i = 0; i < st.staleness_ns.size(); ++i) {
    fprintf(f, "%s%lld", i ? "," : "",
            static_cast<long long>(st.staleness_ns[i]));
  }
  fprintf(f, "],\n \"span_fields\": [\"arrival_ns\", \"start_ns\", "
             "\"end_ns\", \"kind\", \"cn_region\", \"status\"],\n \"spans\": [");
  for (size_t i = 0; i < st.spans.size(); ++i) {
    const Span& s = st.spans[i];
    fprintf(f, "%s\n[%lld,%lld,%lld,\"%s\",%u,\"%s\"]", i ? "," : "",
            static_cast<long long>(s.arrival), static_cast<long long>(s.start),
            static_cast<long long>(s.end),
            s.kind < kNumKinds ? kKinds[s.kind] : "other",
            static_cast<unsigned>(s.region),
            s.end < 0 ? "Outstanding"
                      : std::string(StatusCodeName(s.code)).c_str());
  }
  fprintf(f, "]}\n");
  fclose(f);
}

int Main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: geobench --workload NAME --seed N --seconds S --trace 0|1 "
            "[--trace-out PATH]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    fprintf(stderr, "geobench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const SimDuration window = static_cast<SimDuration>(
      args.seconds * spec->sim_s_per_wall_s * static_cast<double>(kSecond));

  // --- Setup, several times: setup_s is their median. The last one runs. --
  std::vector<double> setup_total, setup_cluster, setup_load, setup_warmup,
      setup_faults;
  Setup setup;
  for (int k = 0; k < kSetups; ++k) {
    // Tear the previous cluster down before building the next one (workload
    // and cluster before the simulator they run on).
    setup.tpcc.reset();
    setup.cluster.reset();
    setup.sim.reset();
    setup = BuildSetup(*spec, args.seed);
    setup_total.push_back(setup.total_s);
    setup_cluster.push_back(setup.cluster_s);
    setup_load.push_back(setup.load_s);
    setup_warmup.push_back(setup.warmup_s);
    setup_faults.push_back(static_cast<double>(setup.minor_faults));
    fprintf(stderr,
            "geobench: setup %d: %.3f s (cluster %.3f, load %.3f, warm-up "
            "%.3f), %lld minor faults\n",
            k, setup.total_s, setup.cluster_s, setup.load_s, setup.warmup_s,
            static_cast<long long>(setup.minor_faults));
  }
  sim::Simulator& sim = *setup.sim;
  Cluster& cluster = *setup.cluster;
  const TpccConfig config = setup.tpcc->config();

  RunState st;
  st.sim = &sim;
  st.cluster = &cluster;
  st.fn = setup.tpcc->MixFn();
  st.trace = args.trace;
  st.rate_tps = spec->rate_tps;
  st.seed = args.seed;
  st.gen_start = sim.now();
  st.window_start = st.gen_start + kWarmup;
  st.window_end = st.window_start + window;
  st.gen_end = st.window_end + kCooldown;
  st.spans.reserve(static_cast<size_t>(
      spec->rate_tps * static_cast<double>(st.gen_end - st.gen_start) / 1e9 *
      1.1));

  // Failover: crash two shard primaries in different cities inside the
  // window, then bring the first one back as a replica.
  std::unique_ptr<chaos::FaultScheduler> faults;
  if (spec->failover) {
    faults = std::make_unique<chaos::FaultScheduler>(&cluster);
    const ShardId crashed[] = {0, 4};
    const double at[] = {0.2, 0.45};
    for (int i = 0; i < 2; ++i) {
      chaos::FaultEvent event;
      event.kind = chaos::FaultKind::kPrimaryCrash;
      event.shard = crashed[i];
      event.at = st.window_start + static_cast<SimDuration>(
                                       at[i] * static_cast<double>(window));
      faults->AddEvent(event);
      st.crashes.push_back(
          {crashed[i], event.at, cluster.primary_node_id(crashed[i]), -1});
    }
    chaos::FaultEvent revive;
    revive.kind = chaos::FaultKind::kPrimaryRevive;
    revive.shard = crashed[0];
    revive.at = st.window_start +
                static_cast<SimDuration>(0.7 * static_cast<double>(window));
    faults->AddEvent(revive);
    faults->Start();
  }

  sim.Spawn(Generator(&st));
  sim.Spawn(Sampler(&st));
  const Clock::time_point warmup_start = Clock::now();
  sim.RunUntil(st.window_start);
  const double warmup_wall_s = SecondsSince(warmup_start);

  // --- Measured window -----------------------------------------------------
  WindowSnapshot before;
  if (args.trace) before = TakeSnapshot(ListReaders(cluster, faults.get()));
  const uint64_t events_before = sim.events_executed();
  const Clock::time_point wall_start = Clock::now();
  sim.RunUntil(st.window_end);
  const double wall_window_s = SecondsSince(wall_start);
  const uint64_t window_events = sim.events_executed() - events_before;

  WindowCounters wc;
  int64_t live_versions = 0, dead_versions = 0, retained_log = 0;
  if (args.trace) {
    wc = DiffSnapshots(before,
                       TakeSnapshot(ListReaders(cluster, faults.get())));
    for (ShardId s = 0; s < cluster.num_shards(); ++s) {
      auto dead = [](const ShardStore& store) {
        return std::max<int64_t>(static_cast<int64_t>(store.VersionCount()) -
                                     static_cast<int64_t>(store.KeyCount()),
                                 0);
      };
      const ShardStore& primary = cluster.data_node(s).store();
      live_versions += static_cast<int64_t>(primary.VersionCount());
      dead_versions += dead(primary);
      for (ReplicaNode* rep : cluster.replicas_of(s)) {
        if (rep->node_id() != cluster.primary_node_id(s)) {
          dead_versions += dead(rep->store());
        }
      }
      retained_log +=
          static_cast<int64_t>(cluster.data_node(s).log().retained_bytes());
    }
  }

  // --- Drain ---------------------------------------------------------------
  const Clock::time_point drain_start = Clock::now();
  sim.RunUntil(st.window_end + kDeadline);
  std::vector<Span> window_spans;
  for (const Span& s : st.spans) {
    if (InWindow(st, s.arrival)) window_spans.push_back(s);
  }
  // Settle everything (including cooldown arrivals) before checking.
  const SimTime settle_cap = sim.now() + 20 * kSecond;
  while (st.outstanding > 0 && sim.now() < settle_cap) {
    sim.RunFor(10 * kMillisecond);
  }
  std::vector<std::string> errors;
  if (st.outstanding > 0) {
    errors.push_back(std::to_string(st.outstanding) +
                     " transactions never finished");
  }
  if (!WaitReplicasCaughtUp(cluster, 30 * kSecond)) {
    errors.push_back("replicas did not catch up with their primaries");
  }
  st.sampling = false;
  const double drain_wall_s = SecondsSince(drain_start);
  const Clock::time_point check_start = Clock::now();
  std::vector<std::string> check_errors =
      CheckCorrectness(cluster, config, st, spec->failover);
  errors.insert(errors.end(), check_errors.begin(), check_errors.end());
  fprintf(stderr,
          "geobench: wall s: warm-up %.3f, window %.3f, drain %.3f, checks "
          "%.3f\n",
          warmup_wall_s, wall_window_s, drain_wall_s, SecondsSince(check_start));

  // --- Metrics -------------------------------------------------------------
  const double window_s = static_cast<double>(window) / 1e9;
  const int64_t attempted = static_cast<int64_t>(window_spans.size());
  int64_t committed = 0, failed = 0, outstanding = 0;
  std::vector<double> lat_ms;
  std::vector<std::vector<double>> kind_lat(kNumKinds + 1);
  std::vector<int64_t> kind_count(kNumKinds + 1, 0),
      kind_failed(kNumKinds + 1, 0);
  std::map<std::string, int64_t> failed_by_code;
  const SimTime deadline = st.window_end + kDeadline;
  for (const Span& s : window_spans) {
    const bool done = s.end >= 0 && s.end <= deadline;
    if (!done) {
      ++outstanding;
      ++failed;
      continue;
    }
    ++kind_count[s.kind];
    if (s.code != StatusCode::kOk) {
      ++failed;
      ++kind_failed[s.kind];
      ++failed_by_code[std::string(StatusCodeName(s.code))];
      continue;
    }
    ++committed;
    const double ms = static_cast<double>(s.end - s.arrival) / 1e6;
    lat_ms.push_back(ms);
    kind_lat[s.kind].push_back(ms);
  }
  const int headline = KindIndex(spec->headline_kind);
  std::vector<double> staleness_ms = ToMs(st.staleness_ns);
  std::vector<double> recovery_ms;
  for (const Crash& crash : st.crashes) {
    if (crash.promoted_at >= 0) {
      recovery_ms.push_back(static_cast<double>(crash.promoted_at - crash.at) /
                            1e6);
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  const double per_txn = static_cast<double>(std::max<int64_t>(attempted, 1));

  MetricList sim_metrics;  // bit-for-bit deterministic for a seed
  sim_metrics.Add("goodput_tps", static_cast<double>(committed) / window_s,
                  "txn/s");
  sim_metrics.Add("lat_p50_ms", Quantile(lat_ms, 0.50), "ms");
  sim_metrics.Add("lat_p99_ms", Quantile(lat_ms, 0.99), "ms");
  sim_metrics.Add("headline_p50_ms", Quantile(kind_lat[headline], 0.50), "ms");
  sim_metrics.Add("headline_p99_ms", Quantile(kind_lat[headline], 0.99), "ms");
  sim_metrics.Add("ror_staleness_p99_ms", Quantile(staleness_ms, 0.99), "ms");
  sim_metrics.Add("failed_frac", static_cast<double>(failed) / per_txn,
                  "ratio");
  sim_metrics.Add("recovery_ms", Mean(recovery_ms), "ms");
  sim_metrics.Add("window_events", static_cast<double>(window_events),
                  "count");
  sim_metrics.Add("committed", static_cast<double>(committed), "count");
  sim_metrics.Add("staleness_samples", static_cast<double>(staleness_ms.size()),
                  "count");

  const double wall_us_per_txn = wall_window_s * 1e6 / per_txn;
  MetricList e2e;
  e2e.Add("goodput_tps", static_cast<double>(committed) / window_s, "txn/s");
  e2e.Add("lat_p50_ms", Quantile(lat_ms, 0.50), "ms");
  e2e.Add("lat_p99_ms", Quantile(lat_ms, 0.99), "ms");
  e2e.Add("headline_p50_ms", Quantile(kind_lat[headline], 0.50), "ms");
  e2e.Add("headline_p99_ms", Quantile(kind_lat[headline], 0.99), "ms");
  e2e.Add("ror_staleness_p99_ms", Quantile(staleness_ms, 0.99), "ms");
  e2e.Add("setup_s", Median(setup_total), "s");
  e2e.Add("wall_us_per_txn", wall_us_per_txn, "us");
  e2e.Add("peak_rss_mb", peak_rss_mb, "MB");

  MetricList layer;
  if (args.trace) {
    // workload: the benchmark's own spans.
    for (int k = 0; k < kNumKinds; ++k) {
      const std::string p = std::string("workload.") + kKinds[k];
      layer.Add(p + ".p50_ms", Quantile(kind_lat[k], 0.50), "ms");
      layer.Add(p + ".p99_ms", Quantile(kind_lat[k], 0.99), "ms");
      layer.Add(p + ".count", static_cast<double>(kind_count[k]), "count");
      layer.Add(p + ".failed", static_cast<double>(kind_failed[k]), "count");
    }
    layer.Add("workload.outstanding_max",
              static_cast<double>(st.outstanding_max), "count");
    layer.Add("workload.outstanding_at_deadline",
              static_cast<double>(outstanding), "count");
    layer.Add("workload.failed_frac", static_cast<double>(failed) / per_txn,
              "ratio");
    layer.Add("workload.staleness_samples",
              static_cast<double>(staleness_ms.size()), "count");

    // sim: the event loop, the CPU model and the network model.
    const double events = static_cast<double>(window_events);
    layer.Add("sim.events_per_txn", events / per_txn, "events/txn");
    layer.Add("sim.wall_ns_per_event", Ratio(wall_window_s * 1e9, events),
              "ns/event");
    const double window_ns = static_cast<double>(window);
    const double dn_cores =
        static_cast<double>(cluster.num_shards()) *
        static_cast<double>(cluster.data_node(0).cpu().cores());
    const double replica_cores =
        static_cast<double>(cluster.num_shards()) *
        static_cast<double>(cluster.options().replicas_per_shard) *
        static_cast<double>(cluster.replica(0, 0).cpu().cores());
    layer.Add("sim.dn_cpu_util",
              Ratio(static_cast<double>(wc.C("cpu.dn.busy_ns")),
                    dn_cores * window_ns),
              "ratio");
    layer.Add("sim.dn_cpu_queue_ms_per_txn",
              static_cast<double>(wc.C("cpu.dn.queue_ns")) / 1e6 / per_txn,
              "ms/txn");
    layer.Add("sim.replica_cpu_util",
              Ratio(static_cast<double>(wc.C("cpu.replica.busy_ns")),
                    replica_cores * window_ns),
              "ratio");
    layer.Add("sim.replica_cpu_queue_ms_per_txn",
              static_cast<double>(wc.C("cpu.replica.queue_ns")) / 1e6 /
                  per_txn,
              "ms/txn");
    layer.Add("sim.net_msgs_per_txn",
              static_cast<double>(wc.C("net.rpc.calls") +
                                  wc.C("net.send.messages")) /
                  per_txn,
              "count/txn");
    layer.Add("sim.net_cross_region_bytes_per_txn",
              static_cast<double>(wc.C("net.rpc.cross_region_bytes") +
                                  wc.C("net.send.cross_region_bytes")) /
                  per_txn,
              "bytes/txn");
    layer.Add("setup.cluster_s", Median(setup_cluster), "s");
    layer.Add("setup.load_s", Median(setup_load), "s");
    layer.Add("setup.warmup_s", Median(setup_warmup), "s");
    layer.Add("setup.minor_faults", Median(setup_faults), "count");
    layer.Add("trace.wall_us_per_txn", wall_us_per_txn, "us");

    // rpc: per-method call counts and latency, every client in the cluster.
    const char* const methods[] = {"dn.write_batch", "dn.precommit",
                                   "dn.commit",      "dn.read_batch",
                                   "repl.append",    "ror.read_batch",
                                   "ror.scan_batch", "dn.scan_batch"};
    for (const char* m : methods) {
      const std::vector<double>& lat =
          wc.H(std::string("rpc.") + m + ".latency");
      const std::string p = std::string("rpc.") + m;
      layer.Add(p + ".calls_per_txn",
                static_cast<double>(lat.size()) / per_txn, "count/txn");
      layer.Add(p + ".p50_us", Quantile(lat, 0.50) / 1e3, "us");
      layer.Add(p + ".p99_us", Quantile(lat, 0.99) / 1e3, "us");
    }
    layer.Add("rpc.retries", static_cast<double>(wc.C("rpc.retries")),
              "count");
    layer.Add("rpc.errors", static_cast<double>(wc.C("rpc.errors")), "count");

    // cluster: the CN commit, write-batching, read-batching and scan paths.
    for (const char* h :
         {"cn.precommit_us", "cn.commit_ts_us", "cn.commit_phase2_us"}) {
      layer.Add(std::string(h) + ".p50", Quantile(wc.H(h), 0.50), "us");
      layer.Add(std::string(h) + ".p99", Quantile(wc.H(h), 0.99), "us");
    }
    layer.Add("cn.write_batch_size.mean", Mean(wc.H("cn.write_batch_size")),
              "count");
    layer.Add("cn.flush_barriers_per_txn",
              static_cast<double>(wc.C("cn.flush_barriers") +
                                  wc.C("cn.multiget_flush_barriers") +
                                  wc.C("cn.scan_flush_barriers")) /
                  per_txn,
              "count/txn");
    layer.Add("cn.read_batch_size.mean", Mean(wc.H("cn.read_batch_size")),
              "count");
    layer.Add("cn.multiget_fanout.mean", Mean(wc.H("cn.multiget_fanout")),
              "count");
    layer.Add("cn.scan_fanout.mean", Mean(wc.H("cn.scan_fanout")), "count");
    layer.Add("cn.scan_chunks_per_batch",
              Ratio(static_cast<double>(wc.C("cn.scan_chunks")),
                    static_cast<double>(wc.C("cn.scan_batches"))),
              "count");
    const double returned = static_cast<double>(
        wc.C("dn.scan_rows_returned") + wc.C("ror.scan_rows_returned"));
    const double filtered = static_cast<double>(
        wc.C("dn.scan_rows_filtered") + wc.C("ror.scan_rows_filtered"));
    layer.Add("scan.rows_examined_per_returned",
              Ratio(returned + filtered, returned), "ratio");
    const double ror = static_cast<double>(wc.C("cn.ror_txns"));
    layer.Add("cn.ror_hit_ratio",
              Ratio(ror, ror + static_cast<double>(wc.C("cn.ror_fallbacks"))),
              "ratio");
    const double replica_reads = static_cast<double>(wc.C("cn.replica_reads"));
    layer.Add("cn.replica_read_share",
              Ratio(replica_reads,
                    replica_reads +
                        static_cast<double>(wc.C("cn.primary_reads"))),
              "ratio");
    layer.Add("ror.pending_waits_per_txn",
              static_cast<double>(wc.C("ror.pending_waits")) / per_txn,
              "count/txn");
    layer.Add("rcp.poll_failures", static_cast<double>(wc.C("rcp.poll_failures")),
              "count");

    // txn: locks, failure reasons, timestamps.
    layer.Add("lock.waits_per_txn",
              static_cast<double>(wc.C("lock.waits")) / per_txn, "count/txn");
    layer.Add("lock.timeouts", static_cast<double>(wc.C("lock.timeouts")),
              "count");
    for (const char* code : {"Aborted", "TimedOut", "Unavailable"}) {
      std::string name = std::string("txn.fail_share.") + code;
      layer.Add(name, static_cast<double>(failed_by_code[code]) / per_txn,
                "ratio");
    }
    int64_t other_failures = 0;
    for (const auto& [code, n] : failed_by_code) {
      if (code != "Aborted" && code != "TimedOut" && code != "Unavailable") {
        other_failures += n;
      }
    }
    layer.Add("txn.fail_share.other",
              static_cast<double>(other_failures) / per_txn, "ratio");
    layer.Add("ts.gtm_rpcs_per_txn",
              static_cast<double>(wc.C("ts.gtm_rpcs")) / per_txn, "count/txn");

    // storage (version chains walked at the window end).
    layer.Add("storage.live_versions", static_cast<double>(live_versions),
              "count");
    layer.Add("storage.dead_versions", static_cast<double>(dead_versions),
              "count");
    layer.Add("storage.versions_gced",
              static_cast<double>(wc.C("storage.versions_gced")), "count");

    // log / replication / compression.
    const double redo = static_cast<double>(wc.C("log.redo_bytes"));
    layer.Add("log.redo_bytes_per_txn", redo / per_txn, "bytes/txn");
    layer.Add("ship.wire_bytes_per_redo_byte",
              Ratio(static_cast<double>(wc.C("ship.bytes")), redo), "ratio");
    layer.Add("ship.records_per_batch",
              Ratio(static_cast<double>(wc.C("ship.records")),
                    static_cast<double>(wc.C("ship.batches"))),
              "count");
    const double hits = static_cast<double>(wc.C("ship.cache_hits"));
    layer.Add("ship.cache_hit_ratio",
              Ratio(hits, hits + static_cast<double>(wc.C("ship.cache_misses"))),
              "ratio");
    layer.Add("ship.window_full", static_cast<double>(wc.C("ship.window_full")),
              "count");
    layer.Add("ship.lag_p99_ms", Quantile(ToMs(st.replica_lag_ns), 0.99), "ms");
    layer.Add("apply.reordered", static_cast<double>(wc.C("apply.reordered")),
              "count");
    layer.Add("log.retained_bytes", static_cast<double>(retained_log),
              "bytes");
    layer.Add("durability.checkpoints",
              static_cast<double>(wc.C("durability.checkpoints")), "count");
    layer.Add("durability.snapshot_bytes",
              Mean(wc.H("durability.snapshot_bytes")), "bytes");
    layer.Add("durability.log_truncated_records",
              static_cast<double>(wc.C("durability.log_truncated_records")),
              "count");

    // chaos / health: failure detection, promotion, outcome recovery.
    layer.Add("health.recovery_ms", Mean(recovery_ms), "ms");
    layer.Add("health.probe_misses",
              static_cast<double>(wc.C("health.probe_misses") +
                                  wc.C("health.primary_probe_misses")),
              "count");
    for (const char* c :
         {"health.promotions", "dn.promotion_in_doubt", "dn.outcome_queries",
          "cn.commit_retries", "ship.snapshots", "ship.snapshot_bytes",
          "apply.snapshot_installs"}) {
      layer.Add(c, static_cast<double>(wc.C(c)),
                std::strstr(c, "bytes") ? "bytes" : "count");
    }
    if (!args.trace_out.empty()) WriteTrace(args.trace_out, st, wc);
  }

  std::string error_json = "[";
  for (size_t i = 0; i < errors.size(); ++i) {
    error_json += (i ? ", " : "") + JsonString(errors[i]);
  }
  error_json += "]";
  printf("{\"correct\": %s, \"errors\": %s, \"attempted\": %lld, "
         "\"failed\": %lld, \"process_s\": %.3f, \"sim\": %s, \"e2e\": %s, "
         "\"layer\": %s}\n",
         errors.empty() ? "true" : "false", error_json.c_str(),
         static_cast<long long>(attempted), static_cast<long long>(failed),
         SecondsSince(process_start), sim_metrics.Json().c_str(),
         e2e.Json().c_str(), layer.Json().c_str());
  fflush(stdout);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace globaldb::geobench

int main(int argc, char** argv) {
  return globaldb::geobench::Main(argc, argv);
}
