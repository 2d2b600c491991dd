// Chaos timeline: latency and abort rate across a fleet-wide clock-sync
// outage on a GClock cluster. The health monitor detects the growing error
// bound, falls back to GTM automatically (commits keep flowing), and after
// the time service heals and the recovery dwell passes, returns the cluster
// to GClock. Buckets show the whole arc: healthy GClock -> degraded GClock
// (commit wait tracks the error bound) -> GTM -> GClock again.

#include <vector>

#include "bench/bench_util.h"
#include "src/chaos/fault_scheduler.h"

using namespace globaldb;
using namespace globaldb::bench;

namespace {

constexpr SimDuration kBucket = 250 * kMillisecond;
constexpr SimTime kOutageAt = 2 * kSecond;
constexpr SimTime kRestoreAt = 5 * kSecond;
constexpr SimTime kRunFor = 8 * kSecond;

struct Bucket {
  int64_t commits = 0;
  int64_t aborts = 0;
  Histogram latency;  // committed txns only
  TimestampMode mode = TimestampMode::kGclock;  // mode at bucket end
  SimDuration error_bound = 0;                  // max CN bound at bucket end
};

struct Timeline {
  SimTime start = 0;
  std::vector<Bucket> buckets;

  Bucket& At(SimTime when) {
    const size_t idx = static_cast<size_t>((when - start) / kBucket);
    if (buckets.size() <= idx) buckets.resize(idx + 1);
    return buckets[idx];
  }
};

sim::Task<void> Client(Cluster* cluster, TpccWorkload* tpcc, int cn_index,
                       uint64_t seed, Timeline* timeline, const bool* done) {
  Rng rng(seed);
  sim::Simulator* sim = cluster->simulator();
  CoordinatorNode* cn = &cluster->cn(cn_index);
  while (!*done) {
    const SimTime begin = sim->now();
    TxnResult result = co_await tpcc->Payment(cn, &rng);
    Bucket& bucket = timeline->At(sim->now());
    if (result.status.ok()) {
      bucket.commits++;
      bucket.latency.Record(sim->now() - begin);
    } else {
      bucket.aborts++;
    }
  }
}

}  // namespace

int main() {
  sim::Simulator sim(53);
  ClusterOptions options =
      MakeClusterOptions(SystemKind::kGlobalDb, sim::Topology::ThreeCity());
  // Fast-drifting clocks so the fallback threshold is crossed ~0.5 s into
  // the outage (with the paper's 200 PPM it would take ~5 s — same arc,
  // longer timeline).
  options.clock.max_drift_ppm = 2000;
  options.health.probe_interval = 50 * kMillisecond;
  options.health.probe_timeout = 80 * kMillisecond;
  options.health.recover_dwell = 400 * kMillisecond;
  Cluster cluster(&sim, options);
  cluster.Start();

  TpccConfig config = MakeTpccConfig();
  config.num_warehouses = 120;
  TpccWorkload tpcc(&cluster, config);
  Status s = tpcc.Setup();
  GDB_CHECK(s.ok()) << s.ToString();
  cluster.WaitForRcp();

  // Fleet-wide time-device outage (node unset = every CN's clock).
  chaos::FaultScheduler faults(&cluster);
  const SimTime base = sim.now();
  chaos::FaultEvent outage;
  outage.at = base + kOutageAt;
  outage.kind = chaos::FaultKind::kClockSyncOutage;
  faults.AddEvent(outage);
  chaos::FaultEvent restore = outage;
  restore.at = base + kRestoreAt;
  restore.kind = chaos::FaultKind::kClockSyncRestore;
  faults.AddEvent(restore);
  faults.Start();

  Timeline timeline;
  timeline.start = base;
  bool done = false;
  const int clients = 60;
  for (int c = 0; c < clients; ++c) {
    sim.Spawn(Client(&cluster, &tpcc, c % static_cast<int>(cluster.num_cns()),
                     1000 + c, &timeline, &done));
  }
  // Drive bucket by bucket so each bucket can snapshot the monitor's view.
  for (SimTime t = 0; t < kRunFor; t += kBucket) {
    sim.RunFor(kBucket);
    Bucket& bucket = timeline.At(sim.now() - 1);
    bucket.mode = cluster.health().mode();
    bucket.error_bound = cluster.health().last_max_error_bound();
  }
  done = true;
  sim.RunFor(500 * kMillisecond);

  PrintHeader(
      "Chaos: clock-sync outage -> automatic GTM fallback -> recovery "
      "(Payment transactions, Three-City)",
      "bucket  t_ms   commits aborts abort%  p50_ms  p99_ms  err_us  mode");
  for (size_t i = 0; i < timeline.buckets.size(); ++i) {
    Bucket& b = timeline.buckets[i];
    const SimTime t = static_cast<SimTime>(i) * kBucket;
    const double total = static_cast<double>(b.commits + b.aborts);
    const char* marker =
        t <= kOutageAt && kOutageAt < t + kBucket    ? "  << outage"
        : t <= kRestoreAt && kRestoreAt < t + kBucket ? "  << sync restored"
                                                      : "";
    printf("%6zu %6lld %8lld %6lld %6.1f %7.2f %7.2f %7.0f  %s%s\n", i,
           static_cast<long long>(t / kMillisecond),
           static_cast<long long>(b.commits),
           static_cast<long long>(b.aborts),
           total > 0 ? 100.0 * b.aborts / total : 0.0,
           b.latency.Percentile(50) / 1e6, b.latency.Percentile(99) / 1e6,
           static_cast<double>(b.error_bound) / 1e3,
           TimestampModeName(b.mode), marker);
  }

  Metrics& health = cluster.health().metrics();
  printf("\nhealth: probes=%lld misses=%lld fallback_to_gtm=%lld "
         "return_to_gclock=%lld\n",
         static_cast<long long>(health.Get("health.probes")),
         static_cast<long long>(health.Get("health.probe_misses")),
         static_cast<long long>(health.Get("health.fallback_to_gtm")),
         static_cast<long long>(health.Get("health.return_to_gclock")));
  printf("\n%s", FormatRpcStats(cluster).c_str());
  printf("\nTakeaway: commits never stop. During the outage GClock commit "
         "wait tracks the growing error bound until the monitor falls back "
         "to GTM; latency then settles at the GTM cost until the clocks "
         "heal and the cluster returns to GClock.\n");
  return 0;
}
