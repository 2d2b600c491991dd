#include "src/workload/driver.h"

namespace globaldb {

sim::Task<void> WorkloadDriver::ClientLoop(CoordinatorNode* cn,
                                           const TxnFn* fn, uint64_t seed,
                                           WorkloadStats* stats,
                                           SimTime measure_start,
                                           SimTime measure_end, bool* stop) {
  Rng rng(seed);
  sim::Simulator* sim = cluster_->simulator();
  while (!*stop && sim->now() < measure_end) {
    const SimTime start = sim->now();
    TxnResult result = co_await (*fn)(cn, &rng);
    const SimTime end = sim->now();
    if (end >= measure_start && end < measure_end) {
      if (result.status.ok()) {
        ++stats->committed;
        stats->latency.Record(end - start);
        stats->latency_by_kind[result.kind].Record(end - start);
        ++stats->committed_by_kind[result.kind];
      } else {
        ++stats->aborted;
        ++stats->abort_reasons[result.kind + ": " + result.status.ToString()];
      }
    }
    if (options_.think_time > 0) {
      co_await sim->Sleep(options_.think_time);
    }
  }
}

WorkloadStats WorkloadDriver::Run(const TxnFn& fn) {
  WorkloadStats stats;
  sim::Simulator* sim = cluster_->simulator();
  const SimTime measure_start = sim->now() + options_.warmup;
  const SimTime measure_end = measure_start + options_.duration;
  bool stop = false;

  Rng seeder(options_.seed);
  const size_t num_cns = cluster_->num_cns();
  for (int c = 0; c < options_.clients; ++c) {
    CoordinatorNode* cn =
        options_.pin_cn >= 0
            ? &cluster_->cn(static_cast<size_t>(options_.pin_cn) % num_cns)
            : &cluster_->cn(c % num_cns);
    sim->Spawn(ClientLoop(cn, &fn, seeder.Next(), &stats, measure_start,
                          measure_end, &stop));
  }
  sim->RunUntil(measure_end);
  stop = true;
  // Drain in-flight transactions so their coroutine frames settle.
  sim->RunFor(2 * kSecond);
  stats.measured_duration = options_.duration;
  return stats;
}

}  // namespace globaldb
