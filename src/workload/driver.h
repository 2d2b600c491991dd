#ifndef GLOBALDB_SRC_WORKLOAD_DRIVER_H_
#define GLOBALDB_SRC_WORKLOAD_DRIVER_H_

#include <functional>
#include <string>

#include "src/cluster/cluster.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"

namespace globaldb {

/// Result of one client transaction attempt.
struct TxnResult {
  Status status;
  std::string kind;  // e.g. "neworder", "point_select"
};

/// A transaction body: runs one client transaction against a CN.
using TxnFn = std::function<sim::Task<TxnResult>(CoordinatorNode* cn, Rng* rng)>;

/// Aggregated results of a driver run.
struct WorkloadStats {
  int64_t committed = 0;
  int64_t aborted = 0;
  SimDuration measured_duration = 0;
  Histogram latency;  // committed txns only, ns
  std::map<std::string, int64_t> committed_by_kind;
  std::map<std::string, Histogram> latency_by_kind;
  std::map<std::string, int64_t> abort_reasons;

  /// Committed transactions per simulated second.
  double Throughput() const {
    if (measured_duration <= 0) return 0;
    return static_cast<double>(committed) /
           (static_cast<double>(measured_duration) / kSecond);
  }
  /// Committed transactions per simulated minute (tpmC convention).
  double PerMinute() const { return Throughput() * 60.0; }
  double AbortRate() const {
    const int64_t total = committed + aborted;
    return total == 0 ? 0.0 : static_cast<double>(aborted) / total;
  }
};

/// Closed-loop client driver: `clients` terminals, each bound round-robin to
/// a CN, repeatedly running `fn` back-to-back. Transactions finishing inside
/// the measurement window [warmup, warmup + duration) are counted.
class WorkloadDriver {
 public:
  struct Options {
    int clients = 64;
    SimDuration warmup = 500 * kMillisecond;
    SimDuration duration = 5 * kSecond;
    /// Optional think time between transactions (0 = saturated clients).
    SimDuration think_time = 0;
    /// When >= 0, every client attaches to this CN index (e.g. to measure a
    /// node not co-located with the GTM server, Fig. 6b). Otherwise clients
    /// spread round-robin over all CNs.
    int pin_cn = -1;
    uint64_t seed = 1234;
  };

  WorkloadDriver(Cluster* cluster, Options options)
      : cluster_(cluster), options_(options) {}

  /// Runs the workload to completion and returns the stats.
  WorkloadStats Run(const TxnFn& fn);

 private:
  sim::Task<void> ClientLoop(CoordinatorNode* cn, const TxnFn* fn,
                             uint64_t seed, WorkloadStats* stats,
                             SimTime measure_start, SimTime measure_end,
                             bool* stop);

  Cluster* cluster_;
  Options options_;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_WORKLOAD_DRIVER_H_
