#ifndef GLOBALDB_SRC_SIM_CPU_H_
#define GLOBALDB_SRC_SIM_CPU_H_

#include <algorithm>
#include <vector>

#include "src/common/logging.h"
#include "src/common/types.h"
#include "src/sim/simulator.h"

namespace globaldb::sim {

/// Models a node's processor as `cores` independent servers with FIFO
/// admission. Work is charged in virtual nanoseconds; when all cores are
/// busy, new work queues behind the earliest-free core. This is what makes
/// throughput saturate realistically as client load grows.
class CpuScheduler {
 public:
  CpuScheduler(Simulator* sim, int cores) : sim_(sim) {
    GDB_CHECK(cores > 0);
    core_busy_until_.assign(cores, 0);
  }

  CpuScheduler(const CpuScheduler&) = delete;
  CpuScheduler& operator=(const CpuScheduler&) = delete;

  /// Consumes `work` ns of CPU. Resumes when the work completes. Returns
  /// the simulator's sleep awaiter itself, so charging CPU costs one event
  /// and no coroutine frame; await it at once, as the core is booked now.
  auto Consume(SimDuration work) {
    GDB_CHECK(work >= 0);
    const SimTime now = sim_->now();
    // Pick the earliest-free core.
    auto it =
        std::min_element(core_busy_until_.begin(), core_busy_until_.end());
    const SimTime start = std::max(now, *it);
    const SimTime end = start + work;
    *it = end;
    busy_ns_ += work;
    queue_delay_ns_ += (start - now);
    return sim_->SleepUntil(end);
  }

  /// Earliest time a new unit of work could start right now.
  SimTime EarliestStart() const {
    auto it =
        std::min_element(core_busy_until_.begin(), core_busy_until_.end());
    return std::max(sim_->now(), *it);
  }

  /// Current queueing delay a new request would experience (0 if idle
  /// capacity exists). Exported to the skyline node-selection metric.
  SimDuration CurrentQueueDelay() const {
    return EarliestStart() - sim_->now();
  }

  /// Total CPU-busy nanoseconds charged so far.
  int64_t busy_ns() const { return busy_ns_; }
  /// Total time requests spent waiting for a core.
  int64_t queue_delay_ns() const { return queue_delay_ns_; }
  int cores() const { return static_cast<int>(core_busy_until_.size()); }

 private:
  Simulator* sim_;
  std::vector<SimTime> core_busy_until_;
  int64_t busy_ns_ = 0;
  int64_t queue_delay_ns_ = 0;
};

}  // namespace globaldb::sim

#endif  // GLOBALDB_SRC_SIM_CPU_H_
