#ifndef GLOBALDB_SRC_TXN_TRANSITION_H_
#define GLOBALDB_SRC_TXN_TRANSITION_H_

#include <vector>

#include "src/common/metrics.h"
#include "src/common/statusor.h"
#include "src/common/types.h"
#include "src/rpc/rpc_client.h"
#include "src/sim/network.h"
#include "src/txn/messages.h"

namespace globaldb {

/// Drives the zero-downtime bi-directional mode transitions of Section
/// III-A (Figs. 2 and 3). Runs on a control node (any CN); all steps are
/// ordinary RPCs, so the cluster keeps serving transactions throughout.
///
/// GTM -> GClock (Fig. 2):
///   1. Switch the GTM server to DUAL (it starts tracking the max error
///      bound it observes).
///   2. Switch every CN to DUAL; each ack is recorded.
///   3. Remain in DUAL for 2x the max error bound observed during the
///      transition window (prevents the Listing 1 anomaly).
///   4. Switch the GTM server to GClock, then every CN.
///   GTM transactions that try to commit after step 4 abort (server rule).
///
/// GClock -> GTM (Fig. 3):
///   1. Switch the GTM server to DUAL.
///   2. Switch every CN to DUAL; collect each CN's max issued GClock
///      timestamp (and current clock upper bound).
///   3. No wait needed: switch the GTM server to GTM with the counter
///      floored above every collected timestamp, then every CN.
class TransitionCoordinator {
 public:
  TransitionCoordinator(sim::Simulator* sim, sim::Network* network,
                        NodeId self, NodeId gtm_node,
                        std::vector<NodeId> cn_nodes)
      : sim_(sim),
        self_(self),
        gtm_node_(gtm_node),
        cn_nodes_(std::move(cn_nodes)),
        client_(network, self) {}

  /// Fig. 2. Returns the DUAL dwell time waited (for instrumentation).
  sim::Task<StatusOr<SimDuration>> SwitchToGclock();

  /// Fig. 3. Returns the timestamp floor handed to the GTM server.
  sim::Task<StatusOr<Timestamp>> SwitchToGtm();

  Metrics& metrics() { return metrics_; }
  /// RPC client driving the transition control plane.
  rpc::RpcClient& rpc_client() { return client_; }

 private:
  struct SweepResult {
    Timestamp max_issued = 0;
    SimDuration max_error_bound = 0;
  };
  /// Sends SetMode to the GTM server; returns its ack.
  sim::Task<StatusOr<AckReply>> SetGtmMode(TimestampMode mode,
                                           Timestamp floor);
  /// Sends SetMode to every CN; aggregates acks.
  sim::Task<StatusOr<SweepResult>> SetAllCnModes(TimestampMode mode);

  sim::Simulator* sim_;
  NodeId self_;
  NodeId gtm_node_;
  std::vector<NodeId> cn_nodes_;
  rpc::RpcClient client_;
  Metrics metrics_;
};

}  // namespace globaldb

#endif  // GLOBALDB_SRC_TXN_TRANSITION_H_
