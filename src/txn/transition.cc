#include "src/txn/transition.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/txn/messages.h"

namespace globaldb {

sim::Task<StatusOr<AckReply>> TransitionCoordinator::SetGtmMode(
    TimestampMode mode, Timestamp floor) {
  SetModeRequest request;
  request.mode = mode;
  request.floor = floor;
  co_return co_await client_.Call(gtm_node_, kGtmSetMode, request);
}

sim::Task<StatusOr<TransitionCoordinator::SweepResult>>
TransitionCoordinator::SetAllCnModes(TimestampMode mode) {
  // Sequential on purpose: the transition protocol tolerates a slow sweep
  // but not a half-switched cluster left behind by an aborted fan-out.
  SweepResult result;
  SetModeRequest request;
  request.mode = mode;
  for (NodeId cn : cn_nodes_) {
    auto ack = co_await client_.Call(cn, kCnSetMode, request);
    if (!ack.ok()) co_return ack.status();
    result.max_issued = std::max(result.max_issued, ack->max_issued);
    result.max_error_bound =
        std::max(result.max_error_bound, ack->max_error_bound);
  }
  co_return result;
}

sim::Task<StatusOr<SimDuration>> TransitionCoordinator::SwitchToGclock() {
  GDB_LOG(Info) << "transition: GTM -> GClock begins";
  metrics_.Add("transition.to_gclock");

  // Step 1: GTM server enters DUAL and starts tracking error bounds.
  auto gtm_ack = co_await SetGtmMode(TimestampMode::kDual, 0);
  if (!gtm_ack.ok()) co_return gtm_ack.status();

  // Step 2: every CN enters DUAL.
  auto sweep = co_await SetAllCnModes(TimestampMode::kDual);
  if (!sweep.ok()) co_return sweep.status();

  // Step 3: re-read the GTM's max observed error bound now that all CNs
  // acked, and dwell in DUAL for twice that (plus the CN-side bounds, to be
  // conservative about bounds the server has not seen yet).
  auto observe = co_await SetGtmMode(TimestampMode::kDual, 0);
  if (!observe.ok()) co_return observe.status();
  const SimDuration dwell =
      2 * std::max(observe->max_error_bound, sweep->max_error_bound);
  co_await sim_->Sleep(dwell);

  // Step 4: GTM server then CNs move to GClock.
  auto final_ack = co_await SetGtmMode(TimestampMode::kGclock, 0);
  if (!final_ack.ok()) co_return final_ack.status();
  auto cn_final = co_await SetAllCnModes(TimestampMode::kGclock);
  if (!cn_final.ok()) co_return cn_final.status();

  GDB_LOG(Info) << "transition: GTM -> GClock complete, dwell=" << dwell
                << "ns";
  co_return dwell;
}

sim::Task<StatusOr<Timestamp>> TransitionCoordinator::SwitchToGtm() {
  GDB_LOG(Info) << "transition: GClock -> GTM begins";
  metrics_.Add("transition.to_gtm");

  // Step 1: GTM server enters DUAL (bridging any early DUAL clients).
  auto gtm_ack = co_await SetGtmMode(TimestampMode::kDual, 0);
  if (!gtm_ack.ok()) co_return gtm_ack.status();

  // Step 2: CNs enter DUAL; collect the largest GClock timestamp issued.
  auto sweep = co_await SetAllCnModes(TimestampMode::kDual);
  if (!sweep.ok()) co_return sweep.status();

  // Step 3: no dwell needed. Floor the GTM counter above every issued
  // GClock timestamp and switch everyone to GTM.
  const Timestamp floor = sweep->max_issued;
  auto final_ack = co_await SetGtmMode(TimestampMode::kGtm, floor);
  if (!final_ack.ok()) co_return final_ack.status();
  auto cn_final = co_await SetAllCnModes(TimestampMode::kGtm);
  if (!cn_final.ok()) co_return cn_final.status();

  GDB_LOG(Info) << "transition: GClock -> GTM complete, floor=" << floor;
  co_return floor;
}

}  // namespace globaldb
