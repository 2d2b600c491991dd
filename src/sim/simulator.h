#ifndef GLOBALDB_SRC_SIM_SIMULATOR_H_
#define GLOBALDB_SRC_SIM_SIMULATOR_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/sim/task.h"

namespace globaldb::sim {

/// Names one scheduled event so its owner can cancel it. A default handle
/// names nothing. A handle outlives its event harmlessly: once the event has
/// run or been cancelled, and even after its slot holds a newer event,
/// cancelling the handle does nothing.
struct EventHandle {
  static constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();
  uint64_t seq = 0;
  uint32_t slot = kNoSlot;
};

/// A place in the order events run in: events run by (time, seq).
struct EventPlace {
  SimTime time = -1;
  uint64_t seq = 0;
};

/// Single-threaded discrete-event simulator with a virtual nanosecond clock.
///
/// All node logic runs as coroutines resumed by the event loop. Events with
/// equal timestamps fire in scheduling order (FIFO), which — combined with a
/// seeded Rng — makes every run bit-for-bit reproducible.
///
/// The queue holds only live work: a binary heap of plain {time, seq, slot}
/// entries ordered by (time, seq), over a slab of callbacks recycled through
/// a free list. A coroutine resume needs no callback object at all, and an
/// owner whose event became moot (an answered RPC's timeout, a granted
/// lock's deadline) cancels it, which takes it out of the heap at once.
class Simulator {
 public:
  explicit Simulator(uint64_t seed = 42) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time in nanoseconds.
  SimTime now() const { return now_; }

  /// Root source of randomness; fork per-component generators from it.
  Rng& rng() { return rng_; }

  /// Schedules `fn` to run at now() + delay (delay >= 0).
  EventHandle Schedule(SimDuration delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` to run at absolute virtual time `when` (>= now()).
  EventHandle ScheduleAt(SimTime when, std::function<void()> fn) {
    Slot& slot = Push(ReservePlace(when));
    slot.fn = std::move(fn);
    return HandleOf(slot);
  }

  /// Schedules coroutine `h` to resume at absolute virtual time `when`
  /// (>= now()), with no callback object.
  EventHandle ResumeAt(SimTime when, std::coroutine_handle<> h) {
    return ResumeAt(ReservePlace(when), h);
  }

  /// Takes the place an event scheduled now at `when` would run at,
  /// without scheduling one.
  EventPlace ReservePlace(SimTime when) { return {when, next_seq_++}; }

  /// Whether the loop has run the event at `place`, or past it.
  bool IsPast(EventPlace place) const {
    return place.time != now_ ? place.time < now_ : place.seq < run_seq_end_;
  }

  /// Schedules coroutine `h` to resume at a reserved place that is not
  /// past, so it runs exactly where an event scheduled at the reservation
  /// would have.
  EventHandle ResumeAt(EventPlace place, std::coroutine_handle<> h) {
    Slot& slot = Push(place);
    slot.coro = h;
    return HandleOf(slot);
  }

  /// Removes the event from the queue if it is still pending; returns
  /// whether it was. Its callback is destroyed without running.
  bool Cancel(EventHandle handle);

  /// Starts a detached coroutine. The frame stays alive until the coroutine
  /// completes; completion order is governed entirely by virtual time.
  void Spawn(Task<void> task);

  /// Runs until the event queue is empty or Stop() is called.
  void Run();

  /// Runs events with time <= until, then sets now() = until.
  void RunUntil(SimTime until);

  /// Runs for `d` more virtual nanoseconds.
  void RunFor(SimDuration d) { RunUntil(now_ + d); }

  /// Makes Run()/RunUntil() return after the current event.
  void Stop() { stopped_ = true; }

  /// Number of events executed so far (for tests and diagnostics).
  uint64_t events_executed() const { return events_executed_; }

  /// Events scheduled and neither run nor cancelled yet (for tests).
  size_t pending_events() const { return heap_.size(); }

  /// Awaitable: suspends the current coroutine for `delay` virtual ns.
  auto Sleep(SimDuration delay) { return SleepAwaiter{this, now_ + delay}; }

  /// Awaitable: suspends until absolute virtual time `when`.
  auto SleepUntil(SimTime when) {
    return SleepAwaiter{this, when < now_ ? now_ : when};
  }

  /// Awaitable that reschedules the coroutine at the same time, letting other
  /// ready events run first (cooperative yield).
  auto Yield() { return SleepAwaiter{this, now_}; }

 private:
  static constexpr uint32_t kNotQueued = std::numeric_limits<uint32_t>::max();

  /// A queued event's heap entry; `slot` indexes slots_.
  struct HeapEntry {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
  };

  /// A queued event's callback: a coroutine to resume, or else `fn`.
  struct Slot {
    std::function<void()> fn;
    std::coroutine_handle<> coro;
    uint64_t seq = 0;
    /// Index of the slot's entry in heap_, or kNotQueued while free.
    uint32_t heap_pos = kNotQueued;
  };

  struct SleepAwaiter {
    Simulator* sim;
    SimTime when;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) { sim->ResumeAt(when, h); }
    void await_resume() const {}
  };

  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  /// Takes a free slot for a new event at `place` and queues it.
  Slot& Push(EventPlace place);
  EventHandle HandleOf(const Slot& slot) const {
    return {slot.seq, static_cast<uint32_t>(&slot - slots_.data())};
  }
  /// Takes the entry at heap position `pos` out of the heap.
  void RemoveAt(uint32_t pos);
  void SiftUp(uint32_t pos);
  void SiftDown(uint32_t pos);
  /// Stores `entry` at heap position `pos` and records the position.
  void Place(uint32_t pos, const HeapEntry& entry) {
    heap_[pos] = entry;
    slots_[entry.slot].heap_pos = pos;
  }
  bool RunOne();

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t run_seq_end_ = 0;  // seq of the event running (or last run) + 1
  uint64_t events_executed_ = 0;
  bool stopped_ = false;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  Rng rng_;
};

}  // namespace globaldb::sim

#endif  // GLOBALDB_SRC_SIM_SIMULATOR_H_
