#include "src/sim/simulator.h"

namespace globaldb::sim {

namespace {

/// A self-destroying wrapper coroutine that owns a detached task.
struct Detached {
  struct promise_type {
    Detached get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
};

Detached RunDetached(Task<void> task) { co_await std::move(task); }

}  // namespace

void Simulator::Spawn(Task<void> task) {
  if (!task.valid()) return;
  RunDetached(std::move(task));
}

Simulator::Slot& Simulator::Push(EventPlace place) {
  GDB_CHECK(!IsPast(place)) << "scheduling in the past: " << place.time
                            << " at " << now_;
  uint32_t index;
  if (free_slots_.empty()) {
    index = static_cast<uint32_t>(slots_.size());
    GDB_CHECK(index != EventHandle::kNoSlot) << "event slab full";
    slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[index].seq = place.seq;
  heap_.push_back({place.time, place.seq, index});
  SiftUp(static_cast<uint32_t>(heap_.size() - 1));
  return slots_[index];
}

bool Simulator::Cancel(EventHandle handle) {
  if (handle.slot >= slots_.size()) return false;
  Slot& slot = slots_[handle.slot];
  if (slot.heap_pos == kNotQueued || slot.seq != handle.seq) return false;
  RemoveAt(slot.heap_pos);
  slot.fn = nullptr;
  slot.coro = nullptr;
  free_slots_.push_back(handle.slot);
  return true;
}

void Simulator::RemoveAt(uint32_t pos) {
  slots_[heap_[pos].slot].heap_pos = kNotQueued;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  Place(pos, last);
  if (pos > 0 && Before(last, heap_[(pos - 1) / 2])) {
    SiftUp(pos);
  } else {
    SiftDown(pos);
  }
}

void Simulator::SiftUp(uint32_t pos) {
  const HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const uint32_t parent = (pos - 1) / 2;
    if (!Before(entry, heap_[parent])) break;
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, entry);
}

void Simulator::SiftDown(uint32_t pos) {
  const HeapEntry entry = heap_[pos];
  const uint32_t size = static_cast<uint32_t>(heap_.size());
  while (true) {
    uint32_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && Before(heap_[child + 1], heap_[child])) ++child;
    if (!Before(heap_[child], entry)) break;
    Place(pos, heap_[child]);
    pos = child;
  }
  Place(pos, entry);
}

bool Simulator::RunOne() {
  if (heap_.empty()) return false;
  const HeapEntry top = heap_.front();
  GDB_CHECK(top.time >= now_);
  now_ = top.time;
  run_seq_end_ = top.seq + 1;
  RemoveAt(0);
  // Free the slot before running: the callback may schedule into it.
  Slot& slot = slots_[top.slot];
  const std::coroutine_handle<> coro = slot.coro;
  slot.coro = nullptr;
  std::function<void()> fn = std::move(slot.fn);
  slot.fn = nullptr;
  free_slots_.push_back(top.slot);
  ++events_executed_;
  if (coro) {
    coro.resume();
  } else {
    fn();
  }
  return true;
}

void Simulator::Run() {
  stopped_ = false;
  while (!stopped_ && RunOne()) {
  }
}

void Simulator::RunUntil(SimTime until) {
  stopped_ = false;
  while (!stopped_ && !heap_.empty() && heap_.front().time <= until) {
    RunOne();
  }
  if (now_ < until) now_ = until;
}

}  // namespace globaldb::sim
