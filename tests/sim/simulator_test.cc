#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/future.h"
#include "src/sim/task.h"

namespace globaldb::sim {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(SimulatorTest, EqualTimesRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(100, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.Schedule(10, [&] {
    times.push_back(sim.now());
    sim.Schedule(5, [&] { times.push_back(sim.now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int ran = 0;
  sim.Schedule(10, [&] { ++ran; });
  sim.Schedule(50, [&] { ++ran; });
  sim.RunUntil(20);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), 20);
  sim.Run();
  EXPECT_EQ(ran, 2);
}

TEST(SimulatorTest, StopHaltsLoop) {
  Simulator sim;
  int ran = 0;
  sim.Schedule(1, [&] {
    ++ran;
    sim.Stop();
  });
  sim.Schedule(2, [&] { ++ran; });
  sim.Run();
  EXPECT_EQ(ran, 1);
  sim.Run();  // resumes
  EXPECT_EQ(ran, 2);
}

Task<void> SleeperTask(Simulator* sim, std::vector<SimTime>* log) {
  log->push_back(sim->now());
  co_await sim->Sleep(100);
  log->push_back(sim->now());
  co_await sim->Sleep(50);
  log->push_back(sim->now());
}

TEST(SimulatorTest, CoroutineSleepAdvancesVirtualTime) {
  Simulator sim;
  std::vector<SimTime> log;
  sim.Spawn(SleeperTask(&sim, &log));
  sim.Run();
  EXPECT_EQ(log, (std::vector<SimTime>{0, 100, 150}));
}

Task<int> Doubler(int x) { co_return x * 2; }

Task<void> AwaitsChild(Simulator* sim, int* out) {
  int a = co_await Doubler(10);
  co_await sim->Sleep(5);
  int b = co_await Doubler(a);
  *out = b;
}

TEST(SimulatorTest, TaskCompositionReturnsValues) {
  Simulator sim;
  int out = 0;
  sim.Spawn(AwaitsChild(&sim, &out));
  sim.Run();
  EXPECT_EQ(out, 40);
}

Task<void> Ping(Simulator* sim, Promise<int> p) {
  co_await sim->Sleep(42);
  p.Set(99);
}

Task<void> Pong(Simulator* sim, Future<int> f, SimTime* when, int* value) {
  *value = co_await f;
  *when = sim->now();
}

TEST(SimulatorTest, FutureResumesWaiterAtSetTime) {
  Simulator sim;
  Promise<int> p(&sim);
  SimTime when = -1;
  int value = 0;
  sim.Spawn(Pong(&sim, p.GetFuture(), &when, &value));
  sim.Spawn(Ping(&sim, p));
  sim.Run();
  EXPECT_EQ(value, 99);
  EXPECT_EQ(when, 42);
}

TEST(SimulatorTest, FutureAlreadyReadyDoesNotSuspend) {
  Simulator sim;
  Promise<int> p(&sim);
  p.Set(7);
  int value = 0;
  SimTime when = -1;
  sim.Spawn(Pong(&sim, p.GetFuture(), &when, &value));
  sim.Run();
  EXPECT_EQ(value, 7);
  EXPECT_EQ(when, 0);
}

TEST(SimulatorTest, PromiseTrySetSecondWriterLoses) {
  Simulator sim;
  Promise<int> p(&sim);
  EXPECT_TRUE(p.TrySet(1));
  EXPECT_FALSE(p.TrySet(2));
  int value = 0;
  SimTime when;
  sim.Spawn(Pong(&sim, p.GetFuture(), &when, &value));
  sim.Run();
  EXPECT_EQ(value, 1);
}

Task<void> Worker(Simulator* sim, WaitGroup* wg, SimDuration d) {
  co_await sim->Sleep(d);
  wg->Done();
}

Task<void> Waiter(Simulator* sim, WaitGroup* wg, SimTime* done_at) {
  co_await wg->Wait();
  *done_at = sim->now();
}

TEST(SimulatorTest, WaitGroupWaitsForAll) {
  Simulator sim;
  WaitGroup wg(&sim);
  wg.Add(3);
  SimTime done_at = -1;
  sim.Spawn(Waiter(&sim, &wg, &done_at));
  sim.Spawn(Worker(&sim, &wg, 10));
  sim.Spawn(Worker(&sim, &wg, 30));
  sim.Spawn(Worker(&sim, &wg, 20));
  sim.Run();
  EXPECT_EQ(done_at, 30);
}

TEST(SimulatorTest, NotificationReleasesAllWaiters) {
  Simulator sim;
  Notification n(&sim);
  int released = 0;
  auto wait_task = [](Notification* n, int* released) -> Task<void> {
    co_await n->Wait();
    ++*released;
  };
  sim.Spawn(wait_task(&n, &released));
  sim.Spawn(wait_task(&n, &released));
  sim.Schedule(10, [&] { n.Notify(); });
  sim.Run();
  EXPECT_EQ(released, 2);
  EXPECT_TRUE(n.HasBeenNotified());
  // Waiting after notification completes immediately.
  sim.Spawn(wait_task(&n, &released));
  sim.Run();
  EXPECT_EQ(released, 3);
}

TEST(SimulatorTest, DeterministicEventCount) {
  auto run = []() {
    Simulator sim(123);
    std::vector<SimTime> log;
    sim.Spawn(SleeperTask(&sim, &log));
    sim.Spawn(SleeperTask(&sim, &log));
    sim.Run();
    return sim.events_executed();
  };
  EXPECT_EQ(run(), run());
}

// --- Cancellation -------------------------------------------------------------

TEST(SimulatorCancelTest, CancelBeforeFiringRemovesTheEvent) {
  Simulator sim;
  int ran = 0;
  const EventHandle handle = sim.Schedule(10, [&] { ++ran; });
  sim.Schedule(20, [&] { ran += 10; });
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.Cancel(handle));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(sim.Cancel(handle));  // already gone
  sim.Run();
  EXPECT_EQ(ran, 10);
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_FALSE(sim.Cancel(EventHandle{}));  // names nothing
}

TEST(SimulatorCancelTest, CancelAfterFiringIsANoOp) {
  Simulator sim;
  int ran = 0;
  const EventHandle fired = sim.Schedule(10, [&] { ++ran; });
  sim.Schedule(30, [&] { ran += 10; });
  sim.RunUntil(20);
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(sim.Cancel(fired));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(ran, 11);
}

TEST(SimulatorCancelTest, StaleHandleCannotCancelTheSlotsNewerEvent) {
  Simulator sim;
  int ran = 0;
  const EventHandle first = sim.Schedule(10, [&] { ++ran; });
  sim.Run();
  // The first event's slot is free again, so the next event reuses it.
  const EventHandle second = sim.Schedule(10, [&] { ran += 10; });
  ASSERT_EQ(second.slot, first.slot);
  EXPECT_FALSE(sim.Cancel(first));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(ran, 11);
  // The same holds for a slot freed by a cancel.
  const EventHandle cancelled = sim.Schedule(5, [&] { ran += 100; });
  ASSERT_TRUE(sim.Cancel(cancelled));
  const EventHandle reused = sim.Schedule(5, [&] { ran += 1000; });
  ASSERT_EQ(reused.slot, cancelled.slot);
  EXPECT_FALSE(sim.Cancel(cancelled));
  sim.Run();
  EXPECT_EQ(ran, 1011);
}

TEST(SimulatorCancelTest, EqualTimesStayFifoAcrossInterleavedCancels) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 20; ++i) {
    handles.push_back(sim.Schedule(100, [&order, i] { order.push_back(i); }));
    // Cancel every third event as soon as the next one is queued, so freed
    // slots are reused by later (higher-seq) events at the same time.
    if (i % 3 == 1) {
      ASSERT_TRUE(sim.Cancel(handles[i - 1]));
    }
  }
  ASSERT_TRUE(sim.Cancel(handles[10]));
  sim.Run();
  std::vector<int> expected;
  for (int i = 0; i < 20; ++i) {
    if (i % 3 != 0 && i != 10) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

TEST(SimulatorPlaceTest, ResumeAtAReservedPlaceRunsWhereTheReservationWas) {
  Simulator sim;
  std::vector<std::string> order;
  EventPlace place;
  std::coroutine_handle<> waiter;
  auto task = [&]() -> Task<void> {
    struct Park {
      std::coroutine_handle<>* slot;
      bool await_ready() const { return false; }
      void await_suspend(std::coroutine_handle<> h) { *slot = h; }
      void await_resume() const {}
    };
    co_await Park{&waiter};
    order.push_back("resumed");
  };
  sim.Spawn(task());
  sim.Schedule(10, [&] {
    order.push_back("reserve");
    place = sim.ReservePlace(sim.now());
    EXPECT_FALSE(sim.IsPast(place));
    // Queued after the reservation, so it runs after the place.
    sim.Schedule(0, [&] { order.push_back("later"); });
  });
  sim.Schedule(10, [&] {
    // Runs before the place: a resume there still comes before "later".
    EXPECT_FALSE(sim.IsPast(place));
    sim.ResumeAt(place, waiter);
  });
  sim.Run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"reserve", "resumed", "later"}));
  EXPECT_TRUE(sim.IsPast(place));
  EXPECT_FALSE(sim.IsPast(sim.ReservePlace(sim.now())));
  EXPECT_TRUE(sim.IsPast(EventPlace{}));
}

TEST(SimulatorCancelTest, RandomScheduleCancelRunMatchesAPriorityQueueModel) {
  // The reference: std::priority_queue over (time, seq, id), where a cancel
  // marks an id dead and the pop skips dead ids.
  using Entry = std::tuple<SimTime, uint64_t, int>;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Simulator sim;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> model;
    std::vector<bool> live;
    std::vector<EventHandle> handles;
    std::vector<int> ran;
    std::vector<int> expected;
    SimTime model_now = 0;
    uint64_t model_seq = 0;
    size_t model_pending = 0;
    for (int step = 0; step < 4000; ++step) {
      const uint64_t op = rng.Uniform(10);
      if (op < 5) {
        // Few distinct delays, so many events share a time.
        const SimDuration delay = static_cast<SimDuration>(rng.Uniform(8));
        const int id = static_cast<int>(handles.size());
        handles.push_back(
            sim.Schedule(delay, [&ran, id] { ran.push_back(id); }));
        live.push_back(true);
        model.emplace(model_now + delay, model_seq++, id);
        ++model_pending;
      } else if (op < 8 && !handles.empty()) {
        const size_t id = rng.Uniform(handles.size());
        ASSERT_EQ(sim.Cancel(handles[id]), static_cast<bool>(live[id]));
        if (live[id]) --model_pending;
        live[id] = false;
      } else {
        const SimTime until =
            model_now + static_cast<SimDuration>(rng.Uniform(4));
        sim.RunUntil(until);
        while (!model.empty() && std::get<0>(model.top()) <= until) {
          const int id = std::get<2>(model.top());
          model.pop();
          if (!live[id]) continue;
          live[id] = false;
          --model_pending;
          expected.push_back(id);
        }
        model_now = until;
      }
      ASSERT_EQ(sim.pending_events(), model_pending);
    }
    sim.Run();
    while (!model.empty()) {
      const int id = std::get<2>(model.top());
      model.pop();
      if (live[id]) expected.push_back(id);
    }
    EXPECT_EQ(ran, expected);
    EXPECT_EQ(sim.pending_events(), 0u);
  }
}

}  // namespace
}  // namespace globaldb::sim
