#ifndef GLOBALDB_SRC_SIM_FUTURE_H_
#define GLOBALDB_SRC_SIM_FUTURE_H_

#include <coroutine>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/sim/simulator.h"

namespace globaldb::sim {

/// One-shot asynchronous value passed from a Promise (producer) to the one
/// Future awaiter that consumes it. Waiters are resumed through the
/// simulator event queue at the moment Set() is called, preserving the
/// deterministic event order and avoiding unbounded resume recursion.
template <typename T>
class Promise;

namespace internal_future {

template <typename T>
struct State {
  Simulator* sim;
  std::optional<T> value;
  std::vector<std::coroutine_handle<>> waiters;
};

}  // namespace internal_future

template <typename T>
class Future {
 public:
  Future() = default;
  explicit Future(std::shared_ptr<internal_future::State<T>> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }
  bool ready() const { return state_ && state_->value.has_value(); }

  /// Awaitable; moves the value out to the awaiter. A Future has a single
  /// consumer that awaits it once (an RPC reply envelope moves to its caller
  /// without a copy); a second awaiter of the same state would see a
  /// moved-from value.
  auto operator co_await() const noexcept {
    struct Awaiter {
      std::shared_ptr<internal_future::State<T>> state;
      bool await_ready() const { return state->value.has_value(); }
      void await_suspend(std::coroutine_handle<> h) {
        state->waiters.push_back(h);
      }
      T await_resume() { return std::move(*state->value); }
    };
    GDB_CHECK(state_ != nullptr) << "awaiting an invalid Future";
    return Awaiter{state_};
  }

 private:
  std::shared_ptr<internal_future::State<T>> state_;
};

template <typename T>
class Promise {
 public:
  explicit Promise(Simulator* sim)
      : state_(std::make_shared<internal_future::State<T>>()) {
    state_->sim = sim;
  }

  Future<T> GetFuture() const { return Future<T>(state_); }

  bool has_value() const { return state_->value.has_value(); }

  /// Fulfills the promise. Each waiter resumes as a separate simulator event
  /// at the current virtual time. Setting twice is a bug.
  void Set(T value) {
    GDB_CHECK(TrySet(std::move(value))) << "Promise set twice";
  }

  /// Like Set() but returns false instead of aborting when already set.
  /// Used by timeout races: first writer wins.
  bool TrySet(T value) {
    if (state_->value.has_value()) return false;
    state_->value.emplace(std::move(value));
    auto waiters = std::move(state_->waiters);
    state_->waiters.clear();
    for (auto h : waiters) {
      state_->sim->Schedule(0, [h]() { h.resume(); });
    }
    return true;
  }

 private:
  std::shared_ptr<internal_future::State<T>> state_;
};

/// Manual-reset notification: waiters block until Notify() is called once.
class Notification {
 public:
  explicit Notification(Simulator* sim) : sim_(sim) {}

  bool HasBeenNotified() const { return notified_; }

  void Notify() {
    if (notified_) return;
    notified_ = true;
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto h : waiters) {
      sim_->Schedule(0, [h]() { h.resume(); });
    }
  }

  auto Wait() {
    struct Awaiter {
      Notification* n;
      bool await_ready() const { return n->notified_; }
      void await_suspend(std::coroutine_handle<> h) {
        n->waiters_.push_back(h);
      }
      void await_resume() const {}
    };
    return Awaiter{this};
  }

 private:
  Simulator* sim_;
  bool notified_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Counts outstanding work; Wait() resumes when the count reaches zero.
class WaitGroup {
 public:
  explicit WaitGroup(Simulator* sim) : sim_(sim) {}

  void Add(int n = 1) { count_ += n; }

  void Done() {
    GDB_CHECK(count_ > 0);
    if (--count_ == 0) {
      auto waiters = std::move(waiters_);
      waiters_.clear();
      for (auto h : waiters) {
        sim_->Schedule(0, [h]() { h.resume(); });
      }
    }
  }

  auto Wait() {
    struct Awaiter {
      WaitGroup* wg;
      bool await_ready() const { return wg->count_ == 0; }
      void await_suspend(std::coroutine_handle<> h) {
        wg->waiters_.push_back(h);
      }
      void await_resume() const {}
    };
    return Awaiter{this};
  }

 private:
  Simulator* sim_;
  int count_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Broadcast condition: waiters queue up and NotifyAll releases the current
/// batch (new waiters after the notify wait for the next one).
class CondVar {
 public:
  explicit CondVar(Simulator* sim) : sim_(sim) {}

  void NotifyAll() {
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto h : waiters) {
      sim_->Schedule(0, [h]() { h.resume(); });
    }
  }

  auto Wait() {
    struct Awaiter {
      CondVar* cv;
      bool await_ready() const { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        cv->waiters_.push_back(h);
      }
      void await_resume() const {}
    };
    return Awaiter{this};
  }

 private:
  Simulator* sim_;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace globaldb::sim

#endif  // GLOBALDB_SRC_SIM_FUTURE_H_
