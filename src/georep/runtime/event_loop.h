// EventLoop: a timer/task loop on a thread of its own, kept for the
// benchmark program's shared-epoch clock and stall test. Geo nodes run on
// their transport's io loop instead (geo_node.h).
//
// It is a thin wrapper over an fd-less net::IoLoop, which provides the
// (due, seq) order, the turn-start phase of timers armed by loop tasks, the
// timerfd wakeups and the discard on Stop (see io_loop.h): once Stop is
// requested at most the task already running finishes, and after Stop
// returns no task is running or will run — state owned by loop tasks may
// then be inspected from any thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "src/net/io_loop.h"

namespace eunomia::geo::rt {

class EventLoop {
 public:
  // The loop thread is named `thread_name` (at most 15 bytes are kept).
  explicit EventLoop(std::string thread_name = "geo-loop")
      : loop_(std::move(thread_name), net::IoLoop::DeferStart{}) {}
  ~EventLoop() { Stop(); }

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  void Start() { loop_.Start(); }
  void Stop() { loop_.Stop(); }

  // net::IoLoop::Now(): monotonic microseconds since the process-wide
  // epoch every loop shares.
  std::uint64_t Now() const { return net::IoLoop::Now(); }

  // Runs fn on the loop thread no earlier than delay_us from now — from the
  // start of the running turn when a loop task calls it with delay_us > 0.
  // Safe from any thread. A no-op after Stop.
  void ScheduleAfter(std::uint64_t delay_us, std::function<void()> fn) {
    loop_.ScheduleAfter(delay_us, std::move(fn));
  }
  void Post(std::function<void()> fn) { ScheduleAfter(0, std::move(fn)); }

  // Runs fn on the loop thread and blocks until it completed — the safe way
  // to inspect loop-owned state while the loop is live. Executes fn inline
  // when the loop is not running (then the caller is the only thread).
  void RunBlocking(const std::function<void()>& fn) { loop_.RunBlocking(fn); }

  // Tasks queued and not yet taken by a turn: ready posts plus pending
  // timers. The turn in progress has already taken its own.
  std::size_t PendingTasks() const { return loop_.PendingTasks(); }

  bool InLoopThread() const { return loop_.OnLoopThread(); }

 private:
  net::IoLoop loop_;
};

}  // namespace eunomia::geo::rt
