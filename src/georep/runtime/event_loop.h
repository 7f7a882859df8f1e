// A single-threaded timer/task loop: the real-world stand-in for the
// discrete-event simulator's one-at-a-time event execution.
//
// Each real datacenter node (geo_node.h) routes every runtime interaction
// through its EventLoop — timers, client operations, messages from
// transport threads — so all DatacenterRuntime calls are serialized and
// never reentrant, as the Environment contract requires.
//
// Tasks run in (due time, submission order) priority; Post(fn) is
// ScheduleAfter(0). Stop() discards pending tasks and joins the thread, so
// after Stop returns no task is running or will run — state owned by loop
// tasks may then be inspected from any thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <thread>
#include <utility>

#include "src/common/sync.h"

namespace eunomia::geo::rt {

class EventLoop {
 public:
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  void Start();
  void Stop();

  // Monotonic microseconds since a process-wide epoch shared by every
  // EventLoop. Sharing matters for crash/restart: a node restarted on a
  // fresh loop must keep issuing hybrid-clock timestamps strictly ahead of
  // its previous incarnation's, or peers' duplicate suppression would drop
  // its post-restart updates.
  std::uint64_t Now() const;

  // Runs fn on the loop thread no earlier than delay_us from now. Safe from
  // any thread, including loop tasks themselves. A no-op after Stop.
  void ScheduleAfter(std::uint64_t delay_us, std::function<void()> fn);
  void Post(std::function<void()> fn) { ScheduleAfter(0, std::move(fn)); }

  // Runs fn on the loop thread and blocks until it completed — the safe way
  // to inspect runtime state while the loop is live. Executes fn inline
  // when the loop is not running (then the caller is the only thread).
  void RunBlocking(std::function<void()> fn);

  bool InLoopThread() const {
    return std::this_thread::get_id() ==
           loop_thread_id_.load(std::memory_order_acquire);
  }

 private:
  void RunLoop();

  const std::chrono::steady_clock::time_point epoch_;
  mutable sync::Mutex mu_{"rt::EventLoop::mu_", sync::kRankEventLoop};
  sync::CondVar cv_;
  // (due time us, submission seq) -> task; multimap iteration order is the
  // execution order.
  std::multimap<std::pair<std::uint64_t, std::uint64_t>,
                std::function<void()>>
      tasks_ GUARDED_BY(mu_);
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  bool running_ GUARDED_BY(mu_) = false;
  bool stopped_ GUARDED_BY(mu_) = false;
  std::thread thread_;
  // Atomic rather than mu_-guarded: InLoopThread is called from loop tasks
  // that would deadlock taking mu_ while RunLoop holds it.
  std::atomic<std::thread::id> loop_thread_id_{};
};

}  // namespace eunomia::geo::rt
