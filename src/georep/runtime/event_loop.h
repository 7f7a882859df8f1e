// A single-threaded timer/task loop: the real-world stand-in for the
// discrete-event simulator's one-at-a-time event execution.
//
// Each real datacenter node (geo_node.h) routes every runtime interaction
// through its EventLoop — timers, client operations, messages from
// transport threads — so all DatacenterRuntime calls are serialized, as
// the Environment contract requires.
//
// Order: tasks run in (due time, submission seq) order, exactly as if the
// loop popped the smallest due task one at a time. Post(fn) is
// ScheduleAfter(0, fn); both stamp (due = Now(), seq) inside mu_ and append
// to a FIFO `ready_` vector, which is therefore already sorted. Only
// delayed timers live in the ordered `timers_` map.
//
// Handoff: the loop takes mu_ once per turn. It swaps out `ready_`, moves
// the timers due at the turn's `now` into a local list, unlocks, and runs
// the two lists merged by (due, seq). A task posted during the turn is
// stamped at or after `now` with a larger seq, so it sorts after every
// task of the turn and runs in the next one — the same sequence the
// one-at-a-time loop produces. Producers notify the condvar only when the
// loop is waiting, not once per post.
//
// Phase: a timer armed by a loop task counts its delay from the start of
// the running turn, not from the instant it is armed. Timers armed in one
// turn with equal delays therefore come due together and run in arming
// order in one later turn, however long the arming turn took, and a
// periodic timer re-armed from its callback keeps its phase to the others
// of its period (the runtime's partition flushes stay just ahead of the
// stabilizer tick they share a turn with). Counted from the arming instant,
// each timer's position in its turn would push its next due back, and the
// pushes accumulate period after period.
//
// Stop() discards pending tasks and joins the thread; between the tasks
// of a turn the loop checks an atomic stop flag, so at most the task
// already running finishes after Stop is requested. After Stop returns no
// task is running or will run — state owned by loop tasks may then be
// inspected from any thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/sync.h"

namespace eunomia::geo::rt {

class EventLoop {
 public:
  // The loop thread is named `thread_name` (at most 15 bytes are kept).
  explicit EventLoop(std::string thread_name = "geo-loop");
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

  // Runs fn on the loop thread no earlier than delay_us from now — from the
  // start of the running turn when a loop task calls it with delay_us > 0
  // (see Phase above). Safe from any thread. A no-op after Stop.
  void ScheduleAfter(std::uint64_t delay_us, std::function<void()> fn);
  void Post(std::function<void()> fn) { ScheduleAfter(0, std::move(fn)); }

  // Runs fn on the loop thread and blocks until it completed — the safe way
  // to inspect runtime state while the loop is live. Executes fn inline
  // when the loop is not running (then the caller is the only thread).
  void RunBlocking(std::function<void()> fn);

  // Tasks queued and not yet taken by a turn: ready posts plus pending
  // timers. The turn in progress has already taken its own.
  std::size_t PendingTasks() const;

  bool InLoopThread() const {
    return std::this_thread::get_id() ==
           loop_thread_id_.load(std::memory_order_acquire);
  }

 private:
  struct Task {
    std::uint64_t due;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  using TimerKey = std::pair<std::uint64_t, std::uint64_t>;  // (due, seq)

  void RunLoop();

  const std::chrono::steady_clock::time_point epoch_;
  const std::string thread_name_;
  mutable sync::Mutex mu_{"rt::EventLoop::mu_", sync::kRankEventLoop};
  sync::CondVar cv_;
  // Posts in (due, seq) order: both are stamped under mu_ on append.
  std::vector<Task> ready_ GUARDED_BY(mu_);
  // Delayed timers; iteration order is their execution order.
  std::map<TimerKey, std::function<void()>> timers_ GUARDED_BY(mu_);
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  // True while the loop thread is blocked on cv_; a producer that sees it
  // clears it and notifies, so one wakeup serves every post of the wait.
  bool waiting_ GUARDED_BY(mu_) = false;
  bool running_ GUARDED_BY(mu_) = false;
  // The `now` of the running turn: the base of timers its tasks arm.
  std::uint64_t turn_start_ GUARDED_BY(mu_) = 0;
  // Written under mu_ (a post that saw it false is queued before Stop's
  // discard), read without it between the tasks of a turn.
  std::atomic<bool> stopped_{false};
  std::thread thread_;
  // Atomic rather than mu_-guarded: InLoopThread is read from any thread,
  // loop tasks included, without taking mu_.
  std::atomic<std::thread::id> loop_thread_id_{};
};

}  // namespace eunomia::geo::rt
